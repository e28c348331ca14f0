"""Verification suite for the bundled benchmark scenario.

Each criterion below is an independently checkable claim about the toolkit:
frozen gain/coefficient values for the benchmark plant, structural identities,
statistical soundness sweeps of the certificates, and runtime/determinism
requirements on the CLI surface.  The sweeps judge each passing certificate's
sampled ``natural_response`` with ``detect_overshoot``, the simulator's own
sign-change rule.  ``run_all`` executes every criterion and reports one
pass/fail line each; it backs ``nosreg reproduce-example`` and the tests.
"""

from __future__ import annotations

import io
import json
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .certificates import certify, certify_n2, certify_n3_closedform
from .chains import Exosystem, make_chain
from .errors import SingularMatrix
from .modal import PoleSet, modal_coeffs, moore_feedback, natural_response
from .plants import REFERENCE_X0, benchmark_plant
from .regulation import solve_sylvester, synthesize
from .sim import SimConfig, detect_overshoot, simulate_nonlinear

# --- the bundled scenario -------------------------------------------------
# 4-integrator chain tracking r(t) = cos(t); three admissible pole sets of
# increasing speed, each certified for the nominal initial condition.

EXO_S = ((0.0, 1.0), (-1.0, 0.0))
EXO_H = ((1.0, 0.0),)
EXO_W0 = (1.0, 0.0)

POLES_SLOW = (-4.847, -4.017, -2.432, -0.1032)
POLES_MEDIUM = (-10.91, -6.55, -3.61, -2.73)
POLES_FAST = (-15.79, -10.20, -4.63, -3.67)

BANDS_SLOW = ((-6.0, -4.5), (-4.5, -3.0), (-3.0, -1.5), (-1.5, 0.0))
BANDS_MEDIUM = ((-12.0, -9.0), (-9.0, -6.0), (-6.0, -3.0), (-3.0, 0.0))
BANDS_FAST = ((-16.0, -12.0), (-12.0, -8.0), (-8.0, -4.0), (-4.0, 0.0))

# Frozen reference values for the slow design (hand-checkable: the closed
# loop is companion form, so F is the negated characteristic polynomial of
# the pole set, and G = Gamma - F Pi).
EXPECTED_PI = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
EXPECTED_GAMMA = (1.0, 0.0)
EXPECTED_F_SLOW = (-4.89, -51.6, -42.2, -11.4)
EXPECTED_G_SLOW = (-36.3, 40.2)
EXPECTED_ALPHA_SLOW = (0.2468, -0.3236, -0.7734, -0.1499)
EXPECTED_P_SLOW = 0.6765
# First/last gain magnitudes for the faster sets (= product/sum of pole
# magnitudes), checked to 1% relative.
EXPECTED_EDGE_MEDIUM = (704.0, 23.8)
EXPECTED_EDGE_FAST = (2740.0, 34.0)


def reference_exosystem() -> Exosystem:
    return Exosystem(S=EXO_S, H=EXO_H, w0=EXO_W0)


def reference_config_dict(intervals=BANDS_SLOW, poles=None, seed=20250808) -> dict:
    """Problem-config payload for the bundled scenario (plant IC form)."""
    cfg = {
        "degrees": [4],
        "exosystem": {"S": [list(r) for r in EXO_S],
                      "H": [list(r) for r in EXO_H],
                      "w0": list(EXO_W0)},
        "initial": {"plant": "benchmark", "x0": list(REFERENCE_X0)},
        "search": {"max_trials": 10000, "seed": seed},
        "sim": {"step": 1e-3, "horizon": 40.0, "record_stride": 10,
                "zero_band": 1e-9},
    }
    if intervals is not None:
        cfg["intervals"] = [[list(iv) for iv in intervals]]
    if poles is not None:
        cfg["poles"] = [list(poles)]
    return cfg


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail) -> CriterionResult:
    return CriterionResult(name=name, passed=bool(passed), detail=detail)


# --- criteria ---------------------------------------------------------------


def check_sylvester_reproduction() -> CriterionResult:
    chain = make_chain(4)
    exo = reference_exosystem()
    Pi, Gamma = solve_sylvester(chain, exo, EXO_H)  # warm-up + value check
    best = min(_timed(lambda: solve_sylvester(chain, exo, EXO_H)) for _ in range(20))
    err = max(np.abs(Pi - np.array(EXPECTED_PI)).max(),
              np.abs(Gamma - np.array([EXPECTED_GAMMA])).max())
    ok = err <= 1e-9 and best < 1e-3
    return _result("sylvester-reproduction", ok,
                   f"max entry error {err:.2e} (tol 1e-9), "
                   f"best runtime {best * 1e6:.0f} us (limit 1 ms)")


def _slow_design():
    """The library's design of the bundled scenario with the slow pole set."""
    plant = benchmark_plant()
    return synthesize(plant.degrees, reference_exosystem(),
                      plant.normal_map(REFERENCE_X0), [PoleSet(POLES_SLOW)])


def check_gain_reproduction() -> CriterionResult:
    gains = _slow_design()
    f_err = np.abs(gains.F[0] - np.array(EXPECTED_F_SLOW)).max()
    g_err = np.abs(gains.G[0] - np.array(EXPECTED_G_SLOW)).max()
    ok = f_err <= 0.05 and g_err <= 0.05
    return _result("gain-reproduction", ok,
                   f"|F - expected| <= {f_err:.3g}, |G - expected| <= {g_err:.3g} "
                   f"(tol 0.05)")


def check_modal_coefficients() -> CriterionResult:
    sub = _slow_design().subsystems[0]
    a_err = np.abs(sub.decomp.alpha - np.array(EXPECTED_ALPHA_SLOW)).max()
    ok = (a_err <= 5e-4 and sub.cert.passed
          and abs(sub.cert.p_value - EXPECTED_P_SLOW) <= 2e-3)
    return _result("modal-coefficients", ok,
                   f"|alpha - expected| <= {a_err:.2e} (tol 5e-4), "
                   f"p = {sub.cert.p_value:.4f} > 0")


def check_pole_placement() -> CriterionResult:
    details, ok = [], True
    for name, poles, (first, last) in (("medium", POLES_MEDIUM, EXPECTED_EDGE_MEDIUM),
                                       ("fast", POLES_FAST, EXPECTED_EDGE_FAST)):
        ps = PoleSet(poles)
        F = moore_feedback(ps)
        chain = make_chain(ps.n)
        achieved = np.poly(chain.A + chain.B @ F)   # leading-1 coefficients
        target = np.poly(ps.as_array())
        rel = np.abs(achieved - target).max() / np.abs(target).max()
        e_first = abs(abs(F[0, 0]) - first) / first
        e_last = abs(abs(F[0, -1]) - last) / last
        ok &= rel <= 1e-6 and e_first <= 0.01 and e_last <= 0.01
        details.append(f"{name}: charpoly rel err {rel:.1e}, "
                       f"edge gains off by {e_first:.2%}/{e_last:.2%}")
    return _result("pole-placement", ok, "; ".join(details))


def check_end_to_end_nonovershoot() -> CriterionResult:
    exo = reference_exosystem()
    plant = benchmark_plant()
    xi0 = plant.normal_map(REFERENCE_X0)
    cfg = SimConfig(step=1e-3, horizon=40.0, record_stride=10, zero_band=1e-9)
    all_gains = [synthesize(plant.degrees, exo, xi0, [PoleSet(p)])
                 for p in (POLES_SLOW, POLES_MEDIUM, POLES_FAST)]
    t0 = time.perf_counter()
    runs = [simulate_nonlinear(plant, exo, g, REFERENCE_X0, cfg) for g in all_gains]
    elapsed = time.perf_counter() - t0

    ok = elapsed < 5.0
    details = []
    for label, (traj, report), bound_t, bound in (("slow", runs[0], 40.0, 1e-2),
                                                  ("medium", runs[1], 10.0, 1e-4),
                                                  ("fast", runs[2], 10.0, 1e-4)):
        idx = int(np.argmin(np.abs(traj.times - bound_t)))
        e_at = float(np.abs(traj.e[idx]).max())
        ok &= (not report.any_overshoot) and e_at < bound
        details.append(f"{label}: sign change {report.any_overshoot}, "
                       f"|e({bound_t:.0f})| = {e_at:.2e} (< {bound:g})")
    details.append(f"runtime {elapsed:.2f} s (< 5 s)")
    return _result("end-to-end-nonovershoot", ok, "; ".join(details))


def _changes_sign(decomp, t_grid) -> bool:
    """Does the sampled natural response of ``decomp`` change sign?"""
    return detect_overshoot(t_grid, natural_response(decomp, t_grid)).any_overshoot


def check_certificate_soundness_sweep() -> CriterionResult:
    t0 = time.perf_counter()
    t_grid = np.linspace(0.0, 60.0, 2000)
    total_pass, total_viol = 0, 0
    for n in (2, 3, 4, 5):
        rng = np.random.default_rng(1000 + n)
        x0s = rng.uniform(-5.0, 5.0, size=(10_000, n))
        # slowest pole in (-3.05, -0.05), gaps in (0.05, 3): ordered by construction
        gaps = rng.uniform(0.05, 3.0, size=(10_000, n))
        lams = -np.cumsum(gaps[:, ::-1], axis=1)[:, ::-1]
        for k in range(10_000):
            try:
                decomp = modal_coeffs(PoleSet(tuple(lams[k])), x0s[k])
            except SingularMatrix:
                continue   # conditioning guard rejected this draw; not a pass
            if certify(decomp).passed:
                total_pass += 1
                total_viol += _changes_sign(decomp, t_grid)
    elapsed = time.perf_counter() - t0
    ok = total_viol == 0 and elapsed < 30.0
    return _result("certificate-soundness-sweep", ok,
                   f"{total_pass} passing certificates across n=2..5, "
                   f"{total_viol} sign changes observed, runtime {elapsed:.1f} s (< 30 s)")


def check_quadrant_rule() -> CriterionResult:
    rng = np.random.default_rng(42)
    t_grid = np.linspace(0.0, 60.0, 2000)
    n_pass, viol = 0, 0
    for _ in range(1000):
        mag1, mag2 = rng.uniform(0.1, 5.0, size=2)
        sgn = 1.0 if rng.random() < 0.5 else -1.0
        x0 = np.array([sgn * mag1, -sgn * mag2])   # second or fourth quadrant
        ratio = x0[1] / x0[0]
        lam1 = ratio - rng.uniform(0.05, 5.0)      # admissible: lam1 < x02/x01
        lam2 = lam1 * (1.0 - rng.uniform(0.1, 0.9))
        poles = PoleSet((lam1, lam2))
        q, passed = certify_n2(x0, poles)
        if passed:
            n_pass += 1
            viol += _changes_sign(modal_coeffs(poles, x0), t_grid)

    n_reject = 0
    for _ in range(100):
        mag1, mag2 = rng.uniform(0.1, 5.0, size=2)
        sgn = 1.0 if rng.random() < 0.5 else -1.0
        x0 = np.array([sgn * mag1, -sgn * mag2])
        ratio = x0[1] / x0[0]
        lam1 = ratio * rng.uniform(0.1, 0.9)       # violates lam1 < x02/x01
        lam2 = lam1 * rng.uniform(0.05, 0.8)
        q, passed = certify_n2(x0, PoleSet((lam1, lam2)))
        if q < 0 and not passed:
            n_reject += 1
    ok = n_pass == 1000 and viol == 0 and n_reject == 100
    return _result("quadrant-rule", ok,
                   f"{n_pass}/1000 admissible cases certified with {viol} sign "
                   f"changes; {n_reject}/100 violating cases rejected")


def check_cubic_consistency() -> CriterionResult:
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        gaps = rng.uniform(0.3, 4.0, size=3)
        lams = -np.cumsum(gaps[::-1])[::-1]
        x0 = rng.uniform(-5.0, 5.0, size=3)
        poles = PoleSet(tuple(lams))
        *_, p_closed = certify_n3_closedform(x0, poles)
        p_numeric = certify(modal_coeffs(poles, x0)).p_value
        worst = max(worst, abs(p_closed - p_numeric))
    ok = worst <= 1e-9
    return _result("cubic-consistency", ok,
                   f"max |p_closed - p_numeric| = {worst:.2e} (tol 1e-9)")


def check_search_performance(workdir: Path) -> CriterionResult:
    from .cli import cmd_search, load_gains, load_config

    cfg_path = workdir / "band_config.json"
    cfg_path.write_text(json.dumps(reference_config_dict()))
    out_path = workdir / "band_gains.json"
    with redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        status = cmd_search(str(cfg_path), str(out_path))
        elapsed = time.perf_counter() - t0
    gains = load_gains(out_path, load_config(cfg_path))
    certified = all(p > 0 for p in gains.p_values)
    ok = status == 0 and elapsed < 1.0 and certified
    return _result("search-performance", ok,
                   f"exit {status}, runtime {elapsed * 1e3:.0f} ms (< 1000 ms), "
                   f"p values {tuple(round(p, 4) for p in gains.p_values)}")


def check_determinism(workdir: Path) -> CriterionResult:
    from .cli import cmd_search, cmd_simulate

    cfg_path = workdir / "det_config.json"
    cfg_path.write_text(json.dumps(reference_config_dict()))
    g1, g2 = workdir / "g1.json", workdir / "g2.json"
    c1, c2 = workdir / "t1.csv", workdir / "t2.csv"
    with redirect_stdout(io.StringIO()):
        cmd_search(str(cfg_path), str(g1))
        cmd_search(str(cfg_path), str(g2))
        cmd_simulate(str(cfg_path), str(g1), str(c1), str(workdir / "p1.gp"))
        cmd_simulate(str(cfg_path), str(g1), str(c2), str(workdir / "p2.gp"))
    gains_same = g1.read_bytes() == g2.read_bytes()
    csv_same = c1.read_bytes() == c2.read_bytes()
    ok = gains_same and csv_same
    return _result("determinism", ok,
                   f"gains byte-identical: {gains_same}, "
                   f"trajectories byte-identical: {csv_same}")


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_all(workdir=None) -> list[CriterionResult]:
    """Execute every criterion; results in declaration order."""
    if workdir is None:
        workdir = Path(tempfile.mkdtemp(prefix="nosreg-accept-"))
    else:
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
    return [
        check_sylvester_reproduction(),
        check_gain_reproduction(),
        check_modal_coefficients(),
        check_pole_placement(),
        check_end_to_end_nonovershoot(),
        check_certificate_soundness_sweep(),
        check_quadrant_rule(),
        check_cubic_consistency(),
        check_search_performance(workdir),
        check_determinism(workdir),
    ]
