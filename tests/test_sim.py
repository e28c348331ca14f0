import dataclasses
import functools
import hashlib
import math
import operator
import shutil
import struct
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nosreg import _inline, _native, sim
from nosreg.acceptance import BANDS_MEDIUM
from nosreg.chains import (Exosystem, NonlinearPlant, assemble_mimo, chain_plant,
                           make_chain, split_state)
from nosreg.cli import main
from nosreg.errors import DimensionMismatch, NonFiniteState
from nosreg.modal import PoleSet, modal_coeffs, natural_response
from nosreg.plants import REFERENCE_X0, benchmark_plant
from nosreg.polesearch import SearchSpec, search
from nosreg.regulation import nominal_ic, solve_sylvester, synthesize
from nosreg.sim import (SimConfig, Trajectory, detect_overshoot, simulate_nonlinear,
                        write_csv)
from reference import rk4_step

ROOT = Path(__file__).resolve().parents[1]
HAVE_CC = shutil.which("cc") is not None
ROTATION = Exosystem(S=[[0.0, 1.0], [-1.0, 0.0]], H=[[1.0, 0.0]], w0=[1.0, 0.0])
SLOW_POLES = PoleSet((-4.847, -4.017, -2.432, -0.1032))
XI0 = np.array([0.0, 2.0, -5.0, 4.0])

# two channels, degrees (2, 3): channel 1 tracks cos t, channel 2 tracks -sin t
ROTATION2 = Exosystem(S=ROTATION.S, H=np.eye(2), w0=[1.0, 0.0])
MIMO_POLES = (PoleSet((-3.0, -1.0)), PoleSet((-4.0, -2.0, -0.5)))
MIMO_XI0 = np.array([2.0, 0.5, 0.8, -0.7, 0.1])


def _benchmark_gains(poles=SLOW_POLES):
    return synthesize(assemble_mimo([4]), ROTATION, XI0, [poles])


class TestRK4Step:
    def test_zero_derivative_is_identity(self):
        z = (1.0, -2.0, 3.0)
        assert rk4_step(lambda t, z: (0.0, 0.0, 0.0), 0.0, z, 0.1) == z

    def test_exponential_decay_single_step(self):
        z = rk4_step(lambda t, z: (-z[0],), 0.0, (1.0,), 0.1)
        assert z[0] == pytest.approx(0.9048375, abs=1e-12)
        assert z[0] == pytest.approx(math.exp(-0.1), abs=1e-7)

    def test_rotation_quarter_turn(self):
        S = np.array([[0.0, 1.0], [-1.0, 0.0]])
        h = 1e-3
        steps = int(math.pi / 2 / h)
        w = (1.0, 0.0)
        t = 0.0
        for _ in range(steps):
            w = rk4_step(lambda t, w: tuple(S @ w), t, w, h)
            t += h
        w = rk4_step(lambda t, w: tuple(S @ w), t, w, math.pi / 2 - t)
        np.testing.assert_allclose(w, [0.0, -1.0], atol=1e-9)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(DimensionMismatch):
            SimConfig(step=0.0)

    def test_nonfinite_state_reported_with_time(self):
        # dynamics that overflow to inf on the first step: the loop must stop
        # there and report the time of the step that left the finite range
        def dynamics(x, u):
            return (x[0] * 1e308 * 10.0,)

        plant = NonlinearPlant(state_dim=1, degrees=(1,),
                               dynamics=dynamics, output=lambda x: (x[0],),
                               normal_map=lambda x: x,
                               linearizing_feedback=lambda x, v: v)
        exo = Exosystem(S=[[0.0]], H=[[1.0]], w0=[0.0])
        cfg = SimConfig(step=0.5, horizon=2.0)
        with pytest.raises(NonFiniteState) as exc:
            simulate_nonlinear(plant, exo, None, (1.0,), cfg)
        assert exc.value.t == cfg.step


class TestSimulateLinear:
    def test_on_manifold_start_has_zero_error(self):
        gains = _benchmark_gains()
        Pi = gains.subsystems[0].Pi
        xi0 = Pi @ ROTATION.w0
        traj, report = simulate_nonlinear(chain_plant([4]), ROTATION, gains, xi0,
                                          SimConfig(horizon=5.0))
        assert np.max(np.abs(traj.e)) <= 1e-9
        assert not report.any_overshoot

    def test_quiescent_everything_stays_zero(self):
        exo = Exosystem(S=[[0.0, 1.0], [-1.0, 0.0]], H=[[1.0, 0.0]], w0=[0.0, 0.0])
        gains = _benchmark_gains()
        traj, _ = simulate_nonlinear(chain_plant([4]), exo, gains, np.zeros(4),
                                     SimConfig(horizon=2.0))
        assert np.max(np.abs(traj.x)) == 0.0
        assert np.max(np.abs(traj.e)) == 0.0
        assert np.max(np.abs(traj.u)) == 0.0

    def test_error_matches_modal_response_oracle(self):
        # e_j(t) = -(natural response of channel j's own offset) in closed form
        for degrees, exo, xi0, poles, e0 in (
                ((4,), ROTATION, XI0, (SLOW_POLES,), (1.0,)),
                ((2, 3), ROTATION2, MIMO_XI0, MIMO_POLES, (-1.0, -0.8))):
            gains = synthesize(assemble_mimo(degrees), exo, xi0, poles)
            traj, report = simulate_nonlinear(chain_plant(degrees), exo, gains, xi0,
                                              SimConfig(horizon=10.0))
            np.testing.assert_allclose(traj.e[0], e0, rtol=0.0, atol=1e-12)
            for j, xi0_j in enumerate(split_state(xi0, degrees)):
                xt0 = xi0_j - gains.subsystems[j].Pi @ exo.w0
                ref = -natural_response(modal_coeffs(poles[j], xt0), traj.times)
                assert np.max(np.abs(traj.e[:, j] - ref)) <= 1e-6
                assert abs(traj.e[-1, j]) < 0.1
            assert not report.any_overshoot

    def test_uniform_grid_spacing(self):
        traj, _ = simulate_nonlinear(chain_plant([4]), ROTATION, _benchmark_gains(),
                                     XI0, SimConfig(step=1e-3, horizon=1.0,
                                                    record_stride=10))
        np.testing.assert_allclose(np.diff(traj.times), 1e-2, atol=1e-12)
        assert traj.e.shape == (101, 1)
        np.testing.assert_allclose(traj.e, traj.r - traj.y, atol=0.0)

    def test_records_align_with_their_states(self):
        # every recorded sample's outputs come from that sample's state:
        # v = F xi + G w, r = H w, and y is each block's first state
        gains = synthesize(assemble_mimo((2, 3)), ROTATION2, MIMO_XI0, MIMO_POLES)
        traj, _ = simulate_nonlinear(chain_plant((2, 3)), ROTATION2, gains, MIMO_XI0,
                                     SimConfig(horizon=2.0, record_stride=7))
        assert traj.times.size == 2000 // 7 + 2
        np.testing.assert_allclose(traj.v, traj.x @ gains.F.T + traj.w @ gains.G.T,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(traj.r, traj.w @ ROTATION2.H.T)
        np.testing.assert_array_equal(traj.y, traj.x[:, [0, 2]])
        np.testing.assert_array_equal(traj.u, traj.v)


class TestSimulateNonlinear:
    def test_horizon_off_the_stride_is_the_last_sample(self):
        # 100 steps at stride 7: every 7th state is kept, then the horizon's
        run = functools.partial(simulate_nonlinear, benchmark_plant(), ROTATION,
                                _benchmark_gains(), REFERENCE_X0)
        traj, report = run(SimConfig(step=0.01, horizon=1.0, record_stride=7))
        every, every_report = run(SimConfig(step=0.01, horizon=1.0, record_stride=1))
        assert traj.times.size == 100 // 7 + 2
        assert traj.times[-1] == 1.0
        np.testing.assert_array_equal(traj.x[-1], every.x[-1])
        assert report.final_abs_error == every_report.final_abs_error == (abs(traj.e[-1, 0]),)

    def test_loop_runs_on_python_floats(self):
        # numpy scalars in the state give the same numbers, but every step
        # then runs numpy scalar arithmetic, far slower than float arithmetic
        def dynamics(x, u):
            assert type(x[0]) is float and type(u[0]) is float
            return (u[0],)

        plant = NonlinearPlant(state_dim=1, degrees=(1,),
                               dynamics=dynamics, output=lambda x: (x[0],),
                               normal_map=lambda x: x,
                               linearizing_feedback=lambda x, v: v)
        exo = Exosystem(S=[[0.0]], H=[[1.0]], w0=[1.0])
        traj, _ = simulate_nonlinear(plant, exo, None, np.array([0.5]),
                                     SimConfig(step=0.1, horizon=1.0, record_stride=1))
        assert traj.x.shape == (11, 1)

    def test_error_has_no_sign_change_on_benchmark(self):
        traj, report = simulate_nonlinear(benchmark_plant(), ROTATION,
                                          _benchmark_gains(), REFERENCE_X0)
        assert not report.any_overshoot
        assert traj.e[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert abs(traj.e[-1, 0]) < 1e-2

    def test_matches_linear_normal_form_closely(self):
        plant = benchmark_plant()
        gains = _benchmark_gains()
        cfg = SimConfig(horizon=10.0)
        traj_nl, _ = simulate_nonlinear(plant, ROTATION, gains, REFERENCE_X0, cfg)
        traj_lin, _ = simulate_nonlinear(chain_plant([4]), ROTATION, gains,
                                         plant.normal_map(REFERENCE_X0), cfg)
        assert np.max(np.abs(traj_nl.y - traj_lin.y)) <= 1e-5

    def test_step_halving_changes_nothing_measurable(self):
        plant = benchmark_plant()
        gains = _benchmark_gains()
        a, _ = simulate_nonlinear(plant, ROTATION, gains, REFERENCE_X0,
                                  SimConfig(step=1e-3, horizon=4.0, record_stride=10))
        b, _ = simulate_nonlinear(plant, ROTATION, gains, REFERENCE_X0,
                                  SimConfig(step=5e-4, horizon=4.0, record_stride=20))
        np.testing.assert_array_equal(a.times, b.times)
        assert np.max(np.abs(a.y - b.y)) <= 1e-7

    def test_unforced_rest_stays_at_rest(self):
        # no gains, quiescent exosystem, zero state: identically zero run
        exo = Exosystem(S=[[0.0, 1.0], [-1.0, 0.0]], H=[[1.0, 0.0]], w0=[0.0, 0.0])
        traj, report = simulate_nonlinear(benchmark_plant(), exo, None,
                                          np.zeros(4), SimConfig(horizon=2.0))
        assert np.max(np.abs(traj.x)) == 0.0
        assert np.max(np.abs(traj.u)) == 0.0
        assert np.max(np.abs(traj.e)) == 0.0
        assert not report.any_overshoot

    def test_open_loop_input_is_pure_cancellation(self):
        # gains=None forces v = 0, so u must equal the drift cancellation term
        plant = benchmark_plant()
        traj, _ = simulate_nonlinear(plant, ROTATION, None, REFERENCE_X0,
                                     SimConfig(horizon=1.0))
        for k in range(0, len(traj.times), 10):
            x = traj.x[k]
            u_expected = plant.linearizing_feedback(x, (0.0,))[0]
            assert traj.u[k, 0] == pytest.approx(u_expected, rel=1e-12)
        assert np.max(np.abs(traj.v)) == 0.0

    def test_unstable_gains_escape_is_caught(self):
        # positive pole: the planted loop has finite escape, caught as non-finite
        from nosreg.regulation import RegulatorGains

        bad = _benchmark_gains()
        F_bad = np.abs(bad.F)      # positive feedback: destabilizes the chain
        broken = RegulatorGains(subsystems=bad.subsystems, F=F_bad, G=bad.G)
        with pytest.raises(NonFiniteState) as exc:
            simulate_nonlinear(benchmark_plant(), ROTATION, broken, REFERENCE_X0)
        assert 0.0 < exc.value.t <= 40.0

    def test_faster_designs_converge_faster(self):
        # dominant poles -0.1032 vs -2.73 vs -3.67: |e(2)| must rank accordingly
        errors_at_2 = []
        for poles in ((-4.847, -4.017, -2.432, -0.1032),
                      (-10.91, -6.55, -3.61, -2.73),
                      (-15.79, -10.20, -4.63, -3.67)):
            gains = _benchmark_gains(PoleSet(poles))
            traj, _ = simulate_nonlinear(benchmark_plant(), ROTATION, gains,
                                         REFERENCE_X0, SimConfig(horizon=2.0))
            errors_at_2.append(abs(traj.e[-1, 0]))
        assert errors_at_2[2] < errors_at_2[1] < errors_at_2[0]

    def test_coarse_step_breaks_the_guarantee(self):
        # at step 0.5 the fastest design leaves the RK4 stability region, so
        # the nonovershoot checks are demonstrably live, not vacuous
        fast = synthesize(assemble_mimo([4]), ROTATION, XI0,
                          [PoleSet((-15.79, -10.20, -4.63, -3.67))])
        with pytest.raises(NonFiniteState):
            simulate_nonlinear(benchmark_plant(), ROTATION, fast, REFERENCE_X0,
                               SimConfig(step=0.5, horizon=40.0, record_stride=1))


def _reference_run(plant, exo, gains, x0, cfg):
    """The per-step loop the compiled blocks replaced: ``rk4_step`` on every
    step with a finiteness check, then a record pass over the kept states:
    every ``record_stride``-th and the horizon's."""
    n, h = plant.state_dim, cfg.step
    K = (np.zeros((plant.input_dim, sum(plant.degrees) + exo.dim)) if gains is None
         else np.hstack([gains.F, gains.G])).tolist()
    S, H = exo.S.tolist(), exo.H.tolist()

    def matvec(rows, vec):
        return tuple(functools.reduce(operator.add, map(operator.mul, row, vec), 0)
                     for row in rows)

    def deriv(t, z):
        x, w = z[:n], z[n:]
        v = matvec(K, tuple(plant.normal_map(x)) + w)
        return tuple(plant.dynamics(x, plant.linearizing_feedback(x, v))) + matvec(S, w)

    z = tuple(np.asarray(x0, dtype=float).tolist() + exo.w0.tolist())
    times, states, rows = [0.0], [z], []
    steps = int(round(cfg.horizon / h))
    try:
        for k in range(steps):
            t = (k + 1) * h
            z = rk4_step(deriv, t, z, h)
            if not all(map(math.isfinite, z)):
                raise NonFiniteState(t)
            if (k + 1) % cfg.record_stride == 0 or k + 1 == steps:
                times.append(t)
                states.append(z)
        for t, z in zip(times, states):
            x, w = z[:n], z[n:]
            v = matvec(K, tuple(plant.normal_map(x)) + w)
            u = tuple(plant.linearizing_feedback(x, v))
            y, r = tuple(plant.output(x)), matvec(H, w)
            rows.append(y + r + tuple(ri - yi for ri, yi in zip(r, y)) + u + v)
    except OverflowError as exc:
        raise NonFiniteState(t) from exc
    traj = Trajectory(np.array(times), *np.hsplit(np.array(states), [n]),
                      *np.hsplit(np.array(rows), 5))
    return traj, detect_overshoot(traj.times, traj.e, cfg.zero_band)


def _outcome(simulate, plant, exo, gains, x0, cfg):
    """Every output byte of a run, or the error it raised with its time and cause."""
    try:
        traj, report = simulate(plant, exo, gains, x0, cfg)
    except Exception as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "t", None),
                type(exc.__cause__).__name__)
    return (*(getattr(traj, f.name).tobytes() for f in dataclasses.fields(Trajectory)),
            repr(report))


def _searched_benchmark_run():
    Pi, _ = solve_sylvester(make_chain(4), ROTATION, ROTATION.H)
    poles, _, _ = search(SearchSpec(BANDS_MEDIUM, seed=7), nominal_ic(XI0, Pi, ROTATION.w0))
    return (benchmark_plant(), ROTATION, _benchmark_gains(poles), REFERENCE_X0,
            SimConfig(horizon=10.0))


def _mimo_stride_7_run():
    gains = synthesize(assemble_mimo((2, 3)), ROTATION2, MIMO_XI0, MIMO_POLES)
    return (chain_plant((2, 3)), ROTATION2, gains, MIMO_XI0,
            SimConfig(horizon=10.0, record_stride=7))


def _no_gains_run():
    # every chain coordinate and exosystem state negative at the start, so
    # each product in v is -0.0 and only the fold's leading 0 makes v +0.0
    exo = Exosystem(S=ROTATION.S, H=np.eye(2), w0=[-1.0, -0.5])
    return (chain_plant((2, 3)), exo, None, -np.abs(MIMO_XI0) - 0.1,
            SimConfig(horizon=1.0, record_stride=1))


def _stride_1_run():
    return (benchmark_plant(), ROTATION, _benchmark_gains(), REFERENCE_X0,
            SimConfig(horizon=1.0, record_stride=1))


def _short_run():
    # 5 steps, fewer than one stride: one short block, kept at 0 and the horizon
    return (benchmark_plant(), ROTATION, _benchmark_gains(), REFERENCE_X0,
            SimConfig(horizon=0.005, record_stride=10))


def _escape_run(square, normal_map=lambda x: x):
    # x' = x^2 from x = 1 escapes at t = 1; on this grid step 103, the 5th
    # step of a 7-step block, is the first to leave the finite range
    plant = NonlinearPlant(state_dim=1, degrees=(1,),
                           dynamics=lambda x, u: (square(x[0]) + u[0],),
                           output=lambda x: (x[0],), normal_map=normal_map,
                           linearizing_feedback=lambda x, v: v)
    return (plant, Exosystem(S=[[0.0]], H=[[1.0]], w0=[0.0]), None, (1.0,),
            SimConfig(step=0.01, horizon=2.0, record_stride=7))


def _blow_up_run():
    return _escape_run(lambda x: x * x)          # reaches inf


def _overflow_run():
    return _escape_run(lambda x: x ** 2.0)       # raises OverflowError first


def _plant_error_run():
    def normal_map(x):
        if abs(x[0]) > 1e6:
            raise ValueError(f"chain map undefined at {x[0]!r}")
        return x

    return _escape_run(lambda x: x * x, normal_map)


class TestCompiledStep:
    """The compiled blocks against the per-step ``rk4_step`` loop they replaced."""

    @pytest.mark.parametrize("run", [_searched_benchmark_run, _mimo_stride_7_run,
                                     _no_gains_run, _stride_1_run, _short_run,
                                     _blow_up_run, _overflow_run, _plant_error_run],
                             ids=["benchmark-searched", "mimo-stride-7", "no-gains",
                                  "stride-1", "fewer-steps-than-stride",
                                  "blow-up-mid-block", "overflow-mid-block",
                                  "plant-error-mid-block"])
    def test_byte_identical_to_rk4_step_loop(self, run):
        plant, exo, gains, x0, cfg = run()
        negative_v, inner = [], plant.linearizing_feedback

        def feedback(x, v):
            negative_v.extend(np.signbit(v).tolist())
            return inner(x, v)

        plant = dataclasses.replace(plant, linearizing_feedback=feedback)
        outcome = _outcome(simulate_nonlinear, plant, exo, gains, x0, cfg)
        compiled_negative_v = any(negative_v)
        assert outcome == _outcome(_reference_run, plant, exo, gains, x0, cfg)
        if run in (_blow_up_run, _overflow_run):
            # the fault lies inside a block, and only the overflow has a cause
            assert outcome[0] == "NonFiniteState"
            assert round(outcome[2] / cfg.step) % cfg.record_stride not in (0, 1)
            assert outcome[3] == ("OverflowError" if run is _overflow_run else "NoneType")
        elif run is _plant_error_run:
            assert outcome[0] == "ValueError"
        elif gains is None:
            # a -0.0 in v would print as -0 in the CSV
            assert not compiled_negative_v
            assert not np.signbit(np.frombuffer(outcome[7])).any()      # the v field

    def test_output_fault_is_reported_when_reached(self):
        # x' = 1: output overflows from the kept state t = 0.56 on, the state
        # reaches inf only past t = 1.5; the first fault in time is reported
        def output(x):
            return (x[0] * 10.0 ** (400.0 if x[0] > 0.5 else 0.0),)

        plant = NonlinearPlant(state_dim=1, degrees=(1,),
                               dynamics=lambda x, u: (math.inf if x[0] > 1.5 else 1.0,),
                               output=output, normal_map=lambda x: x,
                               linearizing_feedback=lambda x, v: v)
        with pytest.raises(NonFiniteState) as exc:
            simulate_nonlinear(plant, Exosystem(S=[[0.0]], H=[[1.0]], w0=[0.0]), None,
                               (0.0,), SimConfig(step=0.01, horizon=2.0, record_stride=7))
        assert exc.value.t == 56 * 0.01
        assert isinstance(exc.value.__cause__, OverflowError)

    def test_nondeterministic_plant_is_reported(self):
        # a block that fails and then replays cleanly has no step to blame
        calls = Counter()

        def dynamics(x, u):
            float(x[0])            # refuses the recording numbers, so the loop calls it
            calls["dynamics"] += 1
            if calls["dynamics"] == 5:
                raise ValueError("fails once")
            return (u[0],)

        plant = NonlinearPlant(state_dim=1, degrees=(1,), dynamics=dynamics,
                               output=lambda x: (x[0],), normal_map=lambda x: x,
                               linearizing_feedback=lambda x, v: v)
        with pytest.raises(RuntimeError, match="not deterministic"):
            simulate_nonlinear(plant, Exosystem(S=[[0.0]], H=[[1.0]], w0=[0.0]), None,
                               (1.0,), SimConfig(step=0.1, horizon=1.0))

    def test_plant_call_pattern(self):
        # the tracer's plants.*.calls count these: four derivatives per step,
        # each normal_map -> feedback -> dynamics; a kept sample's v and u
        # come from the first derivative of the step after it, so only the
        # last kept sample costs one more chain map and feedback
        log = []

        def counted(name, fn):
            def wrapper(*args):
                float(args[0][0])      # refuses the recording numbers, so the loop calls it
                log.append(name)
                return fn(*args)
            return wrapper

        plant = benchmark_plant()
        plant = dataclasses.replace(plant, **{
            name: counted(name, getattr(plant, name))
            for name in ("dynamics", "normal_map", "linearizing_feedback")})
        traj, _ = simulate_nonlinear(plant, ROTATION, _benchmark_gains(), REFERENCE_X0,
                                     SimConfig(horizon=0.5, record_stride=10))
        steps, kept = 500, traj.times.size
        assert kept == 51
        assert Counter(log) == {"dynamics": 4 * steps,
                                "normal_map": 4 * steps + 1,
                                "linearizing_feedback": 4 * steps + 1}
        assert log[:12] == ["normal_map", "linearizing_feedback", "dynamics"] * 4

    def test_source_depends_on_shape_only(self):
        rng = np.random.default_rng(3)
        plant = chain_plant((2, 3))
        steppers, values = [], set()
        for _ in range(2):
            gains = rng.uniform(-5.0, 5.0, size=(2, 7))
            exo = Exosystem(S=rng.uniform(-2.0, 2.0, size=(2, 2)), H=np.eye(2), w0=[1.0, 0.0])
            h = float(rng.uniform(1e-4, 1e-2))
            steppers.append(sim._rk4_stepper(plant, sim._rows(gains), sim._rows(exo.S),
                                             sim._rows(exo.H), h)[0])
            values |= set(gains.ravel().tolist()) | set(exo.S.ravel().tolist())
            values |= {h, 0.5 * h, h / 6.0}
        a, b = steppers
        assert a.__code__.co_code == b.__code__.co_code
        # the values live in closure cells, never in the compiled source
        assert set(gains.ravel().tolist()) <= {c.cell_contents for c in b.__closure__}
        codes, consts = [_inline.step_factory(5, 2, 5, 2).__code__], []
        while codes:
            code = codes.pop()
            codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            consts += [c for c in code.co_consts if not isinstance(c, types.CodeType)]
        assert values.isdisjoint(consts)

    def test_advance_reads_only_locals_and_cells(self):
        # every value the loop uses is an argument, a local or a closure
        # cell; a global or builtin lookup per step would cost a dict probe
        advance, _ = sim._rk4_stepper(benchmark_plant(), sim._gain_rows(None, 1, 4, 2),
                                      sim._rows(ROTATION.S), sim._rows(ROTATION.H), 1e-3)
        assert advance.__code__.co_names == ("range",)


# straight-line module-level maps of x' = x^2 + u, which escapes from x = 1:
# the loop splices their bodies in, unless they are wrapped to be called
def _square_dynamics(x, u):
    x1, = x
    return (x1 * x1 + u[0],)


def _power_dynamics(x, u):
    # 10.0 ** (x1 - 400.0) is 0.0 near x1 = 1 and overflows past x1 = 708
    x1, = x
    return (x1 * x1 + 10.0 ** (x1 - 400.0) + u[0],)


def _first(x):
    return (x[0],)


def _pass_v(x, v):
    """u = v."""
    (v1,) = v
    return (v1,)


def _sin_output(x):
    return (math.sin(x[0]),)


def _late_output(x):
    y1 = y0 + 0.0      # y0 is bound only on the next line, so a call raises
    y0 = x[0]
    return (y1,)


PLANT_MAPS = ("normal_map", "linearizing_feedback", "dynamics", "output")


def _straight_escape_run(dynamics):
    plant = NonlinearPlant(state_dim=1, degrees=(1,), dynamics=dynamics, output=_first,
                           normal_map=_first, linearizing_feedback=_pass_v)
    return (plant, Exosystem(S=[[0.0]], H=[[1.0]], w0=[0.0]), None, (1.0,),
            SimConfig(step=0.01, horizon=2.0, record_stride=7))


def _called(fn):
    # float() refuses a recording number, so the loop calls this instead of splicing it
    def call(*args):
        float(args[0][0])
        return fn(*args)
    return call


def _forced_call(plant):
    return dataclasses.replace(plant, **{name: _called(getattr(plant, name))
                                         for name in PLANT_MAPS})


def _called_maps(plant, exo):
    """The plant maps the compiled loop holds as closure cells, to call them."""
    advance, _ = sim._rk4_stepper(plant, sim._gain_rows(None, plant.input_dim,
                                                        sum(plant.degrees), exo.dim),
                                  sim._rows(exo.S), sim._rows(exo.H), 1e-3)
    cells = [cell.cell_contents for cell in advance.__closure__]
    return {name for name in PLANT_MAPS if any(c is getattr(plant, name) for c in cells)}


class TestSplicedMaps:
    """Straight-line plant maps compiled into the loop against the same maps called."""

    def test_builtin_plant_maps_are_compiled_in(self):
        plant = benchmark_plant()
        assert _called_maps(plant, ROTATION) == set()
        assert _called_maps(_forced_call(plant), ROTATION) == set(PLANT_MAPS)
        advance, _ = sim._rk4_stepper(plant, sim._gain_rows(None, 1, 4, 2),
                                      sim._rows(ROTATION.S), sim._rows(ROTATION.H), 1e-3)
        assert advance.__code__.co_names == ("range",)

    def test_spliced_and_called_runs_are_byte_identical(self):
        plant, exo, gains, x0, cfg = _searched_benchmark_run()
        assert _called_maps(plant, exo) == set()
        spliced = _outcome(simulate_nonlinear, plant, exo, gains, x0, cfg)
        assert isinstance(spliced[0], bytes)          # the run completed
        assert spliced == _outcome(simulate_nonlinear, _forced_call(plant), exo, gains, x0, cfg)

    @pytest.mark.parametrize("dynamics, cause", [(_square_dynamics, "NoneType"),
                                                 (_power_dynamics, "OverflowError")],
                             ids=["blow-up-mid-block", "overflow-mid-block"])
    def test_faults_match_the_called_maps(self, dynamics, cause):
        plant, exo, gains, x0, cfg = _straight_escape_run(dynamics)
        assert _called_maps(plant, exo) == set()
        outcome = _outcome(simulate_nonlinear, plant, exo, gains, x0, cfg)
        assert outcome == _outcome(simulate_nonlinear, _forced_call(plant), exo, gains, x0, cfg)
        assert outcome[0] == "NonFiniteState" and outcome[3] == cause
        assert round(outcome[2] / cfg.step) % cfg.record_stride not in (0, 1)

    def test_map_reading_a_global_is_called(self):
        plant, exo, *_ = _straight_escape_run(_square_dynamics)
        plant = dataclasses.replace(plant, output=_sin_output)
        assert _called_maps(plant, exo) == {"output"}

    def test_map_reading_a_local_before_binding_it_is_called(self):
        plant, exo, gains, x0, cfg = _straight_escape_run(_square_dynamics)
        plant = dataclasses.replace(plant, output=_late_output)
        assert _called_maps(plant, exo) == {"output"}
        outcome = _outcome(simulate_nonlinear, plant, exo, gains, x0, cfg)
        assert outcome[0] == "UnboundLocalError" and "'y0'" in outcome[1]

    def test_map_whose_source_file_changed_is_called(self, tmp_path):
        # a map is judged by what it computes, not by its file: one exec'd
        # from a file is spliced in whether the file still holds its source,
        # other code, or code that no longer parses
        maps = []
        for name, later in (("kept", "x[0],)"), ("rewritten", "-x[0],)"), ("broken", "x[0],")):
            source = f"def {name}(x):\n    return (x[0],)\n"
            path = tmp_path / f"{name}.py"
            path.write_text(source)
            namespace = {}
            exec(compile(source, str(path), "exec"), namespace)
            path.write_text(source.replace("x[0],)", later))
            maps.append(namespace[name])
        plant, exo, *_ = _straight_escape_run(_square_dynamics)
        for fn in maps:
            assert _called_maps(dataclasses.replace(plant, output=fn), exo) == set()

    def test_linear_form_maps_are_spliced(self):
        # chain_plant's closures are spliced in, and the run keeps the called maps' bytes
        plant, exo, gains, x0, cfg = _mimo_stride_7_run()
        assert _called_maps(plant, exo) == set()
        advance, _ = sim._rk4_stepper(plant, sim._gain_rows(None, 2, 5, 2),
                                      sim._rows(exo.S), sim._rows(exo.H), 1e-3)
        assert advance.__code__.co_names == ("range",)
        spliced = _outcome(simulate_nonlinear, plant, exo, gains, x0, cfg)
        assert isinstance(spliced[0], bytes)          # the run completed
        assert spliced == _outcome(simulate_nonlinear, _forced_call(plant), exo, gains, x0, cfg)

    @pytest.mark.parametrize("name", PLANT_MAPS)
    def test_map_of_the_wrong_length_names_itself(self, name):
        plant, exo, gains, x0, cfg = _straight_escape_run(_square_dynamics)
        plant = dataclasses.replace(plant, **{name: lambda x, *_: (x[0], x[0])})
        with pytest.raises(DimensionMismatch,
                           match=f"plant map {name} returned 2 items, expected 1"):
            simulate_nonlinear(plant, exo, gains, x0, cfg)


def _scaled(scale):
    def output(x):
        return (scale * x[0],)
    return output


# random straight-line maps of two arguments: each step appends a value
# computed from constants and earlier values, the latest most often
_CONSTANTS = (0, 1, 2, -3, 0.0, -0.0, 0.5, -1.5, 3.0, 1e300, 1e-300)
_OPERANDS = st.one_of(st.integers(0, 99), st.sampled_from(_CONSTANTS).map(lambda c: (c,)))
# zeros and huge values make divisions and powers raise
_INPUTS = st.one_of(st.sampled_from((0.0, -0.0, 1e300, -2.5, math.inf, math.nan)), st.floats())
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _steps(exponents):
    return st.lists(st.one_of(st.tuples(st.sampled_from(sorted(_BINARY)), _OPERANDS, _OPERANDS),
                              st.tuples(st.just("**"), _OPERANDS, exponents),
                              st.tuples(st.just("neg"), _OPERANDS, st.just(0))),
                    max_size=12)


_PROGRAMS = st.tuples(_steps(st.integers(-3, 4)), st.lists(_OPERANDS, min_size=1, max_size=3))


def _run_program(program, x, y):
    steps, returns = program
    values = [*x, *y]

    def value(a):
        # a tuple holds a constant; an int counts back from the latest value
        return a[0] if type(a) is tuple else values[-1 - a % len(values)]

    for symbol, a, b in steps:
        a = value(a)
        values.append(-a if symbol == "neg" else a ** b if symbol == "**"
                      else _BINARY[symbol](a, value(b)))
    return tuple(map(value, returns))


def _bits(fn, *args):
    """Each returned item's type and bits, or the type of the arithmetic error raised."""
    try:
        return [(type(r), struct.pack("<d", r) if type(r) is float else r) for r in fn(*args)]
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc)


class TestRecorder:
    """What the recorder splices in, what it leaves to be called, and that splicing keeps bits."""

    @pytest.mark.parametrize("output", [
        lambda x: tuple(np.array([[1.0]]) @ x),
        lambda x: (math.sin(x[0]),),
        lambda x: (x[0] if x[0] > 0.0 else -x[0],),
        lambda x: (abs(x[0]),),
        lambda x: (x[0] // 2.0,),
        lambda x: (x[0] * np.float64(2.0),),
        lambda x: (x[0] + math.inf,),
    ], ids=["numpy-matmul", "math-sin", "branch", "abs", "floordiv", "numpy-constant",
            "infinite-constant"])
    def test_map_refusing_a_recording_number_is_called(self, output):
        plant, exo, *_ = _straight_escape_run(_square_dynamics)
        assert _called_maps(dataclasses.replace(plant, output=output), exo) == {"output"}

    @pytest.mark.parametrize("output", [
        lambda x: (x[0] * 2.0,),
        _scaled(3.0),
        lambda x: (10.0 ** (x[0] - 400.0),),
        lambda x: (sum([x[0]] * 500),),
    ], ids=["lambda", "closure", "power-of-ten", "500-term-sum"])
    def test_arithmetic_map_is_spliced(self, output):
        plant, exo, gains, x0, cfg = _straight_escape_run(_square_dynamics)
        plant = dataclasses.replace(plant, output=output)
        assert _called_maps(plant, exo) == set()
        cfg = dataclasses.replace(cfg, horizon=0.5)       # x runs from 1 to 2, short of escape
        outcome = _outcome(simulate_nonlinear, plant, exo, gains, x0, cfg)
        assert isinstance(outcome[0], bytes)              # the run completed
        assert outcome == _outcome(simulate_nonlinear, _forced_call(plant), exo, gains, x0, cfg)

    @given(_PROGRAMS, st.tuples(_INPUTS, _INPUTS), st.tuples(_INPUTS))
    # x0 / 0 raises before x1 ** 4 overflows, though their sum reads them the other way
    @example(([("/", 2, (0,)), ("**", 2, 4), ("+", 0, 1)], [0]), (1.0, 1e300), (0.0,))
    # 3.0 - x0 and 1 / x1 record their reflected operands
    @example(([("-", (3.0,), 2), ("/", (1,), 2)], [0, 1]), (0.5, 2.0), (0.0,))
    def test_spliced_arithmetic_has_the_called_bits_and_errors(self, program, x, y):
        length = len(program[1])
        record, constants = _inline.trace(functools.partial(_run_program, program), "map",
                                          (2, 1), length)
        # only arithmetic on constants alone can fail while recording
        assume(record is not None)
        results = [f"r{i}" for i in range(length)]
        names = [f"c{j}" for j in range(len(constants))]
        lines = _inline.splice(record, [["x0", "x1"], ["y0"], names], results, "map_")
        source = "\n    ".join([f"def spliced({', '.join(['x0', 'x1', 'y0', *names])}):",
                                  *lines, f"return ({''.join(f'{r}, ' for r in results)})"])
        namespace = {}
        exec(source, namespace)
        assert (_bits(namespace["spliced"], *x, *y, *constants)
                == _bits(_run_program, program, x, y))


def _native_kernels(monkeypatch):
    """Each native kernel the simulations build from now on, or None: the Python loop ran."""
    built, kernel = [], _native.kernel

    def spy(*args):
        built.append(kernel(*args))
        return built[-1]

    monkeypatch.setattr(_native, "kernel", spy)
    return built


def _python_loop(monkeypatch):
    """Run every simulation from now on on the Python loop alone."""
    monkeypatch.setattr(_native, "kernel", lambda *args: None)


def _native_and_python(monkeypatch, plant, exo, gains, x0, cfg):
    """A run's outcome on the native loop and on the Python loop alone, and the kernels built."""
    built = _native_kernels(monkeypatch)
    native = _outcome(simulate_nonlinear, plant, exo, gains, x0, cfg)
    _python_loop(monkeypatch)
    return native, _outcome(simulate_nonlinear, plant, exo, gains, x0, cfg), built


def _off_stride_run():
    # 100 steps at stride 7: the last block is 2 steps, then the horizon's state
    return (benchmark_plant(), ROTATION, _benchmark_gains(), REFERENCE_X0,
            SimConfig(step=0.01, horizon=1.0, record_stride=7))


def _exact_run(dynamics, output=_first, x0=0.5):
    # at step 1/8, x' = +-1 moves x by exactly 1/8 a step, and an RK4 stage by 1/16
    plant = NonlinearPlant(state_dim=1, degrees=(1,), dynamics=dynamics, output=output,
                           normal_map=_first, linearizing_feedback=_pass_v)
    return (plant, Exosystem(S=[[0.0]], H=[[1.0]], w0=[0.0]), None, (x0,),
            SimConfig(step=0.125, horizon=2.0, record_stride=3))


def _overflow_then_finite_run():
    # from x = 3/8 on, 1e300 * (x * 1e10) overflows to inf and the output is 0.0
    return _exact_run(lambda x, u: (u[0] + 1.0,),
                      output=lambda x: (x[0] / (1.0 + 1e300 * (x[0] * 1e10)),), x0=0.0)


def _power_overflow_then_finite_run():
    # from x = 3/8 on, 10.0 ** (x * 1e3) raises OverflowError, where C has inf and then 0.0
    return _exact_run(lambda x, u: (u[0] + 1.0,),
                      output=lambda x: (1.0 / 10.0 ** (x[0] * 1e3),), x0=0.0)


# in the next two, C's value is finite again after the faulting operation, so
# only the fault flags stop the native loop where Python raises

def _division_by_zero_run():
    # x falls from 1/2 and is exactly 0.0 at the last stage of step 4
    return _exact_run(lambda x, u: (u[0] - 1.0 + 0.0 * (1.0 / (1.0 / x[0])),))


def _negative_base_run():
    # x falls below 0.0 in step 5, and a negative float to a fractional power is complex
    return _exact_run(lambda x, u: (u[0] - 1.0 + 0.0 * (x[0] ** 0.5) ** 0,))


def _nonfinite_state_run():
    # test_nonfinite_state_reported_with_time's plant: inf at the first step
    plant = NonlinearPlant(state_dim=1, degrees=(1,),
                           dynamics=lambda x, u: (x[0] * 1e308 * 10.0,),
                           output=lambda x: (x[0],), normal_map=lambda x: x,
                           linearizing_feedback=lambda x, v: v)
    return (plant, Exosystem(S=[[0.0]], H=[[1.0]], w0=[0.0]), None, (1.0,),
            SimConfig(step=0.5, horizon=2.0))


# random maps x' = f(x, u) of a two-state plant, powers fractional too
_DYNAMICS = st.tuples(_steps(st.one_of(st.integers(-3, 4), st.sampled_from((0.5, -1.5)))),
                      st.lists(_OPERANDS, min_size=2, max_size=2))
_STARTS = st.lists(st.tuples(*[st.one_of(st.sampled_from((0.0, -0.0, 1e300, -2.5)),
                                         st.floats(allow_nan=False, allow_infinity=False))] * 2),
                   min_size=1, max_size=3)


class TestNativeLoop:
    """The C loop against the Python loop it is printed from: the same bytes, the same errors."""

    @pytest.mark.parametrize("run", [_searched_benchmark_run, _mimo_stride_7_run,
                                     _off_stride_run, _no_gains_run, _stride_1_run,
                                     _short_run],
                             ids=["benchmark-searched", "mimo-stride-7", "horizon-off-stride",
                                  "no-gains", "stride-1", "fewer-steps-than-stride"])
    def test_bytes_match_the_python_loop(self, monkeypatch, run):
        native, python, built = _native_and_python(monkeypatch, *run())
        assert isinstance(native[0], bytes)          # the run completed
        assert native == python
        assert [kernel is not None for kernel in built] == [HAVE_CC]

    @pytest.mark.parametrize("band", ["slow", "medium", "fast"])
    def test_bundled_search_and_simulate_match_the_python_loop(self, tmp_path, monkeypatch,
                                                               capsys, band):
        config = str(ROOT / "configs" / f"benchmark_search_{band}.json")

        def outputs(loop):
            folder = tmp_path / loop
            folder.mkdir()
            files = [folder / name for name in ("gains.json", "traj.csv", "traj.gp")]
            assert main(["search", "--config", config, "--out", str(files[0])]) == 0
            assert main(["simulate", "--config", config, "--gains", str(files[0]),
                         "--csv", str(files[1]), "--plot", str(files[2])]) == 0
            out = capsys.readouterr().out.replace(str(folder), "")
            return [f.read_bytes().replace(str(folder).encode(), b"") for f in files], out

        built = _native_kernels(monkeypatch)
        native = outputs("native")
        _python_loop(monkeypatch)
        assert native == outputs("python")
        assert [kernel is not None for kernel in built] == [HAVE_CC]

    @pytest.mark.parametrize("run, error", [
        (_overflow_then_finite_run, None),
        (_power_overflow_then_finite_run, ("NonFiniteState", 0.375)),
        (_division_by_zero_run, ("ZeroDivisionError", None)),
        (_negative_base_run, ("TypeError", None)),
        (_nonfinite_state_run, ("NonFiniteState", 0.5)),
    ], ids=["overflow-then-finite", "power-overflow-then-finite", "division-by-zero",
            "negative-base-fractional-power", "nonfinite-state-time"])
    def test_faults_match_the_python_loop(self, monkeypatch, run, error):
        native, python, built = _native_and_python(monkeypatch, *run())
        assert native == python
        assert [kernel is not None for kernel in built] == [HAVE_CC]
        if error is None:
            assert isinstance(native[0], bytes)      # the run completed
        else:
            assert (native[0], native[2]) == error

    def test_unread_division_keeps_the_python_loop(self, monkeypatch):
        # u = v / x is read by the sample but not by the dynamics, so C could
        # drop its division at the RK4 stages, where x is exactly 0.0 in step 4
        run = _exact_run(lambda x, u: (x[0] * 0.0 - 1.0,))
        plant = dataclasses.replace(run[0], linearizing_feedback=lambda x, v: (v[0] / x[0],))
        native, python, built = _native_and_python(monkeypatch, plant, *run[1:])
        assert native == python
        assert native[0] == "ZeroDivisionError"
        assert built == [None]

    def test_missing_compiler_gives_the_same_bytes(self, monkeypatch):
        run = _searched_benchmark_run()
        native = _outcome(simulate_nonlinear, *run)
        monkeypatch.setenv("PATH", "")
        monkeypatch.setattr(_native, "_build", functools.cache(_native._build.__wrapped__))
        built = _native_kernels(monkeypatch)
        assert _outcome(simulate_nonlinear, *run) == native
        assert built == [None]

    def test_plants_differing_in_a_constant_share_one_loop(self, monkeypatch):
        # each constant is a parameter, never source text: 200 plants y = c x
        # compile one Python loop and build one kernel, with the called map's bits
        for module, name in ((_inline, "step_factory"), (_native, "_source"),
                             (_native, "_build")):
            monkeypatch.setattr(module, name, functools.cache(getattr(module, name).__wrapped__))
        plant, exo, gains, x0, cfg = _straight_escape_run(_square_dynamics)
        cfg = dataclasses.replace(cfg, horizon=0.2)
        for c in (*np.linspace(-3.0, 3.0, 197).tolist(), -0.0, 3, 10 ** 20):
            traj, _ = simulate_nonlinear(dataclasses.replace(plant, output=_scaled(c)),
                                         exo, gains, x0, cfg)
            assert traj.y.tobytes() == np.array([c * x for x in traj.x[:, 0].tolist()]).tobytes()
        assert _inline.step_factory.cache_info().currsize == 1
        assert _native._source.cache_info().currsize == 1
        assert _native._build.cache_info().currsize == 1

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(_DYNAMICS, _STARTS)
    def test_random_maps_match_the_called_maps(self, program, starts):
        plant = NonlinearPlant(state_dim=2, degrees=(2,),
                               dynamics=lambda x, u: _run_program(program, x, u),
                               output=_first, normal_map=lambda x: (x[0], x[1]),
                               linearizing_feedback=_pass_v)
        exo, cfg = Exosystem(S=[[0.0]], H=[[1.0]], w0=[0.0]), SimConfig(step=0.01, horizon=0.2,
                                                                        record_stride=3)
        for x0 in starts:
            assert (_outcome(simulate_nonlinear, plant, exo, None, x0, cfg)
                    == _outcome(simulate_nonlinear, _forced_call(plant), exo, None, x0, cfg))


class TestBenchmarkPlant:
    def test_origin_is_equilibrium(self):
        plant = benchmark_plant()
        assert plant.output((0.0, 0.0, 0.0, 0.0)) == (0.0,)
        assert plant.dynamics((0.0, 0.0, 0.0, 0.0), (3.0,)) == (0.0, 0.0, 0.0, 3.0)

    def test_normal_map_first_component_is_output(self):
        plant = benchmark_plant()
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, size=4)
            assert plant.normal_map(x)[0] == plant.output(x)[0]

    def test_chain_coordinates_differentiate_into_each_other(self):
        # finite differences of T(x(t)) along the closed-loop flow must
        # reproduce the shift structure: d/dt xi_k = xi_{k+1}
        plant = benchmark_plant()
        gains = _benchmark_gains()
        cfg = SimConfig(step=1e-4, horizon=0.5, record_stride=1)
        traj, _ = simulate_nonlinear(plant, ROTATION, gains, REFERENCE_X0, cfg)
        xi = np.array([plant.normal_map(x) for x in traj.x])
        dt = cfg.step
        for k in range(3):
            fd = (xi[2:, k] - xi[:-2, k]) / (2.0 * dt)     # central differences
            mid = xi[1:-1, k + 1]
            scale = np.maximum(1.0, np.abs(mid))
            assert np.max(np.abs(fd - mid) / scale) <= 1e-6

    def test_last_chain_coordinate_derivative_is_v(self):
        plant = benchmark_plant()
        gains = _benchmark_gains()
        cfg = SimConfig(step=1e-4, horizon=0.5, record_stride=1)
        traj, _ = simulate_nonlinear(plant, ROTATION, gains, REFERENCE_X0, cfg)
        xi = np.array([plant.normal_map(x) for x in traj.x])
        fd = (xi[2:, 3] - xi[:-2, 3]) / (2.0 * cfg.step)
        v_mid = traj.v[1:-1, 0]
        scale = np.maximum(1.0, np.abs(v_mid))
        assert np.max(np.abs(fd - v_mid) / scale) <= 1e-5


class TestDetectOvershoot:
    def test_monotone_decay(self):
        rep = detect_overshoot([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.2, 0.05])
        assert rep.sign_changed == (False,)
        assert rep.first_crossing_time == (None,)
        assert rep.final_abs_error == (0.05,)

    def test_sign_change_located(self):
        rep = detect_overshoot([0.0, 1.0, 2.0], [1.0, 0.5, -0.1])
        assert rep.sign_changed == (True,)
        assert rep.first_crossing_time == (2.0,)

    def test_all_zero_never_leaves_band(self):
        rep = detect_overshoot([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        assert rep.sign_changed == (False,)
        assert rep.first_crossing_time == (None,)

    def test_band_suppresses_noise_crossings(self):
        rep = detect_overshoot([0.0, 1.0, 2.0], [1.0, 1e-12, -1e-12],
                               zero_band=1e-9)
        assert rep.sign_changed == (False,)

    def test_negative_going_initial_sign(self):
        rep = detect_overshoot([0.0, 1.0, 2.0, 3.0], [0.0, -0.5, -0.1, 0.2])
        assert rep.sign_changed == (True,)
        assert rep.first_crossing_time == (3.0,)

    def test_multiple_outputs_independent(self):
        e = np.array([[1.0, -1.0], [0.5, -0.5], [-0.2, -0.1]])
        rep = detect_overshoot([0.0, 1.0, 2.0], e)
        assert rep.sign_changed == (True, False)
        # columns leave the band at different samples, or never
        t = [0.0, 1.0, 2.0, 3.0]
        e = np.array([[0.0, 2.0, 1e-12, 0.0],
                      [0.0, 1.0, -1e-12, -3.0],
                      [0.5, 0.5, 0.0, 1.0],
                      [-0.1, 0.25, 0.0, 2.0]])
        rep = detect_overshoot(t, e)
        assert rep.sign_changed == (True, False, False, True)
        assert rep.first_crossing_time == (3.0, None, None, 2.0)
        assert rep.final_abs_error == (0.1, 0.25, 0.0, 2.0)

    @given(e=arrays(float, st.tuples(st.integers(1, 12), st.integers(1, 4)),
                    elements=st.sampled_from([-2.0, -1e-3, -1e-12, 0.0,
                                              1e-12, 1e-3, 0.5, 2.0])),
           zero_band=st.sampled_from([0.0, 1e-9, 1e-2]))
    def test_matches_per_column_reference(self, e, zero_band):
        # reference: the rule applied one column at a time; the arithmetic is
        # the same, so the verdicts must be equal
        t = np.arange(e.shape[0]) * 0.5
        changed, crossing = [], []
        for col in e.T:
            out = np.abs(col) > zero_band
            hit = None
            if out.any():
                s0 = 1.0 if col[int(np.argmax(out))] > 0 else -1.0
                flipped = out & (s0 * col < -zero_band)
                if flipped.any():
                    hit = float(t[int(np.argmax(flipped))])
            changed.append(hit is not None)
            crossing.append(hit)
        rep = detect_overshoot(t, e, zero_band)
        assert rep.sign_changed == tuple(changed)
        assert rep.first_crossing_time == tuple(crossing)
        assert rep.final_abs_error == tuple(float(abs(v)) for v in e[-1])


class TestCsvExport:
    def test_round_trip_full_precision(self, tmp_path):
        traj, _ = simulate_nonlinear(benchmark_plant(), ROTATION,
                                     _benchmark_gains(), REFERENCE_X0,
                                     SimConfig(horizon=1.0))
        path = tmp_path / "traj.csv"
        write_csv(traj, path)
        header = path.read_text().splitlines()[0]
        assert header == "t,x1,x2,x3,x4,w1,w2,y1,r1,e1,u1,v1"
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        np.testing.assert_array_equal(data[:, 0], traj.times)
        np.testing.assert_array_equal(data[:, 1:5], traj.x)
        np.testing.assert_array_equal(data[:, 9], traj.e[:, 0])

    def test_benchmark_bytes_are_pinned(self, tmp_path):
        # the bundled slow design's gains as literals, so the simulator and
        # write_csv alone decide these bytes; both run on Python floats, so
        # the digest is the same on every IEEE-754 host
        gains = types.SimpleNamespace(
            F=np.array([[-4.886727469977601, -51.58606353840001, -42.1933942, -11.3992]]),
            G=np.array([[-36.3066667300224, 40.18686353840001]]))
        traj, _ = simulate_nonlinear(benchmark_plant(), ROTATION, gains, REFERENCE_X0,
                                     SimConfig(horizon=40.0, record_stride=10))
        path = tmp_path / "traj.csv"
        write_csv(traj, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "ff6cc334fb7aa7a28e1df582630fb8c668d85c907e271cf00876167d87dcb0a4")

    def test_bytes_match_numpy_savetxt(self, tmp_path):
        # more rows than one write block, with -0.0, subnormal and huge values
        rng = np.random.default_rng(5)
        rows = 2 * sim._CSV_BLOCK_ROWS + 3
        data = rng.standard_normal((rows, 8)) * 10.0 ** rng.integers(-310, 300, size=(rows, 8))
        data[1, 2], data[4, 5] = -0.0, 5e-324
        traj = Trajectory(data[:, 0], *np.hsplit(data[:, 1:], [2, 3, 4, 5, 6, 7]))
        header = write_csv(traj, tmp_path / "traj.csv")
        expected = tmp_path / "savetxt.csv"
        np.savetxt(expected, data, fmt="%.17g", delimiter=",", header=",".join(header),
                   comments="")
        assert (tmp_path / "traj.csv").read_bytes() == expected.read_bytes()
