import inspect
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from nosreg import certificates, cli, errors, modal, regulation
from nosreg.acceptance import reference_config_dict
from nosreg.cli import (EXIT_CODES, EXIT_SEARCH, EXIT_SIMULATION, EXIT_SYNTHESIS,
                        EXIT_VALIDATION, gnuplot_script, load_config, load_gains, main)
from nosreg.modal import PoleSet
from nosreg.polesearch import search
from nosreg.regulation import synthesize

ROOT = Path(__file__).resolve().parents[1]
SLOW_POLES = [-4.847, -4.017, -2.432, -0.1032]


def _nested(value, depth):
    """``value`` wrapped in ``depth`` one-element arrays."""
    for _ in range(depth):
        value = [value]
    return value


def _write(path, payload):
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


@pytest.fixture
def config_path(tmp_path):
    return _write(tmp_path / "config.json",
                  reference_config_dict(poles=SLOW_POLES))


def test_design_writes_expected_gains(tmp_path, config_path, capsys):
    out = tmp_path / "gains.json"
    assert main(["design", "--config", config_path, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    np.testing.assert_allclose(payload["F"], [[-4.89, -51.6, -42.2, -11.4]], atol=0.05)
    np.testing.assert_allclose(payload["G"], [[-36.3, 40.2]], atol=0.05)
    sub = payload["subsystems"][0]
    assert sub["p_value"] > 0
    np.testing.assert_allclose(sub["Pi"], [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-9)
    assert "certificate: p =" in capsys.readouterr().out


def test_design_round_trip_is_lossless(tmp_path, config_path):
    out = tmp_path / "gains.json"
    main(["design", "--config", config_path, "--out", str(out)])
    cfg = load_config(config_path)
    loaded = load_gains(out, cfg)
    payload = json.loads(out.read_text())
    # JSON floats survive the round trip bit-for-bit
    np.testing.assert_array_equal(loaded.F, np.array(payload["F"]))
    np.testing.assert_array_equal(loaded.G, np.array(payload["G"]))


def test_design_requires_poles(tmp_path):
    cfg = _write(tmp_path / "c.json", reference_config_dict())
    assert main(["design", "--config", cfg, "--out", str(tmp_path / "g.json")]) \
        == EXIT_VALIDATION


def test_unordered_poles_rejected_before_synthesis(tmp_path):
    bad = reference_config_dict(poles=sorted(SLOW_POLES, reverse=True))
    cfg = _write(tmp_path / "c.json", bad)
    assert main(["design", "--config", cfg, "--out", str(tmp_path / "g.json")]) \
        == EXIT_VALIDATION


def test_close_poles_reach_the_residual_guard(tmp_path, capsys):
    # distinct poles 1e-9 apart are a valid PoleSet; for this offset the
    # residual guard cannot resolve them, a synthesis failure
    close = reference_config_dict(poles=[-4.847, -4.017, -2.432, -2.432 + 1e-9])
    cfg = _write(tmp_path / "c.json", close)
    assert main(["design", "--config", cfg, "--out", str(tmp_path / "g.json")]) \
        == EXIT_SYNTHESIS
    assert "ill-conditioned" in capsys.readouterr().err


def test_certificate_failure_exit_code(tmp_path):
    bad = reference_config_dict(poles=SLOW_POLES)
    bad["initial"] = {"xi0": [1.0, 3.0, 1.0, 16.0]}   # p < 0 for these poles
    cfg = _write(tmp_path / "c.json", bad)
    assert main(["design", "--config", cfg, "--out", str(tmp_path / "g.json")]) \
        == EXIT_SYNTHESIS


def test_unknown_plant_rejected(tmp_path):
    bad = reference_config_dict(poles=SLOW_POLES)
    bad["initial"] = {"plant": "nonesuch", "x0": [0, 0, 0, 0]}
    cfg = _write(tmp_path / "c.json", bad)
    assert main(["design", "--config", cfg, "--out", str(tmp_path / "g.json")]) \
        == EXIT_VALIDATION


def test_malformed_json_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"degrees": [4],')
    code = main(["design", "--config", str(path), "--out", str(tmp_path / "g.json")])
    assert code == EXIT_VALIDATION
    assert "line" in capsys.readouterr().err


def test_undecodable_config_exits_validation(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00")
    code = main(["design", "--config", str(path), "--out", str(tmp_path / "g.json")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: cannot read config {path}")


@pytest.mark.parametrize("command", ["design", "simulate"])
def test_unwritable_output_exits_validation(tmp_path, config_path, capsys, command):
    gains = tmp_path / "gains.json"
    main(["design", "--config", config_path, "--out", str(gains)])
    capsys.readouterr()
    missing = tmp_path / "missing"
    if command == "design":
        argv = ["design", "--config", config_path, "--out", str(missing / "g.json")]
    else:
        argv = ["simulate", "--config", config_path, "--gains", str(gains),
                "--csv", str(missing / "t.csv"), "--plot", str(tmp_path / "t.gp")]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(missing) in err


def test_every_error_type_has_an_exit_code():
    types = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
             if issubclass(cls, errors.NosregError) and cls is not errors.NosregError]
    assert len(types) >= 8
    unmapped = [cls.__name__ for cls in types + [OSError]
                if not any(issubclass(cls, row) for row, _ in EXIT_CODES)]
    assert unmapped == []


def test_search_is_seed_deterministic(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", reference_config_dict())
    g1, g2, g3 = (tmp_path / n for n in ("g1.json", "g2.json", "g3.json"))
    assert main(["search", "--config", cfg, "--out", str(g1)]) == 0
    assert main(["search", "--config", cfg, "--out", str(g2)]) == 0
    assert g1.read_bytes() == g2.read_bytes()
    reseeded = reference_config_dict()
    reseeded["search"]["seed"] = 77
    cfg = _write(tmp_path / "c77.json", reseeded)
    assert main(["search", "--config", cfg, "--out", str(g3)]) == 0
    assert g1.read_bytes() != g3.read_bytes()
    payload = json.loads(g3.read_text())
    assert payload["seed"] == 77
    assert payload["subsystems"][0]["trials_used"] >= 1


def test_search_designs_each_subsystem_once(tmp_path, monkeypatch):
    # count calls at every nosreg module attribute bound to the function,
    # as the benchmark tracer does
    calls = Counter()
    for fn in (regulation.solve_sylvester, modal.modal_coeffs, certificates.certify):
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("nosreg") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    gains = tmp_path / "g.json"
    config = ROOT / "configs" / "benchmark_search_slow.json"
    assert main(["search", "--config", str(config), "--out", str(gains)]) == 0
    used = json.loads(gains.read_text())["subsystems"][0]["trials_used"]
    # the searched trial's certificate is the design's: no second modal solve
    assert calls == {"solve_sylvester": 1, "modal_coeffs": used, "certify": used}


def test_mimo_search_seeds_each_subsystem(tmp_path, capsys, monkeypatch):
    seeds = []

    def recorded(spec, x0):
        seeds.append(spec.seed)
        return search(spec, x0)

    monkeypatch.setattr(cli, "search", recorded)
    cfg_dict = reference_config_dict(intervals=None)
    cfg_dict.update(
        degrees=[2, 3],
        exosystem={"S": [[0.0, 1.0], [-1.0, 0.0]], "H": [[1.0, 0.0], [0.0, 1.0]],
                   "w0": [1.0, 0.0]},
        initial={"xi0": [2.0, -3.0, 0.8, 2.0, -4.0]},
        intervals=[[[-4.0, -2.0], [-2.0, 0.0]], [[-6.0, -3.0], [-3.0, -1.0], [-1.0, 0.0]]],
        search={"seed": 13})
    cfg_dict["sim"]["horizon"] = 20.0
    cfg = _write(tmp_path / "c.json", cfg_dict)
    gains = tmp_path / "g.json"
    assert main(["search", "--config", cfg, "--out", str(gains)]) == 0
    assert seeds == [13, 14]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("subsystem 0: passing poles after 3 trial(s)")
    assert lines[1].startswith("subsystem 1: passing poles after 2 trial(s)")
    assert lines[2].startswith("subsystem 0: poles [")

    payload = json.loads(gains.read_text())
    assert payload["seed"] == 13
    assert [sub["trials_used"] for sub in payload["subsystems"]] == [3, 2]
    loaded = load_config(cfg)
    ref = synthesize(loaded.degrees, loaded.exo, loaded.xi0,
                     [PoleSet(tuple(sub["poles"])) for sub in payload["subsystems"]])
    # JSON keeps a float's repr, so equal lists are equal bits
    assert payload["F"] == ref.F.tolist() and payload["G"] == ref.G.tolist()
    assert main(["simulate", "--config", cfg, "--gains", str(gains),
                 "--csv", str(tmp_path / "t.csv"), "--plot", str(tmp_path / "t.gp")]) == 0


def test_search_unsatisfiable_intervals_exit_code(tmp_path):
    cfg_dict = reference_config_dict(intervals=[[-2.0, -2.0]] * 4)
    cfg_dict["search"]["max_trials"] = 50
    cfg = _write(tmp_path / "c.json", cfg_dict)
    assert main(["search", "--config", cfg, "--out", str(tmp_path / "g.json")]) \
        == EXIT_SEARCH


def test_faster_bands_give_larger_gains(tmp_path):
    from nosreg.acceptance import BANDS_FAST, BANDS_MEDIUM, BANDS_SLOW

    firsts = []
    for i, bands in enumerate((BANDS_SLOW, BANDS_MEDIUM, BANDS_FAST)):
        cfg = _write(tmp_path / f"c{i}.json",
                     reference_config_dict(intervals=bands))
        out = tmp_path / f"g{i}.json"
        assert main(["search", "--config", cfg, "--out", str(out)]) == 0
        firsts.append(abs(json.loads(out.read_text())["F"][0][0]))
    assert firsts[0] < firsts[1] < firsts[2]


def test_simulate_benchmark_no_overshoot(tmp_path, config_path, capsys):
    gains = tmp_path / "gains.json"
    main(["design", "--config", config_path, "--out", str(gains)])
    csv = tmp_path / "traj.csv"
    plot = tmp_path / "traj.gp"
    code = main(["simulate", "--config", config_path, "--gains", str(gains),
                 "--csv", str(csv), "--plot", str(plot)])
    assert code == 0
    out = capsys.readouterr().out
    assert "no sign change" in out
    assert csv.exists()
    script = plot.read_text()
    assert "tracking errors" in script and "control inputs" in script
    header = csv.read_text().splitlines()[0]
    assert header == "t,x1,x2,x3,x4,w1,w2,y1,r1,e1,u1,v1"


def test_plot_script_quotes_paths():
    # gnuplot reads '' as a literal quote inside a single-quoted string
    script = gnuplot_script("it's/traj.csv", "it's/traj.gp", ["t", "e1", "u1"]).splitlines()
    assert "csv = 'it''s/traj.csv'" in script
    assert "set output 'it''s/traj.png'" in script


def test_simulate_is_deterministic(tmp_path, config_path):
    gains = tmp_path / "gains.json"
    main(["design", "--config", config_path, "--out", str(gains)])
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["simulate", "--config", config_path, "--gains", str(gains),
          "--csv", str(c1), "--plot", str(tmp_path / "a.gp")])
    main(["simulate", "--config", config_path, "--gains", str(gains),
          "--csv", str(c2), "--plot", str(tmp_path / "b.gp")])
    assert c1.read_bytes() == c2.read_bytes()


def test_simulate_with_destabilizing_gains_fails(tmp_path, config_path):
    gains = tmp_path / "gains.json"
    main(["design", "--config", config_path, "--out", str(gains)])
    payload = json.loads(gains.read_text())
    payload["F"] = [[abs(f) for f in payload["F"][0]]]   # flip to positive feedback
    gains.write_text(json.dumps(payload))
    code = main(["simulate", "--config", config_path, "--gains", str(gains),
                 "--csv", str(tmp_path / "t.csv"), "--plot", str(tmp_path / "t.gp")])
    assert code == EXIT_SIMULATION


def test_simulate_checks_gain_dimensions(tmp_path, config_path):
    gains = tmp_path / "gains.json"
    main(["design", "--config", config_path, "--out", str(gains)])
    payload = json.loads(gains.read_text())
    payload["degrees"] = [3]
    gains.write_text(json.dumps(payload))
    code = main(["simulate", "--config", config_path, "--gains", str(gains),
                 "--csv", str(tmp_path / "t.csv"), "--plot", str(tmp_path / "t.gp")])
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("key, reshape", [
    ("F", lambda F: F[0]),
    ("G", lambda G: [G[0] + [0.0]]),
], ids=["F-flat", "G-wide"])
def test_simulate_checks_gain_shapes(tmp_path, config_path, capsys, key, reshape):
    gains = tmp_path / "gains.json"
    main(["design", "--config", config_path, "--out", str(gains)])
    payload = json.loads(gains.read_text())
    payload[key] = reshape(payload[key])
    gains.write_text(json.dumps(payload))
    code = main(["simulate", "--config", config_path, "--gains", str(gains),
                 "--csv", str(tmp_path / "t.csv"), "--plot", str(tmp_path / "t.gp")])
    assert code == EXIT_VALIDATION
    assert f"gain {key} has shape" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_on_manifold_start_noted_in_summary(tmp_path, capsys):
    cfg_dict = reference_config_dict(poles=SLOW_POLES)
    # xi0 = Pi w0: start on the steady-state manifold, zero transient
    cfg_dict["initial"] = {"xi0": [1.0, 0.0, -1.0, 0.0]}
    cfg = _write(tmp_path / "c.json", cfg_dict)
    assert main(["design", "--config", cfg, "--out", str(tmp_path / "g.json")]) == 0
    assert "certificate: trivial" in capsys.readouterr().out


def test_off_manifold_start_prints_its_p_value(tmp_path, capsys):
    # 1e-10 along the slowest mode's eigenvector: a tiny but nonzero
    # transient, which the gains file records as p > 0
    lam = SLOW_POLES[-1]
    cfg_dict = reference_config_dict(poles=SLOW_POLES)
    cfg_dict["initial"] = {"xi0": [1.0 + 1e-10, 1e-10 * lam,
                                   -1.0 + 1e-10 * lam ** 2, 1e-10 * lam ** 3]}
    cfg = _write(tmp_path / "c.json", cfg_dict)
    out = tmp_path / "g.json"
    assert main(["design", "--config", cfg, "--out", str(out)]) == 0
    p_value = json.loads(out.read_text())["subsystems"][0]["p_value"]
    assert p_value > 0
    summary = capsys.readouterr().out
    assert "trivial" not in summary
    assert f"certificate: p = {p_value:.6g} > 0" in summary


@pytest.mark.parametrize("field, value, named", [
    ("degrees", 4, "'degrees'"),
    ("degrees", [4.7], "degrees"),
    ("exosystem", 3, "'exosystem'"),
    ("initial", 3, "'initial'"),
    ("poles", [[-4.847, "a", -2.432, -0.1032]], "'poles'"),
    ("sim", 3, "'sim'"),
    ("sim", {"step": "fast"}, "'sim.step'"),
    ("search", {"max_trials": 50.7}, "search.max_trials"),
    ("search", {"seed": 3.9}, "search.seed"),
    ("sim", {"record_stride": 2.5}, "record_stride"),
    ("intervals", 5, "'intervals'"),
    ("exosystem", {"S": "abc", "H": [[1.0, 0.0]], "w0": [1.0, 0.0]}, "'exosystem.S'"),
    ("sim", {"stpe": 0.01}, "unknown field 'sim.stpe'"),
    ("search", {"max_trials": 10000, "seed": 1, "sep_min": 1e-6},
     "unknown field 'search.sep_min'"),
    ("initial", {"plant": "benchmark", "x0": [0.0, 2.0, -5.0, -4.0],
                 "xi0": [0.0, 2.0, -5.0, 4.0]}, "unknown field 'initial.xi0'"),
    ("exosystem", {"S": [[0.0, 1.0], [-1.0, 0.0]], "H": [[1.0, 0.0]], "w0": [1.0, 0.0],
                   "w1": [0.0, 1.0]}, "unknown field 'exosystem.w1'"),
    ("pole", [SLOW_POLES], "unknown field 'pole'"),
    ("intervals", [[[-6.0, -4.5], [-4.5, -3.0], [-3.0, -1.5], [-1.5, 1.0]]],
     "malformed field 'intervals': interval 3 must lie on the negative axis"),
    ("intervals", [[[-4.5, -6.0], [-4.5, -3.0], [-3.0, -1.5], [-1.5, 0.0]]],
     "malformed field 'intervals': interval 0 is empty"),
    ("intervals", [[[-6.0, -4.5], [-4.5, -3.0], [-3.0, -1.5], [0.0, 0.0]]],
     "malformed field 'intervals': interval 3 must lie on the negative axis"),
    ("search", {"max_trials": 0}, "malformed field 'search.max_trials'"),
    ("search", {"seed": -1}, "malformed field 'search.seed'"),
    # a number field takes only a JSON number: float() and as_int would read these
    ("sim", {"step": "0.01"}, "malformed field 'sim.step'"),
    ("sim", {"horizon": True}, "malformed field 'sim.horizon'"),
    ("sim", {"step": 10 ** 400}, "malformed field 'sim.step'"),
    ("sim", {"record_stride": True}, "malformed field 'sim.record_stride'"),
    ("poles", [["-4.847", "-4.017", "-2.432", "-0.1032"]], "malformed field 'poles'"),
    ("intervals", [[[-6.0, -4.5], [-4.5, -3.0], [-3.0, -1.5], [-1.5, "-0.05"]]],
     "malformed field 'intervals'"),
    ("exosystem", {"S": [[0.0, 1.0], [-1.0, 0.0]], "H": [[1.0, 0.0]], "w0": ["1.0", 0.0]},
     "malformed field 'exosystem.w0'"),
    ("initial", {"plant": "benchmark", "x0": [0.0, "2.0", -5.0, -4.0]},
     "malformed field 'initial.x0'"),
    # Python's json reads NaN and Infinity, which are not JSON numbers
    ("sim", {"zero_band": float("nan")}, "malformed field 'sim.zero_band'"),
    ("sim", {"zero_band": -1e-9}, "malformed field 'sim': zero_band"),
    ("sim", {"horizon": float("inf")}, "malformed field 'sim.horizon'"),
    ("sim", {"step": 1e-300, "horizon": 1e300}, "malformed field 'sim': horizon / step"),
    # finite, but about 1e303 steps: a run that would never finish
    ("sim", {"step": 1e-3, "horizon": 1e300}, "malformed field 'sim': horizon / step"),
    ("initial", {}, "missing field 'initial.xi0'"),
    # _floats recurses once per array level, so depth is capped before Python's limit
    ("exosystem", {"S": [[0.0, 1.0], [-1.0, 0.0]], "H": [[1.0, 0.0]],
                   "w0": _nested([1.0, 0.0], 900)}, "malformed field 'exosystem.w0'"),
    # a vector field takes a flat array, never one that flattens to the right length
    ("initial", {"plant": "benchmark", "x0": [[0.0], [2.0], [-5.0], [-4.0]]},
     "malformed field 'initial.x0'"),
    ("exosystem", {"S": [[0.0, 1.0], [-1.0, 0.0]], "H": [[1.0, 0.0]],
                   "w0": [[[1.0]], [[0.0]]]}, "malformed field 'exosystem.w0'"),
    # finite x0, but its chain coordinates are not
    ("initial", {"plant": "benchmark", "x0": [1e200, 2.0, -5.0, -4.0]},
     "malformed field 'initial.x0'"),
    # 1.0 / 0.6 steps: the run would end at t = 1.2
    ("sim", {"step": 0.6, "horizon": 1.0}, "malformed field 'sim': horizon must be a whole"),
], ids=["degrees-scalar", "degrees-fractional", "exosystem-scalar",
        "initial-scalar", "pole-string", "sim-scalar", "sim-step-string",
        "max-trials-fractional", "seed-fractional", "record-stride-fractional",
        "intervals-scalar", "exosystem-S-string", "sim-unknown-key",
        "search-sep-min", "initial-xi0-beside-plant", "exosystem-unknown-key",
        "root-unknown-key", "interval-positive", "interval-empty", "interval-zero",
        "max-trials-zero", "seed-negative", "sim-step-numeric-string",
        "sim-horizon-bool", "sim-step-huge-int", "record-stride-bool",
        "pole-numeric-string", "interval-numeric-string", "w0-numeric-string",
        "x0-numeric-string", "sim-zero-band-nan", "sim-zero-band-negative",
        "sim-horizon-infinity", "sim-step-count-overflow", "sim-step-count-huge",
        "initial-empty", "w0-nested-deep", "x0-column", "w0-nested",
        "x0-chain-coordinates-overflow", "sim-horizon-not-whole-steps"])
def test_malformed_config_field_exits_validation(tmp_path, capsys, field, value, named):
    cfg_dict = reference_config_dict(poles=SLOW_POLES)
    cfg_dict[field] = value
    cfg = _write(tmp_path / "c.json", cfg_dict)
    assert main(["design", "--config", cfg, "--out", str(tmp_path / "g.json")]) \
        == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert named in err


@pytest.mark.parametrize("keys, value, named", [
    (("subsystems", 0, "poles"), None, "'subsystems[0].poles'"),
    (("subsystems", 0, "p_value"), "high", "'subsystems[0].p_value'"),
    (("subsystems", 0, "p_value"), "0.5", "'subsystems[0].p_value'"),
    (("F",), "abc", "'F'"),
    (("degrees",), 4, "'degrees'"),
    (("subsystems",), 5, "'subsystems'"),
    (("F", 0, 0), float("nan"), "malformed field 'F'"),
    (("subsystems", 0, "p_value"), float("nan"), "'subsystems[0].p_value'"),
    (("subsystems",), [], "malformed field 'subsystems': must list one entry"),
    (("subsystems",), lambda subs: subs * 2,
     "malformed field 'subsystems': must list one entry"),
    (("subsystems", 0, "poles"), "banana", "malformed field 'subsystems[0].poles'"),
    (("subsystems", 0, "poles"), SLOW_POLES[::-1],
     "malformed field 'subsystems': poles must strictly increase"),
], ids=["poles-missing", "p-value-string", "p-value-numeric-string", "F-string",
        "degrees-scalar", "subsystems-scalar", "F-nan", "p-value-nan",
        "subsystems-empty", "subsystems-extra", "poles-string", "poles-unordered"])
def test_malformed_gains_subsystem_exits_validation(tmp_path, config_path, capsys,
                                                    keys, value, named):
    gains = tmp_path / "gains.json"
    main(["design", "--config", config_path, "--out", str(gains)])
    payload = json.loads(gains.read_text())
    parent = payload
    for key in keys[:-1]:
        parent = parent[key]
    if value is None:
        del parent[keys[-1]]
    elif callable(value):
        parent[keys[-1]] = value(parent[keys[-1]])
    else:
        parent[keys[-1]] = value
    gains.write_text(json.dumps(payload))
    code = main(["simulate", "--config", config_path, "--gains", str(gains),
                 "--csv", str(tmp_path / "t.csv"), "--plot", str(tmp_path / "t.gp")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: gains file {gains}: ")
    assert named in err


@pytest.mark.parametrize("what", ["config", "gains file"], ids=["config", "gains"])
def test_deeply_nested_file_exits_validation(tmp_path, config_path, capsys, what):
    # json's parser recurses once per array: 100 000 levels pass any recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    if what == "config":
        argv = ["design", "--config", str(deep), "--out", str(tmp_path / "g.json")]
    else:
        argv = ["simulate", "--config", config_path, "--gains", str(deep),
                "--csv", str(tmp_path / "t.csv"), "--plot", str(tmp_path / "t.gp")]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {what} {deep} is nested too deeply to read\n"


def test_negative_seed_exits_validation(tmp_path, capsys):
    cfg_dict = reference_config_dict()
    cfg_dict["search"]["seed"] = -5
    cfg = _write(tmp_path / "c.json", cfg_dict)
    assert main(["search", "--config", cfg,
                 "--out", str(tmp_path / "g.json")]) == EXIT_VALIDATION
    assert "seed must be non-negative" in capsys.readouterr().err


def test_linear_config_simulation(tmp_path):
    cfg_dict = reference_config_dict(poles=SLOW_POLES)
    cfg_dict["initial"] = {"xi0": [0.0, 2.0, -5.0, 4.0]}
    cfg_dict["sim"]["horizon"] = 5.0
    cfg = _write(tmp_path / "c.json", cfg_dict)
    gains = tmp_path / "g.json"
    assert main(["design", "--config", cfg, "--out", str(gains)]) == 0
    code = main(["simulate", "--config", cfg, "--gains", str(gains),
                 "--csv", str(tmp_path / "t.csv"), "--plot", str(tmp_path / "t.gp")])
    assert code == 0
    header = (tmp_path / "t.csv").read_text().splitlines()[0]
    # linear run: the recorded state is the 4 chain coordinates
    assert header == "t,x1,x2,x3,x4,w1,w2,y1,r1,e1,u1,v1"
