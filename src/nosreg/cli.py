"""Command-line front end: design, search, simulate, reproduce-example.

Configuration and gains travel as JSON; trajectories as CSV plus a generated
gnuplot script.  Every input field is read by ``_field``, so a validation
message names the field, and the file too for a gains file; a config key that
no reader asks for is named as an unknown field.  Exit codes
(``EXIT_CODES``): 0 success, 2 validation or an unwritable output path,
3 synthesis or certificate failure, 4 search exhausted, 5 simulation failure
(non-finite state or detected overshoot); ``reproduce-example`` exits 1 when
a criterion fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from math import isfinite
from pathlib import Path

import numpy as np

from .chains import Exosystem, NonlinearPlant, assemble_mimo, chain_plant
from .errors import (CertificateFailed, ConfigError, DimensionMismatch,
                     InvalidOrder, InvalidPoleSet, NonFiniteState, NosregError,
                     SearchExhausted, SingularMatrix)
from .linalg import as_int, as_matrix, as_vector
from .modal import PoleSet
from .plants import BUILTIN_PLANTS
from .polesearch import DEFAULT_MAX_TRIALS, SearchSpec, search
# no cli path calls solve_sylvester; bench/tracing.py SITES patch the name
from .regulation import design, solve_sylvester, synthesize
from .sim import SimConfig, simulate_nonlinear, write_csv

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SYNTHESIS = 3
EXIT_SEARCH = 4
EXIT_SIMULATION = 5

# main's exit code for an error: the first row that matches
EXIT_CODES = (
    ((ConfigError, DimensionMismatch, InvalidOrder, InvalidPoleSet, OSError),
     EXIT_VALIDATION),
    ((SingularMatrix, CertificateFailed), EXIT_SYNTHESIS),
    ((SearchExhausted,), EXIT_SEARCH),
    ((NonFiniteState,), EXIT_SIMULATION),
)


@dataclass(frozen=True)
class ProblemConfig:
    """Parsed, dimension-checked problem description."""

    degrees: tuple[int, ...]
    exo: Exosystem
    plant: NonlinearPlant
    x0: np.ndarray
    xi0: np.ndarray
    pole_sets: tuple[PoleSet, ...] | None
    intervals: tuple[tuple[tuple[float, float], ...], ...] | None
    max_trials: int
    seed: int
    sim: SimConfig


@dataclass(frozen=True)
class LoadedGains:
    """Gains file contents; duck-compatible with RegulatorGains where it matters (F, G)."""

    F: np.ndarray
    G: np.ndarray
    p_values: tuple[float, ...]


_REQUIRED = object()


def _field(data: dict, key: str, path: str, convert=None, default=_REQUIRED):
    """``convert(data[key])``, or ``default`` as is if the key is absent.

    A value ``convert`` rejects is a ConfigError naming ``path + key``; a
    ConfigError from a nested ``_field`` passes through, naming its own field.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"'{path[:-1] or 'root'}' must be a JSON object")
    if key not in data:
        if default is _REQUIRED:
            raise ConfigError(f"missing field '{path}{key}'")
        return default
    if convert is None:
        return data[key]
    try:
        return convert(data[key])
    except (TypeError, ValueError, OverflowError, DimensionMismatch, InvalidOrder,
            InvalidPoleSet) as exc:
        raise ConfigError(f"malformed field '{path}{key}': {exc}") from exc


def _known(data, path: str, keys):
    """``keys``, once the object ``data`` at ``path`` has no other key."""
    for key in data if isinstance(data, dict) else ():   # _field reports a non-object
        if key not in keys:
            raise ConfigError(f"unknown field '{path}{key}'")
    return keys


def _search_field(data, key: str, default):
    """``search.<key>``, checked by ``SearchSpec``'s own rule on a one-pole box."""
    return _field(data, key, "search.",
                  lambda value: getattr(SearchSpec(((-1.0, 0.0),), **{key: value}), key),
                  default)


def _read_json(path, what: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: "
                          f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:   # json's parser recurses once per nested array
        raise ConfigError(f"{what} {path} is nested too deeply to read") from exc


def _int(value) -> int:
    return as_int(value, "value")


def _float(value) -> float:
    """A finite JSON number as a float.

    ``float()`` would also take ``"0.01"`` and ``true``, and Python's ``json``
    reads the non-JSON tokens ``NaN`` and ``Infinity``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    value = float(value)
    if not isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return value


def _floats(value, depth: int = 3):
    """A JSON number, or an array of them nested at most ``depth`` deep, read by ``_float``.

    No field nests deeper than ``intervals``: subsystem, interval, end.
    """
    if not isinstance(value, list):
        return _float(value)
    if depth == 0:
        raise ValueError("arrays nested too deeply")
    return [_floats(item, depth - 1) for item in value]


def _degrees(values) -> tuple[int, ...]:
    # JSON may spell a degree 4.0; the chain rule then checks every degree
    return assemble_mimo([_int(g) for g in values])


def _per_subsystem(lists, degrees, convert) -> tuple:
    """``convert`` of each per-subsystem entry, after checking every entry's length."""
    if len(lists) != len(degrees):
        raise DimensionMismatch(f"must list one entry per subsystem ({len(degrees)})")
    for j, (items, g) in enumerate(zip(lists, degrees)):
        if len(items) != g:
            raise DimensionMismatch(f"entry {j} has {len(items)} items, "
                                    f"subsystem order is {g}")
    return tuple(convert(items) for items in lists)


def load_config(path) -> ProblemConfig:
    """Read and validate a problem configuration file."""
    raw = _read_json(path, "config")
    _known(raw, "", ("degrees", "exosystem", "initial", "poles", "intervals", "search", "sim"))
    degrees = _field(raw, "degrees", "", _degrees)
    p = len(degrees)
    gamma = sum(degrees)

    exo = _field(raw, "exosystem", "", lambda data: Exosystem(**{
        key: _field(data, key, "exosystem.", lambda v: convert(_floats(v)))
        for key, convert in _known(
            data, "exosystem.", {"S": as_matrix, "H": as_matrix, "w0": as_vector}).items()}))
    if exo.num_outputs != p:
        raise ConfigError(f"exosystem.H has {exo.num_outputs} rows, expected {p}")

    # one initial state, the plant's own: x0 of a named plant, or xi0 of the
    # normal form itself as the chain plant (identity chain map, u = v)
    init = _field(raw, "initial", "")
    name = _field(init, "plant", "initial.", default=None)
    key = "xi0" if name is None else "x0"
    _known(init, "initial.", ("plant", key))
    if name is None:
        plant = chain_plant(degrees)
    elif not isinstance(name, str) or name not in BUILTIN_PLANTS:
        raise ConfigError(f"unknown plant '{name}'; available: {sorted(BUILTIN_PLANTS)}")
    else:
        plant = BUILTIN_PLANTS[name]()
        if plant.degrees != degrees:
            raise ConfigError(f"plant '{name}' has degrees {plant.degrees}, "
                              f"config says {degrees}")
    def initial_state(value):
        # the chain map runs on floats, as in the simulator: on numpy scalars
        # an overflow would warn before as_vector rejects it
        x0 = as_vector(_floats(value), length=plant.state_dim)
        return x0, as_vector(plant.normal_map(x0.tolist()), length=gamma)

    x0, xi0 = _field(init, key, "initial.", initial_state)

    srch = _field(raw, "search", "", default={})
    _known(srch, "search.", ("max_trials", "seed"))
    pole_sets = _field(raw, "poles", "", lambda lists: _per_subsystem(
        _floats(lists), degrees, PoleSet), None)
    intervals = _field(raw, "intervals", "", lambda lists: _per_subsystem(
        _floats(lists), degrees, lambda box: SearchSpec(box).intervals), None)
    return ProblemConfig(
        degrees=degrees, exo=exo, plant=plant, x0=x0, xi0=xi0,
        pole_sets=pole_sets, intervals=intervals,
        max_trials=_search_field(srch, "max_trials", DEFAULT_MAX_TRIALS),
        seed=_search_field(srch, "seed", 0),
        # record_stride goes through as_int: int() would truncate 2.5
        sim=_field(raw, "sim", "", lambda data: SimConfig(**{
            key: _field(data, key, "sim.", _float if isinstance(default, float) else _int,
                        default)
            for key, default in _known(data, "sim.", asdict(SimConfig())).items()}),
            SimConfig()))


def write_gains(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _p_values(subs, degrees) -> tuple[float, ...]:
    """Each gains-file subsystem's ``p_value``, once its ``poles`` pass the config's rule."""
    _per_subsystem([_field(sub, "poles", f"subsystems[{j}].", _floats)
                    for j, sub in enumerate(subs)], degrees, PoleSet)
    return tuple(_field(sub, "p_value", f"subsystems[{j}].", _float)
                 for j, sub in enumerate(subs))


def load_gains(path, cfg: ProblemConfig) -> LoadedGains:
    """Read a gains file; its F and G shapes are checked by the simulator."""
    raw = _read_json(path, "gains file")
    try:
        degrees = _field(raw, "degrees", "", _degrees)
        if degrees != cfg.degrees:
            raise ConfigError(f"gains were designed for degrees {degrees}, "
                              f"config says {cfg.degrees}")
        # no as_matrix: its atleast_2d would pass a flat F the simulator rejects
        F, G = (_field(raw, key, "", lambda v: np.asarray(_floats(v), dtype=float))
                for key in ("F", "G"))
        p_values = _field(raw, "subsystems", "", lambda subs: _p_values(subs, degrees))
    except ConfigError as exc:
        raise ConfigError(f"gains file {path}: {exc}") from exc
    return LoadedGains(F=F, G=G, p_values=p_values)


def _write_design(cfg: ProblemConfig, gains, out_path, trials=None) -> int:
    """Write the gains file of a design and print a summary."""
    subs = []
    for j, sub in enumerate(gains.subsystems):
        entry = {
            "poles": list(sub.poles.lambdas),
            "F": sub.F[0].tolist(),
            "G": sub.G[0].tolist(),
            "Pi": sub.Pi.tolist(),
            "Gamma": sub.Gamma[0].tolist(),
            "p_value": sub.cert.p_value,
        }
        if trials is not None:
            entry["trials_used"] = trials[j]
        subs.append(entry)
    payload = {
        "degrees": list(cfg.degrees),
        "exo_dim": cfg.exo.dim,
        "subsystems": subs,
        "F": gains.F.tolist(),
        "G": gains.G.tolist(),
    }
    if trials is not None:      # a searched design: its seed, beside its trials
        payload["seed"] = cfg.seed
    write_gains(out_path, payload)
    for j, sub in enumerate(gains.subsystems):
        poles = ", ".join(f"{l:.6g}" for l in sub.poles.lambdas)
        print(f"subsystem {j}: poles [{poles}]")
        print(f"  F = {np.array2string(sub.F[0], precision=6)}")
        print(f"  G = {np.array2string(sub.G[0], precision=6)}")
        if sub.cert.p_value == 0.0:
            # a passed certificate scores p = 0 only for a zero transient
            print("  certificate: trivial (initial state on the steady-state manifold)")
        else:
            print(f"  certificate: p = {sub.cert.p_value:.6g} > 0")
    print(f"gains written to {out_path}")
    return EXIT_OK


def cmd_design(config_path, out_path) -> int:
    """Synthesize gains from explicit pole lists and write the gains file."""
    cfg = load_config(config_path)
    if cfg.pole_sets is None:
        raise ConfigError("'design' needs explicit 'poles' in the config")
    return _write_design(cfg, synthesize(cfg.degrees, cfg.exo, cfg.xi0, cfg.pole_sets),
                         out_path)


def cmd_search(config_path, out_path) -> int:
    """Design with poles searched in the configured intervals, then write gains."""
    cfg = load_config(config_path)
    if cfg.intervals is None:
        raise ConfigError("'search' needs 'intervals' in the config")
    trials = []

    def searched(j, xt0):
        spec = SearchSpec(intervals=cfg.intervals[j], max_trials=cfg.max_trials,
                          seed=cfg.seed + j)
        poles, cert, used = search(spec, xt0)
        print(f"subsystem {j}: passing poles after {used} trial(s), "
              f"p = {cert.p_value:.6g}")
        trials.append(used)
        return poles, cert

    return _write_design(cfg, design(cfg.degrees, cfg.exo, cfg.xi0, searched), out_path,
                         trials=trials)


def gnuplot_script(csv_path, plot_path, columns) -> str:
    """Gnuplot script for the ``e*`` and ``u*`` columns of ``write_csv``'s header ``columns``."""
    def plots(block):
        return ", ".join(f"csv using 1:{i + 1} with lines title '{name}'"
                         for i, name in enumerate(columns) if name[0] == block)

    def quoted(path):
        # gnuplot's single-quoted string: a doubled quote is a literal one
        return "'" + str(path).replace("'", "''") + "'"

    return (
        "# generated plot script: tracking errors and control inputs\n"
        f"csv = {quoted(csv_path)}\n"
        "set datafile separator ','\n"
        "set terminal pngcairo size 1200,450\n"
        f"set output {quoted(Path(plot_path).with_suffix('.png'))}\n"
        "set multiplot layout 1,2\n"
        "set grid\n"
        "set xlabel 't [s]'\n"
        "set title 'tracking errors'\n"
        f"plot {plots('e')}\n"
        "set title 'control inputs'\n"
        f"plot {plots('u')}\n"
        "unset multiplot\n"
    )


def cmd_simulate(config_path, gains_path, csv_path, plot_path) -> int:
    """Simulate the closed loop under a gains file; write CSV and a gnuplot script."""
    cfg = load_config(config_path)
    gains = load_gains(gains_path, cfg)
    traj, report = simulate_nonlinear(cfg.plant, cfg.exo, gains, cfg.x0, cfg.sim)
    columns = write_csv(traj, csv_path)
    Path(plot_path).write_text(gnuplot_script(csv_path, plot_path, columns))
    print(f"trajectory written to {csv_path} ({len(traj.times)} samples), "
          f"plot script to {plot_path}")
    for j, changed in enumerate(report.sign_changed):
        if changed:
            print(f"output {j + 1}: OVERSHOOT, error changes sign at "
                  f"t = {report.first_crossing_time[j]:.6g} s")
        else:
            print(f"output {j + 1}: no sign change, "
                  f"final |e| = {report.final_abs_error[j]:.3e}")
    return EXIT_SIMULATION if report.any_overshoot else EXIT_OK


def cmd_reproduce_example() -> int:
    """Run the bundled-scenario verification suite and print one line per criterion."""
    from .acceptance import run_all

    results = run_all()
    failed = [r.name for r in results if not r.passed]
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    if failed:
        print(f"{len(failed)} criterion(s) failed: {', '.join(failed)}")
        return 1
    print(f"all {len(results)} criteria passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nosreg",
        description="Nonovershooting output-regulation design and simulation.")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("design", help="synthesize gains from explicit poles")
    d.add_argument("--config", required=True)
    d.add_argument("--out", required=True)

    s = sub.add_parser("search", help="search pole intervals, then synthesize gains")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)

    m = sub.add_parser("simulate", help="simulate the closed loop under a gains file")
    m.add_argument("--config", required=True)
    m.add_argument("--gains", required=True)
    m.add_argument("--csv", required=True)
    m.add_argument("--plot", required=True)

    sub.add_parser("reproduce-example",
                   help="run the bundled-scenario verification suite")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "design":
            return cmd_design(args.config, args.out)
        if args.command == "search":
            return cmd_search(args.config, args.out)
        if args.command == "simulate":
            return cmd_simulate(args.config, args.gains, args.csv, args.plot)
        return cmd_reproduce_example()
    except (NosregError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for errors, code in EXIT_CODES if isinstance(exc, errors))


if __name__ == "__main__":
    sys.exit(main())
