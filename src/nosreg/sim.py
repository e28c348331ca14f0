"""Fixed-step closed-loop simulation and overshoot monitoring.

One simulator, :func:`simulate_nonlinear`, runs every closed loop: a
feedback-linearizable plant under its linearizing law, and the linear normal
form as the plant :func:`~nosreg.chains.chain_plant` (identity chain map,
``u = v``).  Classical RK4 on a uniform grid, with the exosystem integrated
jointly with the plant.  Fixed stepping keeps runs deterministic (identical
inputs give byte-identical trajectories) and makes sample-bracket overshoot
detection well defined.  The loop steps the state on plain Python floats
(a handful of components, where float arithmetic beats small-array overhead
by an order of magnitude), one compiled call per kept state.
The :class:`Trajectory` field order is the CSV column order.

Each call runs a straight-line RK4 loop generated for the sizes
``(n, m, gamma, p)`` and the arithmetic of the plant maps it splices in, and
cached per both: the state travels as scalar arguments and locals, and the
gains, ``S``, ``H`` and the step are closure cells, never source text.
:mod:`nosreg._inline` runs each plant map once per call on recording
numbers; a map that only does arithmetic on them (the built-in plant's four,
``chain_plant``'s four) has that arithmetic spliced into the loop, and any
other map is a closure cell the loop calls, with the same results.  The loop does
``tests/reference.py``'s ``rk4_step`` arithmetic in its order, so its
trajectories are byte-identical to a per-step loop's.  It also returns its
kept start state's sample, with the ``v`` and ``u`` of its first
derivative, so a run is one pass.  The states kept are every
``record_stride``-th and the horizon's, which takes no step.  A block is
checked for finiteness at its end, and a block that fails is replayed to
report the first fault.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from math import isfinite

import numpy as np

from .chains import Exosystem, NonlinearPlant
from .errors import DimensionMismatch, NonFiniteState
from .linalg import as_int, as_vector
from .regulation import RegulatorGains

DEFAULT_ZERO_BAND = 1e-9

# the most steps a run may take: over a minute for the degree-4 plant at about
# 7 us a step, and as many kept states at record_stride 1.  No run needs more
MAX_STEPS = 10 ** 7

# rows write_csv formats per write: the file is never one string in memory
_CSV_BLOCK_ROWS = 128


@dataclass(frozen=True)
class SimConfig:
    """Grid and detection parameters for one simulation run."""

    step: float = 1e-3
    horizon: float = 40.0
    record_stride: int = 10
    zero_band: float = DEFAULT_ZERO_BAND

    def __post_init__(self):
        for key in ("step", "horizon", "zero_band"):
            object.__setattr__(self, key, float(getattr(self, key)))
        object.__setattr__(self, "record_stride", as_int(self.record_stride, "record_stride"))
        if not (self.step > 0.0):
            raise DimensionMismatch("step must be positive")
        if self.horizon < self.step:
            raise DimensionMismatch("horizon must cover at least one step")
        steps = self.horizon / self.step
        if not (steps <= MAX_STEPS):
            raise DimensionMismatch(f"horizon / step must be at most {MAX_STEPS} steps")
        if abs(steps - round(steps)) > 1e-6:
            # the run would end at round(steps) * step, not at the horizon
            raise DimensionMismatch(f"horizon must be a whole number of steps, "
                                    f"got horizon / step = {steps!r}")
        if self.record_stride < 1:
            raise DimensionMismatch("record_stride must be >= 1")
        if not (self.zero_band >= 0.0):
            raise DimensionMismatch("zero_band must be non-negative")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded closed-loop run on a uniform time grid.

    Arrays are sample-major: ``x`` is (K, n), ``w`` is (K, m) and the output
    blocks ``y``, ``r``, ``e``, ``u``, ``v`` are (K, p), with ``e = r - y``
    at every sample.
    """

    times: np.ndarray
    x: np.ndarray
    w: np.ndarray
    y: np.ndarray
    r: np.ndarray
    e: np.ndarray
    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class OvershootReport:
    """Per-output sign-change verdicts for an error trace."""

    sign_changed: tuple[bool, ...]
    first_crossing_time: tuple[float | None, ...]
    final_abs_error: tuple[float, ...]

    @property
    def any_overshoot(self) -> bool:
        return any(self.sign_changed)


def _rows(mat) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(v) for v in row) for row in np.atleast_2d(mat))


def _gain_rows(gains: RegulatorGains | None, p: int, gamma: int, m: int):
    """Rows of the stacked gain ``[F G]``, so that ``v = [F G] (xi, w)``."""
    if gains is None:
        return ((0.0,) * (gamma + m),) * p
    if gains.F.shape != (p, gamma):
        raise DimensionMismatch(
            f"gain F has shape {gains.F.shape}, expected {(p, gamma)}")
    if gains.G.shape != (p, m):
        raise DimensionMismatch(
            f"gain G has shape {gains.G.shape}, expected {(p, m)}")
    return _rows(np.hstack([gains.F, gains.G]))


# the plant maps in the order the generated loop takes them, by their names there
_MAPS = ("normal_map", "linearizing_feedback", "dynamics", "output")


def _map_shapes(n: int, gamma: int, p: int):
    """Each map's argument lengths and result length, in ``_MAPS`` order."""
    return (((n,), gamma), ((n, p), p), ((n, p), n), ((n,), p))


@cache
def _step_factory(n: int, m: int, gamma: int, p: int, records=(None,) * 4):
    """Compile the straight-line closed-loop RK4 loop for one shape and its spliced maps.

    The source is built from the sizes and the records, and names every
    value it uses.  ``records`` holds, in ``_MAPS`` order, each plant map's
    arithmetic as ``_inline.trace`` recorded it, spliced into the loop, or
    None: that map is called, and its result unpacked.  The returned
    ``factory(K, S, H, h, h2, h6, normal_map, linearizing_feedback, dynamics,
    output)`` takes the rows of ``[F G]``, ``S`` and ``H``, the step, its
    half and its sixth and the plant maps, and returns ``advance(count,
    observe, z0, ..., z{n+m-1})`` with those it uses as closure cells.
    ``advance`` takes ``count >= 0`` steps and returns the new state with,
    if ``observe``, the start state's sample ``y + r + e + u + v`` (else
    ``None``), whose ``v`` and ``u`` are the first derivative's.  Each step
    is ``tests/reference.py``'s ``rk4_step`` arithmetic over the derivative
    ``(dynamics(x, feedback(x, v)), S w)`` with ``v = [F G] (T(x), w)``.
    """
    from ._inline import splice

    records = dict(zip(_MAPS, records))
    K = [[f"K{i}_{j}" for j in range(gamma + m)] for i in range(p)]
    S = [[f"S{i}_{j}" for j in range(m)] for i in range(m)]
    H = [[f"H{i}_{j}" for j in range(m)] for i in range(p)]
    xi = [f"xi{j}" for j in range(gamma)]
    z = [f"z{j}" for j in range(n + m)]
    y = [f"y{j}" for j in range(n + m)]
    vs, us, outs = ([f"{c}{i}" for i in range(p)] for c in "vuo")

    def tup(items):
        return "(" + "".join(f"{s}, " for s in items) + ")"

    def fold(row, vec):
        # a left fold from 0.0: sum() folds floats this way only up to
        # Python 3.11, and the leading 0.0 makes an all -0.0 product +0.0
        return " + ".join(["0.0"] + [f"{a} * {b}" for a, b in zip(row, vec)])

    def bind(name, args, results):
        # args and results are lists of item names
        if records[name]:
            return splice(records[name], args, results, f"{name}_")
        return [f"{tup(results)} = {name}({', '.join(map(tup, args))})"]

    def head(at):
        v = [fold(row, xi + at[n:]) for row in K]
        return [*bind("normal_map", [at[:n]], xi), *(f"{a} = {b}" for a, b in zip(vs, v)),
                *bind("linearizing_feedback", [at[:n], vs], us)]

    def deriv(k, at, first=False):
        # the first derivative of a block reads the start state's head
        return [*([] if first else head(at)),
                *bind("dynamics", [at[:n], us], [f"k{k}_{j}" for j in range(n)]),
                *(f"k{k}_{n + i} = {fold(row, at[n:])}" for i, row in enumerate(S))]

    def point(k, scale):
        return [f"{yj} = {zj} + {scale} * k{k}_{j}" for j, (yj, zj) in enumerate(zip(y, z))]

    def step(first=False):
        return [*deriv(1, z, first), *point(1, "h2"), *deriv(2, y), *point(2, "h2"),
                *deriv(3, y), *point(3, "h"), *deriv(4, y),
                *(f"{zj} = {zj} + h6 * (k1_{j} + 2.0 * (k2_{j} + k3_{j}) + k4_{j})"
                  for j, zj in enumerate(z))]

    # the start state's head serves both its sample and its first step,
    # which is written out so that only it skips the head
    errors = (f"ref[{i}] - {o}" for i, o in enumerate(outs))
    body = [*head(z), "sample = None", "if observe:",
            *(f"    {line}" for line in bind("output", [z[:n]], outs)),
            f"    ref = {tup(fold(row, z[n:]) for row in H)}",
            f"    sample = {tup([*outs, '*ref', *errors, *us, *vs])}",
            "if count:", *(f"    {line}" for line in step(first=True)),
            "    for _ in range(count - 1):", *(f"        {line}" for line in step()),
            f"return {tup(z)}, sample"]
    src = "\n".join([
        "def factory(K, S, H, h, h2, h6, normal_map, linearizing_feedback, dynamics, output):",
        f"    {tup(tup(row) for row in K)} = K",
        f"    {tup(tup(row) for row in S)} = S",
        f"    {tup(tup(row) for row in H)} = H",
        f"    def advance(count, observe, {', '.join(z)}):",
        *(f"        {line}" for line in body),
        "    return advance"])
    namespace = {}
    exec(compile(src, f"<rk4 loop n={n} m={m} gamma={gamma} p={p}>", "exec"), namespace)
    return namespace["factory"]


def _rk4_stepper(plant: NonlinearPlant, K_rows, S_rows, H_rows, h: float):
    """``advance(count, observe, *z)`` of the closed loop, compiled for its shape and maps."""
    from ._inline import trace

    n, gamma, p = plant.state_dim, sum(plant.degrees), len(K_rows)
    maps = [getattr(plant, name) for name in _MAPS]
    records = tuple(trace(fn, name, *shape)
                    for fn, name, shape in zip(maps, _MAPS, _map_shapes(n, gamma, p)))
    factory = _step_factory(n, len(S_rows), gamma, p, records)
    return factory(K_rows, S_rows, H_rows, h, 0.5 * h, h / 6.0, *maps)


def _raise_first_fault(advance, z, k: int, count: int, h: float):
    """Replay the block of kept state ``k`` from its state ``z`` and raise its fault.

    A block that raised or ended non-finite fails the same way replayed: its
    steps one at a time, then its sample.  So this raises what a per-step
    loop raises: ``NonFiniteState(t)`` at the first step whose state is not
    finite, or whose plant maps overflow (the sample's at ``t = k h``), or
    the plant's own error unchanged.
    """
    start = z
    try:
        for i in range(k + 1, k + count + 1):
            t = i * h
            z = advance(1, False, *z)[0]
            if not all(map(isfinite, z)):
                raise NonFiniteState(t)
        t = k * h
        advance(0, True, *start)
    except OverflowError as exc:
        # float exponentiation overflow inside a plant map: same diagnosis
        # as a NaN/Inf state, the loop has escaped to infinity
        raise NonFiniteState(t) from exc
    raise RuntimeError("a block of steps failed, but not one step at a time: "
                       "the plant maps are not deterministic")


def simulate_nonlinear(plant: NonlinearPlant, exo: Exosystem,
                       gains: RegulatorGains | None, x0,
                       cfg: SimConfig = SimConfig()) -> tuple[Trajectory, OvershootReport]:
    """Integrate the plant under the linearizing law driven by v = F T2(x) + G w.

    At every derivative evaluation the chain coordinates are recomputed from
    the plant state, so the loop exercises the actual nonlinear closed loop
    rather than its normal-form idealization.  The linear normal form itself
    runs as ``chain_plant(degrees)`` with ``x0 = xi0``.  ``gains=None``
    forces v = 0, exposing the raw effort the linearizing law spends on
    cancelling the plant nonlinearity.
    """
    n, p, m = plant.state_dim, plant.input_dim, exo.dim
    gamma = sum(plant.degrees)
    if exo.num_outputs != p:
        raise DimensionMismatch("exosystem output count does not match the plant")
    x0 = as_vector(x0, length=n)
    h, stride = cfg.step, cfg.record_stride
    steps = int(round(cfg.horizon / h))
    advance = _rk4_stepper(plant, _gain_rows(gains, p, gamma, m), _rows(exo.S),
                           _rows(exo.H), h)
    # tolist() gives Python floats; np.float64 elements would run the loop
    # on numpy scalars, with the same bytes but markedly slower
    z = tuple(x0.tolist() + exo.w0.tolist())
    times, states, samples = [], [], []
    for k in (*range(0, steps, stride), steps):
        # one block per kept state, stepping to the next; the horizon's state
        # is kept last, with no steps, whatever the stride.  A non-finite
        # component stays non-finite through z + h6 * (...), so a finite
        # block end means finite steps; any error may follow an earlier
        # non-finite step, so a block that raises is replayed too
        count = min(stride, steps - k)
        try:
            end, sample = advance(count, True, *z)
            finite = all(map(isfinite, end))
        except Exception:
            finite = False
        if not finite:
            _raise_first_fault(advance, z, k, count, h)
        times.append(k * h)
        states.append(z)
        samples.append(sample)
        z = end
    # each sample holds y, r, e, u, v: with t, x, w that is the Trajectory field order
    traj = Trajectory(np.array(times), *np.hsplit(np.array(states), [n]),
                      *np.hsplit(np.array(samples), 5))
    return traj, detect_overshoot(traj.times, traj.e, cfg.zero_band)


def detect_overshoot(times, errors, zero_band: float = DEFAULT_ZERO_BAND) -> OvershootReport:
    """Classify each error column: did it ever cross zero beyond the band?

    The package's one sign-change rule; the acceptance sweeps apply it to
    sampled modal responses too.  A column's initial sign is that of its
    first sample outside ``zero_band``; a sign change is a later sample
    strictly beyond the band with the opposite sign.  A column that never
    leaves the band reports no change.
    """
    times = as_vector(times)
    e = np.asarray(errors, dtype=float)
    if e.ndim == 1:
        e = e.reshape(-1, 1)
    if e.ndim != 2 or e.shape[0] != times.size or times.size == 0:
        raise DimensionMismatch("errors must provide one row per time sample")
    first = np.argmax(np.abs(e) > zero_band, axis=0)
    s0 = np.where(e[first, np.arange(e.shape[1])] > 0.0, 1.0, -1.0)
    flipped = s0 * e < -zero_band
    changed = flipped.any(axis=0)
    crossing = np.where(changed, times[np.argmax(flipped, axis=0)], None)
    return OvershootReport(sign_changed=tuple(changed.tolist()),
                           first_crossing_time=tuple(crossing.tolist()),
                           final_abs_error=tuple(np.abs(e[-1]).tolist()))


def write_csv(traj: Trajectory, path) -> list[str]:
    """Dump a trajectory as CSV at full precision and return the header.

    The columns are ``t``, then one block per further :class:`Trajectory`
    field in field order: ``x*``, ``w*``, ``y*``, ``r*``, ``e*``, ``u*``, ``v*``.
    """
    header, blocks = [], []
    for f in fields(Trajectory):
        block = getattr(traj, f.name)
        header += ([f"{f.name}{i + 1}" for i in range(block.shape[1])]
                   if block.ndim == 2 else ["t"])
        blocks.append(block)
    data = np.column_stack(blocks)
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        # Python floats through one row format, a block of rows per write
        for start in range(0, len(data), _CSV_BLOCK_ROWS):
            rows = data[start:start + _CSV_BLOCK_ROWS].tolist()
            fh.write("".join([row % tuple(r) for r in rows]))
    return header
