"""Fixed-step closed-loop simulation and overshoot monitoring.

One simulator, :func:`simulate_nonlinear`, runs every closed loop: a
feedback-linearizable plant under its linearizing law, and the linear normal
form as the plant :func:`~nosreg.chains.chain_plant` (identity chain map,
``u = v``).  Classical RK4 on a uniform grid, with the exosystem integrated
jointly with the plant.  Fixed stepping keeps runs deterministic (identical
inputs give byte-identical trajectories) and makes sample-bracket overshoot
detection well defined.  The loop steps the state on plain Python floats
(a handful of components, where float arithmetic beats small-array overhead
by an order of magnitude), one compiled call per kept state; a C compiler,
if present, runs the same loop with the same bytes, every block in one call.
The :class:`Trajectory` field order is the CSV column order.

Each call runs a straight-line RK4 loop generated for the sizes
``(n, m, gamma, p)`` and the arithmetic of the plant maps it splices in, and
cached per both: the state travels as scalar arguments and locals, and the
gains, ``S``, ``H``, the step and the maps' constants are parameters, never
source text.  :mod:`nosreg._inline` runs each plant map once per call on
recording numbers; a map that only does arithmetic on them (the built-in
plant's four, ``chain_plant``'s four) has that arithmetic spliced into the
loop, and any other map is a closure cell the loop calls, with the same
results.  The loop does ``tests/reference.py``'s ``rk4_step`` arithmetic in
its order, so its trajectories are byte-identical to a per-step loop's.  It
also returns its kept start state's sample, with the ``v`` and ``u`` of its
first derivative, so a run is one pass.  The states kept are every
``record_stride``-th and the horizon's, which takes no step.  A block is
checked for finiteness at its end, and a block that fails is replayed to
report the first fault.  :mod:`nosreg._native` prints the same loop as C;
it runs the blocks before the first that faults, and the Python loop runs
the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import isfinite

import numpy as np

from .chains import Exosystem, NonlinearPlant
from .errors import DimensionMismatch, NonFiniteState
from .linalg import as_int, as_vector
from .regulation import RegulatorGains

DEFAULT_ZERO_BAND = 1e-9

# the most steps a run may take: half a minute or more for the degree-4 plant
# on the Python loop at 3-7 us a step, under a second in C at about 0.06 us,
# and as many kept states at record_stride 1.  No run needs more
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


def _rk4_stepper(plant: NonlinearPlant, K_rows, S_rows, H_rows, h: float):
    """``advance(count, observe, *z)`` of the closed loop, and its native twin or None.

    Both are built for the loop's shape and the plant maps' records, by
    :func:`nosreg._inline.step_factory` and :func:`nosreg._native.kernel`.
    """
    from ._inline import MAPS, map_shapes, parameters, step_factory, trace
    from ._native import kernel

    n, gamma, p = plant.state_dim, sum(plant.degrees), len(K_rows)
    maps = [getattr(plant, name) for name in MAPS]
    records, constants = zip(*(trace(fn, name, *shape)
                               for fn, name, shape in zip(maps, MAPS, map_shapes(n, gamma, p))))
    shape = (n, len(S_rows), gamma, p, records)
    params = parameters(K_rows, S_rows, H_rows, h, constants)
    return step_factory(*shape)(params, *maps), kernel(*shape, params)


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
    advance, native = _rk4_stepper(plant, _gain_rows(gains, p, gamma, m), _rows(exo.S),
                                   _rows(exo.H), h)
    # tolist() gives Python floats; np.float64 elements would run the loop
    # on numpy scalars, with the same bytes but markedly slower
    z = tuple(x0.tolist() + exo.w0.tolist())
    kept = (*range(0, steps, stride), steps)
    # the native loop keeps the blocks before the first that faults, which
    # the loop below runs again from its start state z
    done, z = (native(z, steps, stride) if native
               else ((np.empty((0, n + m)), np.empty((0, 5 * p))), z))
    states, samples = [], []
    for k in kept[len(done[0]):]:
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
        states.append(z)
        samples.append(sample)
        z = end
    if states:
        done = [np.concatenate((a, np.reshape(b, (-1, a.shape[1]))))
                for a, b in zip(done, (states, samples))]
    # each sample holds y, r, e, u, v: with t, x, w that is the Trajectory field order
    traj = Trajectory(np.array(kept) * h, *np.hsplit(done[0], [n]), *np.hsplit(done[1], 5))
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
