"""Fixed-step closed-loop simulation and overshoot monitoring.

One simulator, :func:`simulate_nonlinear`, runs every closed loop: a
feedback-linearizable plant under its linearizing law, and the linear normal
form as the plant :func:`~nosreg.chains.chain_plant` (identity chain map,
``u = v``).  Classical RK4 on a uniform grid, with the exosystem integrated
jointly with the plant.  Fixed stepping keeps runs deterministic (identical
inputs give byte-identical trajectories) and makes sample-bracket overshoot
detection well defined.  One loop steps the state on plain Python floats
(a handful of components, where float arithmetic beats small-array overhead
by an order of magnitude) and keeps every ``record_stride``-th state; the
outputs are evaluated from the kept states afterwards.  The
:class:`Trajectory` field order is the CSV column order.

Each step is one call of a straight-line function generated for the sizes
``(n, m, gamma, p)`` and cached per size: the state travels as scalar
arguments, and the gains, ``S``, the step and the plant callables are closure
cells, never source text.  It does :func:`rk4_step`'s arithmetic in its
order, so its trajectories are byte-identical to the generic loop's.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from functools import cache, reduce
from math import isfinite

import numpy as np

from .chains import Exosystem, NonlinearPlant
from .errors import DimensionMismatch, NonFiniteState
from .linalg import as_int, as_vector
from .regulation import RegulatorGains

DEFAULT_ZERO_BAND = 1e-9


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
        if self.record_stride < 1:
            raise DimensionMismatch("record_stride must be >= 1")


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


def rk4_step(deriv, t: float, z: tuple, h: float) -> tuple:
    """One classical 4th-order Runge-Kutta update of ``z' = deriv(t, z)``.

    ``z`` and the values ``deriv`` returns are tuples of floats; the result
    is the next state as a tuple.
    """
    h2 = 0.5 * h
    k1 = deriv(t, z)
    k2 = deriv(t + h2, tuple(zi + h2 * ki for zi, ki in zip(z, k1)))
    k3 = deriv(t + h2, tuple(zi + h2 * ki for zi, ki in zip(z, k2)))
    k4 = deriv(t + h, tuple(zi + h * ki for zi, ki in zip(z, k3)))
    s = h / 6.0
    return tuple(zi + s * (a + 2.0 * (b + c) + d)
                 for zi, a, b, c, d in zip(z, k1, k2, k3, k4))


def _rows(mat) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(v) for v in row) for row in np.atleast_2d(mat))


def _matvec(rows, vec) -> tuple[float, ...]:
    # a left fold from 0, which the compiled step writes out term by term;
    # sum() folds floats this way only up to Python 3.11
    return tuple([reduce(operator.add, map(operator.mul, row, vec), 0) for row in rows])


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


@cache
def _step_factory(n: int, m: int, gamma: int, p: int):
    """Compile the straight-line closed-loop RK4 step for one shape.

    The source is built from the sizes alone and names every value it uses.
    The returned ``factory(K, S, h, h2, h6, normal_map, feedback, dynamics)``
    takes the rows of ``[F G]`` and ``S``, the step, its half and its sixth
    and the plant callables, and returns ``step(z0, ..., z{n+m-1})`` with
    those as closure cells.  The arithmetic is :func:`rk4_step`'s over the
    derivative ``(dynamics(x, feedback(x, v)), S w)`` with
    ``v = [F G] (T(x), w)``.
    """
    K = [[f"K{i}_{j}" for j in range(gamma + m)] for i in range(p)]
    S = [[f"S{i}_{j}" for j in range(m)] for i in range(m)]
    xi = [f"xi{j}" for j in range(gamma)]
    z = [f"z{j}" for j in range(n + m)]
    y = [f"y{j}" for j in range(n + m)]

    def tup(items):
        return "(" + "".join(f"{s}, " for s in items) + ")"

    def fold(row, vec):
        # _matvec's association, so rounding and the sign of zero match it
        return " + ".join(["0"] + [f"{a} * {b}" for a, b in zip(row, vec)])

    def deriv(k, at):
        x, w = at[:n], at[n:]
        return [f"x = {tup(x)}",
                f"{tup(xi)} = normal_map(x)",
                f"u = feedback(x, {tup(fold(row, xi + w) for row in K)})",
                f"{tup(f'k{k}_{j}' for j in range(n))} = dynamics(x, u)",
                *(f"k{k}_{n + i} = {fold(row, w)}" for i, row in enumerate(S))]

    def point(k, scale):
        return [f"{yj} = {zj} + {scale} * k{k}_{j}" for j, (yj, zj) in enumerate(zip(y, z))]

    new = tup(f"{zj} + h6 * (k1_{j} + 2.0 * (k2_{j} + k3_{j}) + k4_{j})"
              for j, zj in enumerate(z))
    body = [*deriv(1, z), *point(1, "h2"), *deriv(2, y), *point(2, "h2"),
            *deriv(3, y), *point(3, "h"), *deriv(4, y), f"return {new}"]
    src = "\n".join([
        "def factory(K, S, h, h2, h6, normal_map, feedback, dynamics):",
        f"    {tup(tup(row) for row in K)} = K",
        f"    {tup(tup(row) for row in S)} = S",
        f"    def step({', '.join(z)}):",
        *(f"        {line}" for line in body),
        "    return step"])
    namespace = {}
    exec(compile(src, f"<rk4 step n={n} m={m} gamma={gamma} p={p}>", "exec"), namespace)
    return namespace["factory"]


def _rk4_stepper(plant: NonlinearPlant, K_rows, S_rows, h: float):
    """``step(*z)``: one RK4 step of the closed loop, compiled for its shape."""
    factory = _step_factory(plant.state_dim, len(S_rows), sum(plant.degrees), len(K_rows))
    return factory(K_rows, S_rows, h, 0.5 * h, h / 6.0,
                   plant.normal_map, plant.linearizing_feedback, plant.dynamics)


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
    K_rows = _gain_rows(gains, p, gamma, m)
    H_rows = _rows(exo.H)
    output, normal_map, feedback = plant.output, plant.normal_map, plant.linearizing_feedback
    h = cfg.step
    step = _rk4_stepper(plant, K_rows, _rows(exo.S), h)
    # tolist() gives Python floats; np.float64 elements would run the loop
    # on numpy scalars, with the same bytes but markedly slower
    z = tuple(x0.tolist() + exo.w0.tolist())
    times, states, rows = [0.0], [z], []
    try:
        for k in range(int(round(cfg.horizon / h))):
            t = (k + 1) * h
            z = step(*z)
            if not all(map(isfinite, z)):
                raise NonFiniteState(t)
            if (k + 1) % cfg.record_stride == 0:
                times.append(t)
                states.append(z)
        for t, z in zip(times, states):
            x, w = z[:n], z[n:]
            v = _matvec(K_rows, tuple(normal_map(x)) + w)
            u = tuple(feedback(x, v))
            y, r = tuple(output(x)), _matvec(H_rows, w)
            rows.append(y + r + tuple(ri - yi for ri, yi in zip(r, y)) + u + v)
    except OverflowError as exc:
        # float exponentiation overflow inside a plant map: same diagnosis as
        # a NaN/Inf state, the loop has escaped to infinity
        raise NonFiniteState(t) from exc
    # each row holds y, r, e, u, v: with t, x, w that is the Trajectory field order
    traj = Trajectory(np.array(times), *np.hsplit(np.array(states), [n]),
                      *np.hsplit(np.array(rows), 5))
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
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, np.column_stack(blocks), fmt="%.17g", delimiter=",",
                   header=",".join(header), comments="")
    return header
