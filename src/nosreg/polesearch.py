"""Randomized interval-constrained search for a certifiable pole set.

Candidates are drawn uniformly and independently, one coordinate per
interval, and rejected unless strictly increasing, or when the residual guard
of ``modal_coeffs`` finds them too close to resolve.  The first candidate
whose certificate passes wins; any passing set is as good as any other, so
there is no scoring beyond pass/fail.  Each candidate is drawn as its trial
starts, in an order fixed by the seed: runs are reproducible and an early
pass costs nothing for the unused budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import Certificate, certify
from .errors import DimensionMismatch, InvalidPoleSet, SearchExhausted, SingularMatrix
from .linalg import as_int, as_vector
from .modal import PoleSet, modal_coeffs

DEFAULT_MAX_TRIALS = 10_000


@dataclass(frozen=True)
class SearchSpec:
    """Search box: one interval per pole, with ``lo < 0`` and ``hi <= 0``, plus budget and seed."""

    intervals: tuple[tuple[float, float], ...]
    max_trials: int = DEFAULT_MAX_TRIALS
    seed: int = 0

    def __post_init__(self):
        ivs = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        object.__setattr__(self, "max_trials", as_int(self.max_trials, "max_trials"))
        object.__setattr__(self, "seed", as_int(self.seed, "seed"))
        if len(ivs) == 0:
            raise DimensionMismatch("at least one interval is required")
        for i, (lo, hi) in enumerate(ivs):
            if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
                raise DimensionMismatch(f"interval {i} is empty or non-finite: [{lo}, {hi}]")
            if hi > 0.0 or lo >= 0.0:
                # a draw from [0, 0] is the pole 0, which PoleSet rejects on every trial
                raise DimensionMismatch(f"interval {i} must lie on the negative axis "
                                        f"with lo < 0, got [{lo}, {hi}]")
        if self.max_trials < 1:
            raise DimensionMismatch("max_trials must be positive")
        if self.seed < 0:
            raise DimensionMismatch(f"seed must be non-negative, got {self.seed}")

    @property
    def n(self) -> int:
        return len(self.intervals)


def search(spec: SearchSpec, x0) -> tuple[PoleSet, Certificate, int]:
    """Find the lowest-trial-index pole set in the box that certifies ``x0``.

    Returns ``(poles, certificate, trials_used)`` where ``trials_used`` counts
    every sampled candidate including the successful one.  Identical spec and
    x0 (seed included) always return the identical pole set.

    Raises
    ------
    SearchExhausted
        After ``max_trials`` candidates without a pass; carries the best
        (largest) p-value seen so the caller can widen the intervals.
    """
    x0 = as_vector(x0, length=spec.n)
    rng = np.random.default_rng(spec.seed)
    los = np.array([iv[0] for iv in spec.intervals])
    widths = np.array([iv[1] for iv in spec.intervals]) - los

    best_p: float | None = None
    best_poles: tuple[float, ...] | None = None
    for trial in range(spec.max_trials):
        # Generator.uniform's own arithmetic: the stream of a one-shot draw
        draw = los + widths * rng.random(spec.n)
        try:
            poles = PoleSet(tuple(draw))
            cert = certify(modal_coeffs(poles, x0))
        except (InvalidPoleSet, SingularMatrix):
            continue
        if best_p is None or cert.p_value > best_p:
            best_p = cert.p_value
            best_poles = poles.lambdas
        if cert.passed:
            return poles, cert, trial + 1
    raise SearchExhausted(spec.max_trials, best_p, best_poles)
