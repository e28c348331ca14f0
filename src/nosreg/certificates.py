"""Sufficient conditions for the closed-loop natural response to keep one sign.

The general test scores the modal coefficients ``alpha`` (slowest mode last):
with ``c_k = 1`` when ``alpha_k`` opposes the slowest coefficient in sign and
0 otherwise,

    p = |alpha_n| + (1 - c_{n-1}) |alpha_{n-1}| - sum_k c_k |alpha_k|

and ``p > 0`` guarantees no sign change for t >= 0.  The test is sufficient
only: a failing p says nothing about the true response.  The slowest mode is
the last nonzero coefficient; every nonzero coefficient counts, however small,
since a tiny one that opposes the rest still turns the response around late.

Two low-order refinements are provided: a quadrant rule for n = 2 and
closed-form expressions for n = 3, the divided differences that
``modal_coeffs`` computes for any n, written out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import as_vector
from .modal import ModalDecomposition, PoleSet


@dataclass(frozen=True, eq=False)
class Certificate:
    """Outcome of the sign-invariance test for one modal decomposition."""

    alpha: np.ndarray
    c: tuple[int, ...]
    p_value: float
    passed: bool


def _score(alpha: np.ndarray) -> tuple[np.ndarray, float]:
    """Sign pattern and p-score of a modal coefficient vector.

    The test is applied against the slowest *active* mode, the last nonzero
    coefficient: a zero alpha_n would otherwise blind it to sign mixing among
    the remaining modes.
    """
    active = np.flatnonzero(alpha)
    last = int(active[-1]) if active.size else 0
    mag = np.abs(alpha)
    c = np.zeros(alpha.size - 1, dtype=int)
    # compare signs, not products: a product of tiny coefficients underflows to 0
    c[:last] = (np.sign(alpha[:last]) == -np.sign(alpha[last])).astype(int)
    if last == 0:
        # at most one active mode: one decaying exponential never changes sign
        return c, float(mag[0])
    p = (mag[last] + (1 - c[last - 1]) * mag[last - 1]
         - float(c[:last] @ mag[:last]))
    return c, float(p)


def certify(decomp: ModalDecomposition) -> Certificate:
    """Test whether the natural response from ``decomp.x0`` can change sign.

    ``passed`` is True when p > 0, and also for the two trivial cases: a
    zero transient (alpha identically zero) and n = 1.
    """
    alpha = decomp.alpha
    c, p = _score(alpha)
    zero = not np.any(alpha)
    return Certificate(alpha=alpha, c=tuple(int(k) for k in c), p_value=p,
                       passed=bool(p > 0.0 or zero))


def certify_n2(x0, poles: PoleSet) -> tuple[float, bool]:
    """Quadrant rule for a second-order chain.

    ``q = (x01*x02 - lam1*x01^2) / (lam2 - lam1)``; the response from ``x0``
    keeps one sign whenever q > 0.  In the first or third quadrant any stable
    poles pass; in the second or fourth the rule demands lam1 < x02/x01.
    """
    x0 = as_vector(x0, length=2)
    if poles.n != 2:
        raise DimensionMismatch("certify_n2 needs exactly two poles")
    lam1, lam2 = poles.lambdas
    q = (x0[0] * x0[1] - lam1 * x0[0] ** 2) / (lam2 - lam1)
    return float(q), bool(q > 0.0 or not np.any(x0))


def certify_n3_closedform(x0, poles: PoleSet) -> tuple[float, float, float, float]:
    """Closed-form certificate for a third-order chain; returns (f1, f2, f3, p).

    The three symmetric forms

        f1 = x03 - (lam1+lam2) x02 + lam1 lam2 x01   (and cyclic variants)

    determine the modal coefficients through divided differences:
    alpha = (f2/d12/d13, -f3/d12/d23, f1/d13/d23) with d_ij = lam_i - lam_j.
    The returned p is scored from that closed-form alpha.  ``modal_coeffs``
    computes the same divided differences by the Bjorck-Pereyra recurrence,
    so ``certify`` on it agrees with this p to rounding.
    """
    x0 = as_vector(x0, length=3)
    if poles.n != 3:
        raise DimensionMismatch("certify_n3_closedform needs exactly three poles")
    l1, l2, l3 = poles.lambdas
    f1 = x0[2] - (l1 + l2) * x0[1] + l1 * l2 * x0[0]
    f2 = x0[2] - (l2 + l3) * x0[1] + l2 * l3 * x0[0]
    f3 = x0[2] - (l1 + l3) * x0[1] + l1 * l3 * x0[0]
    d12, d13, d23 = l1 - l2, l1 - l3, l2 - l3
    alpha = np.array([f2 / (d12 * d13), -f3 / (d12 * d23), f1 / (d13 * d23)])
    _, p = _score(alpha)
    return float(f1), float(f2), float(f3), p
