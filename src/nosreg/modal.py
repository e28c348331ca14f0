"""Eigenstructure tools for a single integrator chain.

On a chain of order ``n`` the closed loop ``A + B F`` is in companion form
with last row ``F``, so the pole-placing feedback is fixed by the pole set
alone: ``F`` is minus the coefficients of ``prod_i (s - lam_i)``, constant
term first.  The eigenvector of a stable real pole ``lam``, normalized to
unit output, is ``v = (1, lam, lam^2, ..., lam^(n-1))``; collecting them over
a pole set gives the Vandermonde matrix ``V``, and the natural output
response from ``x0`` is the modal mixture ``sum_i alpha_i e^{lam_i t}`` with
``alpha = V^{-1} x0``, which the Bjorck-Pereyra recurrence gives in O(n^2)
with no general solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidPoleSet, SingularMatrix
# lu_solve is unused here; the benchmark tracer patches nosreg.modal.lu_solve
from .linalg import as_vector, lu_solve


@dataclass(frozen=True)
class PoleSet:
    """Strictly increasing, strictly negative real poles; ``modal_coeffs`` judges closeness."""

    lambdas: tuple[float, ...]

    def __post_init__(self):
        lams = tuple(float(l) for l in self.lambdas)
        object.__setattr__(self, "lambdas", lams)
        if len(lams) == 0:
            raise InvalidPoleSet("pole set must be nonempty")
        if not all(np.isfinite(lams)):
            raise InvalidPoleSet("poles must be finite")
        if lams[-1] >= 0.0:
            raise InvalidPoleSet(f"poles must be negative, got {lams[-1]}")
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise InvalidPoleSet(f"poles must strictly increase, got {lams}")

    @property
    def n(self) -> int:
        return len(self.lambdas)

    def as_array(self) -> np.ndarray:
        return np.array(self.lambdas)


@dataclass(frozen=True, eq=False)
class ModalDecomposition:
    """Eigenvector matrix V and modal coefficients for one x0."""

    poles: PoleSet
    V: np.ndarray
    alpha: np.ndarray
    x0: np.ndarray


def vandermonde(poles: PoleSet) -> np.ndarray:
    """The n x n eigenvector matrix V, column i being ``(1, lam_i, ..., lam_i^(n-1))``."""
    return np.vander(poles.as_array(), poles.n, increasing=True).T


def moore_feedback(poles: PoleSet) -> np.ndarray:
    """Pole-placing state feedback F, of shape (1, n), for an order-n chain.

    The closed loop ``A + B F`` is companion-form with last row F, so F is
    minus the coefficients of ``prod_i (s - lam_i)``, constant term first,
    and the eigenvalues of ``A + B F`` are the pole set.  With every pole
    negative the expansion sums only positive terms, so it is accurate to a
    few ulps.
    """
    return -np.poly(poles.as_array())[:0:-1][None, :]


def _bjorck_pereyra(lams, b) -> list[float]:
    """Solve ``V z = b`` for the Vandermonde ``V`` of ``lams`` in O(n^2) floats.

    Bjorck & Pereyra (Math. Comp. 24, 1970); Golub & Van Loan, Alg. 4.6.2.
    ``V^{-1}`` factors into bidiagonal matrices: the first sweep applies the
    lower ones, the second divides by the pole gaps and applies the upper ones.
    A ``PoleSet``'s poles strictly increase, so no gap is zero.
    """
    n = len(lams)
    z = list(b)
    for k in range(n - 1):
        lam = lams[k]
        for i in range(n - 1, k, -1):
            z[i] -= lam * z[i - 1]
    for k in range(n - 2, -1, -1):
        for i in range(k + 1, n):
            z[i] /= lams[i] - lams[i - k - 1]
        for i in range(k, n - 1):
            z[i] -= z[i + 1]
    return z


def modal_coeffs(poles: PoleSet, x0) -> ModalDecomposition:
    """Coordinates of ``x0`` in the closed-loop eigenvector basis: solve V alpha = x0.

    ``alpha`` comes from the Bjorck-Pereyra recurrence plus one step of
    residual refinement.  The bare recurrence is forward accurate, but with
    poles out to several hundred its residual ``V alpha - x0`` reaches 1e-7
    to 1e-5; the refinement step brings it down to the rounding of ``V alpha``.

    Raises
    ------
    SingularMatrix
        If ``max|V alpha - x0|`` exceeds ``1e-9 * max(1, max|x0|)``, as it
        does for poles too close to tell apart; no other rule bounds their gap.
    """
    x0 = as_vector(x0, length=poles.n)
    V = vandermonde(poles)
    lams = poles.lambdas
    alpha = np.array(_bjorck_pereyra(lams, x0.tolist()))
    alpha += _bjorck_pereyra(lams, (x0 - V @ alpha).tolist())
    resid = np.max(np.abs(V @ alpha - x0))
    tol = 1e-9 * max(1.0, np.max(np.abs(x0)))
    if not resid <= tol:   # a NaN residual is rejected too
        raise SingularMatrix(
            f"eigenvector basis too ill-conditioned: residual {resid:g} > {tol:g}")
    return ModalDecomposition(poles=poles, V=V, alpha=alpha, x0=x0)


def natural_response(decomp: ModalDecomposition, t):
    """Closed-loop natural output ``sum_i alpha_i exp(lambda_i t)`` at time(s) ``t``."""
    lams = decomp.poles.as_array()
    t_arr = np.asarray(t, dtype=float)
    y = np.exp(np.multiply.outer(t_arr, lams)) @ decomp.alpha
    return float(y) if t_arr.ndim == 0 else y
