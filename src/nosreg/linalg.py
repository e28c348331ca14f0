"""Small dense real-matrix kernel: validated construction and an LU solve.

Matrices are plain ``numpy.ndarray`` values (2-D, float64, row-major).  No
library path solves a general linear system: on a chain the regulator pair,
the feedback and the modal coefficients are all closed forms.  ``lu_solve``,
a partial-pivoting LU with an explicit singularity threshold, stays only
because the benchmark tracer patches ``nosreg.modal.lu_solve`` and
``nosreg.regulation.lu_solve``; it goes with the next change to the benchmark.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

# Relative pivot threshold: a pivot smaller than this times the largest
# initial entry of A is treated as zero.
PIVOT_RTOL = 1e-12


def as_matrix(a, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce ``a`` to a finite 2-D float array, optionally checking its shape."""
    m = np.atleast_2d(np.asarray(a, dtype=float))
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise DimensionMismatch("matrix entries must be finite (no NaN/Inf)")
    if rows is not None and m.shape[0] != rows:
        raise DimensionMismatch(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise DimensionMismatch(f"expected {cols} columns, got {m.shape[1]}")
    return m


def as_vector(a, length: int | None = None) -> np.ndarray:
    """Coerce ``a`` to a finite 1-D float array, optionally checking its length."""
    v = np.asarray(a, dtype=float).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise DimensionMismatch("vector entries must be finite (no NaN/Inf)")
    if length is not None and v.size != length:
        raise DimensionMismatch(f"expected length {length}, got {v.size}")
    return v


def as_int(value, name: str) -> int:
    """Coerce an integral number to ``int``; a fraction, a bool or a non-number is an error."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer))
                                       or isinstance(value, float) and value.is_integer()):
        raise DimensionMismatch(f"{name} must be an integer, got {value!r}")
    return int(value)


def lu_solve(A, B) -> np.ndarray:
    """Solve ``A @ X = B`` by LU elimination with partial pivoting.

    Parameters
    ----------
    A : (n, n) array_like
        Square coefficient matrix.
    B : (n, k) or (n,) array_like
        Right-hand side(s).

    Returns
    -------
    X : ndarray with the shape of ``B``.

    Raises
    ------
    SingularMatrix
        If any pivot magnitude falls below ``PIVOT_RTOL * max|A|``; the
        exception reports the offending pivot index.
    """
    A = as_matrix(A)
    n = A.shape[0]
    if A.shape[1] != n:
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    b_in = np.asarray(B, dtype=float)
    one_dim = b_in.ndim == 1
    if one_dim:
        X = as_vector(b_in, length=n).reshape(n, 1)
    else:
        X = as_matrix(b_in, rows=n)

    U = A.copy()
    X = X.copy()
    scale = np.max(np.abs(U)) if n else 0.0
    threshold = PIVOT_RTOL * max(scale, 1e-300)

    for k in range(n):
        p = k + int(np.argmax(np.abs(U[k:, k])))
        if abs(U[p, k]) < threshold:
            raise SingularMatrix(
                f"matrix is singular to working precision: pivot {k} has "
                f"magnitude {abs(U[p, k]):.3e} < threshold {threshold:.3e}",
                pivot_index=k)
        if p != k:
            U[[k, p]] = U[[p, k]]
            X[[k, p]] = X[[p, k]]
        if k + 1 < n:
            mult = U[k + 1:, k] / U[k, k]
            U[k + 1:, k + 1:] -= np.outer(mult, U[k, k + 1:])
            X[k + 1:] -= np.outer(mult, X[k])

    for k in range(n - 1, -1, -1):
        X[k] -= U[k, k + 1:] @ X[k + 1:]
        X[k] /= U[k, k]

    return X[:, 0] if one_dim else X
