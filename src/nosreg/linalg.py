"""Input validation: coerce numbers, vectors and matrices to checked numpy values.

Matrices are plain ``numpy.ndarray`` values (2-D, float64, row-major).  No
library path solves a general linear system: on a chain the regulator pair,
the feedback and the modal coefficients are all closed forms.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch


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
    """Coerce ``a`` to a finite 1-D float array, optionally checking its length.

    A scalar is a length-1 vector; a nested array is an error, never flattened.
    """
    v = np.atleast_1d(np.asarray(a, dtype=float))
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got ndim={v.ndim}")
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
