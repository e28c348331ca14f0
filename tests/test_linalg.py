import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nosreg.errors import DimensionMismatch, SingularMatrix
from nosreg.linalg import as_matrix, as_vector, lu_solve


def test_identity_solve_returns_rhs():
    B = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    X = lu_solve(np.eye(3), B)
    np.testing.assert_array_equal(X, B)


def test_diagonal_solve():
    X = lu_solve([[2.0, 0.0], [0.0, 4.0]], [[2.0], [8.0]])
    np.testing.assert_allclose(X, [[1.0], [2.0]])


def test_vandermonde_solve_matches_reference_coefficients():
    # columns (1, lam, lam^2, lam^3) over the slow benchmark pole set
    lams = [-4.847, -4.017, -2.432, -0.1032]
    V = np.array([[lam ** k for lam in lams] for k in range(4)])
    alpha = lu_solve(V, np.array([-1.0, 2.0, -4.0, 4.0]))
    np.testing.assert_allclose(
        alpha, [0.2468, -0.3236, -0.7734, -0.1499], atol=5e-4)


def test_one_dimensional_rhs_keeps_shape():
    x = lu_solve([[2.0, 1.0], [1.0, 3.0]], [3.0, 4.0])
    assert x.shape == (2,)
    np.testing.assert_allclose([[2.0, 1.0], [1.0, 3.0]] @ x, [3.0, 4.0])


def test_singular_matrix_reports_pivot_index():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix) as exc:
        lu_solve(A, np.eye(2))
    assert exc.value.pivot_index == 1


def test_non_square_rejected():
    with pytest.raises(DimensionMismatch):
        lu_solve(np.ones((2, 3)), np.ones(2))


def test_rhs_row_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        lu_solve(np.eye(3), np.ones((2, 2)))


def test_nan_entries_rejected():
    with pytest.raises(DimensionMismatch):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        as_vector([np.inf])


@settings(deadline=None, max_examples=60)
@given(n=st.integers(1, 12), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_solve_recovers_random_solutions(n, k, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + n * np.eye(n)   # diagonally dominated: well conditioned
    if np.linalg.cond(A) > 1e8:
        return
    X = rng.normal(size=(n, k))
    X_hat = lu_solve(A, A @ X)
    assert np.max(np.abs(X_hat - X)) <= 1e-8 * max(1.0, np.max(np.abs(X)))
