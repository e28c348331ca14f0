import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nosreg.chains import (Exosystem, NonlinearPlant, assemble_mimo,
                           chain_plant, make_chain, split_state)
from nosreg.errors import DimensionMismatch, InvalidOrder


def test_make_chain_order_one():
    c = make_chain(1)
    np.testing.assert_array_equal(c.A, [[0.0]])
    np.testing.assert_array_equal(c.B, [[1.0]])
    np.testing.assert_array_equal(c.C, [[1.0]])


def test_make_chain_order_two():
    c = make_chain(2)
    np.testing.assert_array_equal(c.A, [[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(c.B, [[0.0], [1.0]])
    np.testing.assert_array_equal(c.C, [[1.0, 0.0]])


def test_make_chain_order_four_structure():
    c = make_chain(4)
    assert c.A.shape == (4, 4)
    np.testing.assert_array_equal(np.diag(c.A, k=1), np.ones(3))
    assert np.count_nonzero(c.A) == 3
    np.testing.assert_array_equal(c.B.ravel(), [0, 0, 0, 1])
    np.testing.assert_array_equal(c.C.ravel(), [1, 0, 0, 0])


@pytest.mark.parametrize("bad", [0, -1, 2.5])
def test_make_chain_rejects_bad_orders(bad):
    with pytest.raises(InvalidOrder):
        make_chain(bad)


def _block_diagonal(degrees):
    """Oracle: the block-diagonal (Ac, Bc, Cc) of the decoupled chain from make_chain blocks."""
    gamma, p = sum(degrees), len(degrees)
    Ac, Bc, Cc = np.zeros((gamma, gamma)), np.zeros((gamma, p)), np.zeros((p, gamma))
    at = 0
    for j, g in enumerate(degrees):
        c = make_chain(g)
        Ac[at:at + g, at:at + g] = c.A
        Bc[at:at + g, j] = c.B[:, 0]
        Cc[j, at:at + g] = c.C[0]
        at += g
    return Ac, Bc, Cc


def test_assemble_degrees_two_three():
    # hand-built from the block-diagonal definition
    assert assemble_mimo([2, 3]) == (2, 3)
    Ac = np.zeros((5, 5))
    Ac[0, 1] = Ac[2, 3] = Ac[3, 4] = 1.0
    Bc = np.zeros((5, 2))
    Bc[1, 0] = Bc[4, 1] = 1.0
    Cc = np.zeros((2, 5))
    Cc[0, 0] = Cc[1, 2] = 1.0
    plant = chain_plant((2, 3))
    x = np.arange(1.0, 6.0)
    u = np.array([-7.0, 11.0])
    np.testing.assert_array_equal(plant.dynamics(tuple(x), tuple(u)), Ac @ x + Bc @ u)
    np.testing.assert_array_equal(plant.output(tuple(x)), Cc @ x)


def test_assemble_rejects_empty_and_zero_degrees():
    with pytest.raises(InvalidOrder):
        assemble_mimo([])
    with pytest.raises(InvalidOrder):
        assemble_mimo([2, 0])


@given(order=st.integers(1, 6))
def test_chain_controllability_matrix_is_permutation_of_identity(order):
    c = make_chain(order)
    cols = [np.linalg.matrix_power(c.A, k) @ c.B for k in range(order)]
    ctrb = np.hstack(cols)
    # columns are reversed unit vectors: full rank by construction
    np.testing.assert_array_equal(np.abs(ctrb), np.eye(order)[:, ::-1])


@pytest.mark.parametrize("degrees", [(4,), (2, 3), (1, 4, 2)])
def test_chain_plant_matches_assembled_matrices(degrees):
    # the chain as a plant: xi' = Ac xi + Bc u, y = Cc xi, identity chain map, u = v
    Ac, Bc, Cc = _block_diagonal(degrees)
    plant = chain_plant(degrees)
    rng = np.random.default_rng(0)
    x = tuple(rng.normal(size=sum(degrees)))
    u = tuple(rng.normal(size=len(degrees)))
    np.testing.assert_array_equal(plant.dynamics(x, u), Ac @ x + Bc @ u)
    np.testing.assert_array_equal(plant.output(x), Cc @ x)
    assert tuple(plant.normal_map(x)) == x
    assert tuple(plant.linearizing_feedback(x, u)) == u


def test_split_state_contiguous():
    parts = split_state([1.0, 2.0, 3.0, 4.0], (2, 2))
    np.testing.assert_array_equal(parts[0], [1.0, 2.0])
    np.testing.assert_array_equal(parts[1], [3.0, 4.0])


def test_split_state_single_block():
    (block,) = split_state([0.0, 2.0, -5.0, 4.0], (4,))
    np.testing.assert_array_equal(block, [0.0, 2.0, -5.0, 4.0])


def test_split_state_uneven():
    a, b = split_state([9.0, 1.0, 2.0, 3.0], (1, 3))
    np.testing.assert_array_equal(a, [9.0])
    np.testing.assert_array_equal(b, [1.0, 2.0, 3.0])


def test_split_state_length_mismatch():
    with pytest.raises(DimensionMismatch):
        split_state([1.0, 2.0, 3.0], (2, 2))


def test_exosystem_validation():
    with pytest.raises(DimensionMismatch):
        Exosystem(S=[[0.0, 1.0]], H=[[1.0, 0.0]], w0=[1.0, 0.0])
    with pytest.raises(DimensionMismatch):
        Exosystem(S=[[0.0, 1.0], [-1.0, 0.0]], H=[[1.0]], w0=[1.0, 0.0])
    with pytest.raises(DimensionMismatch):
        Exosystem(S=[[0.0, 1.0], [-1.0, 0.0]], H=[[1.0, 0.0]], w0=[1.0])


def test_plant_validation():
    noop = lambda *a: (0.0,)
    with pytest.raises(DimensionMismatch):
        NonlinearPlant(state_dim=2, degrees=(3,), dynamics=noop,
                       output=noop, normal_map=noop, linearizing_feedback=noop)
    with pytest.raises(InvalidOrder):
        NonlinearPlant(state_dim=4, degrees=(0,), dynamics=noop,
                       output=noop, normal_map=noop, linearizing_feedback=noop)


def test_plant_degrees_follow_the_chain_rule():
    noop = lambda *a: (0.0,)
    with pytest.raises(InvalidOrder):
        NonlinearPlant(state_dim=4, degrees=(2.5,), dynamics=noop,
                       output=noop, normal_map=noop, linearizing_feedback=noop)
    plant = NonlinearPlant(state_dim=4, degrees=[4], dynamics=noop,
                           output=noop, normal_map=noop, linearizing_feedback=noop)
    assert plant.degrees == (4,)
    assert plant.input_dim == 1
