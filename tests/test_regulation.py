import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nosreg.chains import Exosystem, assemble_mimo, make_chain
from nosreg.errors import CertificateFailed, DimensionMismatch, SingularMatrix
from nosreg.modal import PoleSet, modal_coeffs, moore_feedback
from nosreg.regulation import (nominal_ic, solve_sylvester, synthesize)

ROTATION = Exosystem(S=[[0.0, 1.0], [-1.0, 0.0]], H=[[1.0, 0.0]], w0=[1.0, 0.0])
SLOW_POLES = PoleSet((-4.847, -4.017, -2.432, -0.1032))


class TestSolveSylvester:
    def test_fourth_order_chain_against_rotation(self):
        # at omega = 1e3 the entries span twelve decades, so each is compared
        # relative to its own scale omega^k
        for omega in (1.0, 1e3):
            exo = Exosystem(S=[[0.0, omega], [-omega, 0.0]], H=[[1.0, 0.0]],
                            w0=[1.0, 0.0])
            Pi, Gamma = solve_sylvester(make_chain(4), exo, [[1.0, 0.0]])
            scale = np.array([[omega ** k] for k in range(4)])
            np.testing.assert_allclose(
                Pi / scale,
                [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], atol=1e-12)
            np.testing.assert_allclose(Gamma / omega ** 4, [[1.0, 0.0]], atol=1e-12)

    def test_order_one_constant_reference(self):
        exo = Exosystem(S=[[0.0]], H=[[1.0]], w0=[2.0])
        Pi, Gamma = solve_sylvester(make_chain(1), exo, [[1.0]])
        np.testing.assert_allclose(Pi, [[1.0]], atol=1e-12)
        np.testing.assert_allclose(Gamma, [[0.0]], atol=1e-12)

    def test_order_two_constant_reference(self):
        exo = Exosystem(S=[[0.0]], H=[[1.0]], w0=[2.0])
        Pi, Gamma = solve_sylvester(make_chain(2), exo, [[1.0]])
        np.testing.assert_allclose(Pi, [[1.0], [0.0]], atol=1e-12)
        np.testing.assert_allclose(Gamma, [[0.0]], atol=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(order=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_solution_satisfies_both_equations(self, order, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        S = rng.uniform(-2.0, 2.0, size=(m, m))
        H_row = rng.uniform(-3.0, 3.0, size=(1, m))
        exo = Exosystem(S=S, H=H_row, w0=np.zeros(m))
        chain = make_chain(order)
        Pi, Gamma = solve_sylvester(chain, exo, H_row)
        scale = max(1.0, np.max(np.abs(Pi)), np.max(np.abs(Gamma)))
        assert np.max(np.abs(Pi @ S - chain.A @ Pi - chain.B @ Gamma)) <= 1e-9 * scale
        assert np.max(np.abs(chain.C @ Pi - H_row)) <= 1e-9 * scale


class TestNominalIC:
    def test_on_manifold_start_is_zero(self):
        Pi = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        w0 = np.array([1.0, 0.0])
        np.testing.assert_array_equal(nominal_ic(Pi @ w0, Pi, w0), np.zeros(4))

    def test_benchmark_offset(self):
        Pi = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        out = nominal_ic([0.0, 2.0, -5.0, 4.0], Pi, [1.0, 0.0])
        np.testing.assert_array_equal(out, [-1.0, 2.0, -4.0, 4.0])

    def test_quiescent_exosystem(self):
        Pi = np.eye(3)
        xi0 = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(nominal_ic(xi0, Pi, np.zeros(3)), xi0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            nominal_ic([1.0, 2.0], np.eye(3), np.zeros(3))


class TestSynthesize:
    def test_benchmark_gains(self):
        mimo = assemble_mimo([4])
        gains = synthesize(mimo, ROTATION, [0.0, 2.0, -5.0, 4.0], [SLOW_POLES])
        np.testing.assert_allclose(gains.F, [[-4.89, -51.6, -42.2, -11.4]], atol=0.05)
        np.testing.assert_allclose(gains.G, [[-36.3, 40.2]], atol=0.05)
        sub = gains.subsystems[0]
        assert sub.cert.passed
        np.testing.assert_array_equal(gains.F[0], sub.F[0])
        # G = Gamma - F Pi holds exactly as computed
        np.testing.assert_array_equal(sub.G, sub.Gamma - sub.F @ sub.Pi)

    def test_rejects_pole_set_failing_certificate(self):
        # the same poles cannot certify this initial condition (p < 0)
        mimo = assemble_mimo([4])
        with pytest.raises(CertificateFailed) as exc:
            synthesize(mimo, ROTATION, [1.0, 3.0, 1.0, 16.0], [SLOW_POLES])
        assert exc.value.subsystem == 0
        assert exc.value.p_value < 0.0

    def test_on_manifold_start_passes_trivially(self):
        mimo = assemble_mimo([4])
        Pi, Gamma = solve_sylvester(make_chain(4), ROTATION, [[1.0, 0.0]])
        xi0 = Pi @ ROTATION.w0
        gains = synthesize(mimo, ROTATION, xi0, [SLOW_POLES])
        sub = gains.subsystems[0]
        assert sub.cert.passed
        np.testing.assert_array_equal(sub.decomp.alpha, np.zeros(4))
        np.testing.assert_array_equal(sub.G, sub.Gamma - sub.F @ sub.Pi)

    def test_mimo_assembly_is_block_structured(self):
        exo = Exosystem(S=[[0.0, 1.0], [-1.0, 0.0]],
                        H=[[1.0, 0.0], [0.0, 1.0]], w0=[0.0, 0.0])
        mimo = assemble_mimo([2, 3])
        gains = synthesize(mimo, exo, np.zeros(5),
                           [PoleSet((-2.0, -1.0)), PoleSet((-3.0, -2.0, -1.0))])
        assert gains.F.shape == (2, 5)
        np.testing.assert_array_equal(gains.F[0, 2:], np.zeros(3))
        np.testing.assert_array_equal(gains.F[1, :2], np.zeros(2))
        np.testing.assert_array_equal(gains.F[0, :2], gains.subsystems[0].F[0])
        np.testing.assert_array_equal(gains.F[1, 2:], gains.subsystems[1].F[0])
        assert gains.G.shape == (2, 2)

    def test_singular_feedback_keeps_pivot_index(self):
        # poles 2e-6 apart leave V too ill-conditioned for a nonzero offset;
        # synthesize reports it with the subsystem prefix
        poles = PoleSet(tuple(sorted(-1.0 - 2e-6 * k for k in range(4))))
        with pytest.raises(SingularMatrix):
            modal_coeffs(poles, np.ones(4))
        # the zero offset has the exact alpha = 0, and the gains need no
        # solve: F is minus the expanded pole polynomial
        np.testing.assert_array_equal(modal_coeffs(poles, np.zeros(4)).alpha, np.zeros(4))
        np.testing.assert_allclose(
            moore_feedback(poles),
            [[-1.000012000044, -4.000036000088, -6.000036000044, -4.000012]],
            rtol=0.0, atol=1e-12)
        exo = Exosystem(S=[[0.0]], H=[[1.0]], w0=[0.0])
        gains = synthesize(assemble_mimo([4]), exo, np.zeros(4), [poles])
        np.testing.assert_array_equal(gains.F, moore_feedback(poles))
        with pytest.raises(SingularMatrix) as exc:
            synthesize(assemble_mimo([4]), exo, np.ones(4), [poles])
        assert str(exc.value).startswith("subsystem 0: ")

    def test_pole_set_count_must_match(self):
        with pytest.raises(DimensionMismatch):
            synthesize(assemble_mimo([4]), ROTATION, np.zeros(4),
                       [SLOW_POLES, SLOW_POLES])

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_closed_loop_manifold_invariance(self, seed):
        # (A + B F) Pi + B G = Pi S for the synthesized gains; a quiescent
        # exosystem start keeps the certificate out of the way
        rng = np.random.default_rng(seed)
        quiet = Exosystem(S=ROTATION.S, H=ROTATION.H, w0=[0.0, 0.0])
        gamma = int(rng.integers(1, 5))
        gaps = rng.uniform(0.2, 2.0, size=gamma)
        poles = PoleSet(tuple(-np.cumsum(gaps[::-1])[::-1]))
        mimo = assemble_mimo([gamma])
        gains = synthesize(mimo, quiet, np.zeros(gamma), [poles])
        sub = gains.subsystems[0]
        chain = make_chain(gamma)
        lhs = (chain.A + chain.B @ sub.F) @ sub.Pi + chain.B @ sub.G
        rhs = sub.Pi @ quiet.S
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * scale
