import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nosreg.certificates import certify, certify_n2, certify_n3_closedform
from nosreg.errors import DimensionMismatch
from nosreg.modal import (ModalDecomposition, PoleSet, modal_coeffs, natural_response,
                          vandermonde)

SLOW_POLES = PoleSet((-4.847, -4.017, -2.432, -0.1032))


def _cert_for_alpha(alpha):
    """Route an explicit alpha through certify by picking x0 = V alpha."""
    n = len(alpha)
    poles = PoleSet(tuple(-float(n - i) for i in range(n)))
    V = np.array([[lam ** k for lam in poles.lambdas] for k in range(n)])
    return certify(modal_coeffs(poles, V @ np.asarray(alpha, float)))


class TestCertify:
    def test_benchmark_alpha(self):
        cert = certify(modal_coeffs(SLOW_POLES, [-1.0, 2.0, -4.0, 4.0]))
        assert cert.c == (1, 0, 0)
        assert cert.p_value == pytest.approx(0.6765, abs=2e-3)
        assert cert.passed

    def test_hand_evaluated_pass(self):
        # alpha = (0.2468, -0.3236, -0.7734, -0.1499):
        # p = 0.1499 + 0.7734 - 0.2468 = 0.6765
        cert = _cert_for_alpha([0.2468, -0.3236, -0.7734, -0.1499])
        assert cert.c == (1, 0, 0)
        assert cert.p_value == pytest.approx(0.6765, abs=1e-9)
        assert cert.passed

    def test_hand_evaluated_fail(self):
        # p = 0.1 + 0.1 - 5 < 0; the test is sufficient only
        cert = _cert_for_alpha([-5.0, 0.1, 0.1])
        assert cert.c == (1, 0)
        assert cert.p_value == pytest.approx(-4.8, abs=1e-9)
        assert not cert.passed

    def test_zero_alpha_passes(self):
        for poles in (SLOW_POLES, PoleSet((-2.0,))):
            cert = certify(modal_coeffs(poles, np.zeros(poles.n)))
            assert cert.passed
            assert cert.p_value == 0.0

    def test_single_mode_always_passes(self):
        cert = certify(modal_coeffs(PoleSet((-2.0,)), [3.0]))
        assert cert.passed

    def test_vanishing_slowest_mode_does_not_blind_the_test(self):
        # with alpha ~ (-5, 1, ~0) the response still crosses zero; the
        # score must fall back to the slowest active mode and reject
        cert = _cert_for_alpha([-5.0, 1.0, 1e-14])
        assert not cert.passed

    def test_tiny_opposing_slowest_mode_fails(self):
        # e^{-2t} - 1e-13 e^{-t} changes sign near t = 13 ln 10 ~ 29.9, so a
        # slowest coefficient 1e-13 of the largest must still be scored
        poles = PoleSet((-2.0, -1.0))
        alpha = np.array([1.0, -1e-13])
        V = vandermonde(poles)
        decomp = ModalDecomposition(poles=poles, V=V, alpha=alpha, x0=V @ alpha)
        assert natural_response(decomp, 29.0) > 0.0 > natural_response(decomp, 31.0)
        cert = certify(decomp)
        assert cert.c == (1,)
        assert cert.p_value < 0.0
        assert not cert.passed

    def test_verdict_does_not_depend_on_scale(self):
        # alpha ~ (1, -2, 1) opposes the slowest mode at any scale; a sign
        # test by products would see 1e-277 * 1e-277 underflow to zero
        for scale in (1.0, 1e-160, 1e-277):
            cert = _cert_for_alpha([scale, -2.0 * scale, scale])
            assert cert.c == (0, 1)
            assert not cert.passed

    @given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6),
           st.sampled_from([1.0, -1.0]))
    def test_single_sign_mixture_always_passes(self, mags, sign):
        cert = _cert_for_alpha([sign * m for m in mags])
        assert cert.c == (0,) * (len(mags) - 1)
        assert cert.p_value == pytest.approx(mags[-1] + mags[-2], rel=1e-9)
        assert cert.passed

    @settings(deadline=None, max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
    def test_passing_certificates_are_sound(self, seed, n):
        rng = np.random.default_rng(seed)
        gaps = rng.uniform(0.1, 3.0, size=n)
        poles = PoleSet(tuple(-np.cumsum(gaps[::-1])[::-1]))
        x0 = rng.uniform(-5.0, 5.0, size=n)
        decomp = modal_coeffs(poles, x0)
        if not certify(decomp).passed:
            return
        y = natural_response(decomp, np.linspace(0.0, 60.0, 2000))
        out = np.abs(y) > 1e-9
        if out.any():
            s0 = np.sign(y[out][0])
            assert np.all(s0 * y >= -1e-9)


class TestCertifyN2:
    def test_first_quadrant_any_poles(self):
        q, passed = certify_n2([1.0, 1.0], PoleSet((-7.3, -0.2)))
        assert q == pytest.approx((1.0 + 7.3) / 7.1)
        assert passed

    def test_fourth_quadrant_admissible(self):
        q, passed = certify_n2([1.0, -2.0], PoleSet((-3.0, -1.0)))
        assert q == pytest.approx(0.5)
        assert passed

    def test_fourth_quadrant_violating(self):
        q, passed = certify_n2([1.0, -2.0], PoleSet((-1.5, -1.0)))
        assert q == pytest.approx(-1.0)
        assert not passed

    def test_zero_state_passes(self):
        q, passed = certify_n2([0.0, 0.0], PoleSet((-2.0, -1.0)))
        assert q == 0.0
        assert passed

    def test_wrong_size_rejected(self):
        with pytest.raises(DimensionMismatch):
            certify_n2([1.0, 2.0], PoleSet((-3.0, -2.0, -1.0)))

    @settings(deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_pass_implies_no_simulated_sign_change(self, seed):
        # q > 0 and p > 0 are different sufficient tests; both must be sound
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-5.0, 5.0, size=2)
        lam1 = -rng.uniform(0.2, 8.0)
        lam2 = lam1 * (1.0 - rng.uniform(0.1, 0.9))
        poles = PoleSet((lam1, lam2))
        q, passed = certify_n2(x0, poles)
        if not passed:
            return
        y = natural_response(modal_coeffs(poles, x0), np.linspace(0.0, 60.0, 2000))
        out = np.abs(y) > 1e-9
        if out.any():
            s0 = np.sign(y[out][0])
            assert np.all(s0 * y >= -1e-9)


class TestCertifyN3:
    def test_zero_state(self):
        f1, f2, f3, p = certify_n3_closedform(np.zeros(3), PoleSet((-3.0, -2.0, -1.0)))
        assert (f1, f2, f3, p) == (0.0, 0.0, 0.0, 0.0)

    def test_unit_first_component(self):
        f1, f2, f3, _ = certify_n3_closedform([1.0, 0.0, 0.0],
                                              PoleSet((-3.0, -2.0, -1.0)))
        assert f1 == pytest.approx(6.0)   # lam1*lam2
        assert f2 == pytest.approx(2.0)   # lam2*lam3
        assert f3 == pytest.approx(3.0)   # lam1*lam3

    @settings(deadline=None, max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_numeric_path(self, seed):
        rng = np.random.default_rng(seed)
        gaps = rng.uniform(0.3, 4.0, size=3)
        poles = PoleSet(tuple(-np.cumsum(gaps[::-1])[::-1]))
        x0 = rng.uniform(-5.0, 5.0, size=3)
        *_, p_closed = certify_n3_closedform(x0, poles)
        p_numeric = certify(modal_coeffs(poles, x0)).p_value
        assert abs(p_closed - p_numeric) <= 1e-9
