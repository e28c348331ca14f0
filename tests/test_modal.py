from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from nosreg.certificates import certify
from nosreg.chains import make_chain
from nosreg.errors import InvalidPoleSet, SingularMatrix
from nosreg.modal import (PoleSet, modal_coeffs, moore_feedback,
                          natural_response, vandermonde)
from reference import rk4_step

SLOW_POLES = PoleSet((-4.847, -4.017, -2.432, -0.1032))

# strictly increasing negative poles with a workable separation
pole_lists = st.integers(2, 6).flatmap(
    lambda n: st.lists(st.floats(-20.0, -0.05), min_size=n, max_size=n)
).map(sorted).filter(lambda ls: np.diff(ls).min() >= 0.05 if len(ls) > 1 else True)


class TestPoleSet:
    def test_rejects_nonnegative(self):
        with pytest.raises(InvalidPoleSet):
            PoleSet((-2.0, 0.0))
        with pytest.raises(InvalidPoleSet):
            PoleSet((-2.0, 1.0))

    def test_rejects_unordered_and_close(self):
        with pytest.raises(InvalidPoleSet):
            PoleSet((-1.0, -2.0))
        with pytest.raises(InvalidPoleSet):
            PoleSet((-1.0, -1.0))

    def test_accepts_admissible(self):
        ps = PoleSet((-3.0, -2.0, -1.0))
        assert ps.n == 3
        np.testing.assert_array_equal(ps.as_array(), [-3.0, -2.0, -1.0])


class TestRosenbrock:
    # column i of V with w = lam_i^n solves the Rosenbrock system
    # [A - lam_i I, B; C, 0] (v, w) = (0, 1) of an order-n chain

    def test_small_cases(self):
        ps = PoleSet((-2.0, -1.0))
        V = vandermonde(ps)
        np.testing.assert_array_equal(V[:, 1], [1.0, -1.0])
        assert (moore_feedback(ps) @ V[:, 1])[0] == 1.0
        ps = PoleSet((-3.0, -2.0, -1.0, -0.5))
        V = vandermonde(ps)
        np.testing.assert_array_equal(V[:, 1], [1.0, -2.0, 4.0, -8.0])
        assert (moore_feedback(ps) @ V[:, 1])[0] == 16.0

    @given(lams=st.integers(1, 8).flatmap(
        lambda n: st.lists(st.floats(-30.0, -0.01), min_size=n, max_size=n,
                           unique=True)).map(sorted))
    def test_defining_identity_is_exact(self, lams):
        # row k of (A - lam I) v reads v[k+1] - lam v[k] for k < n - 1, which
        # the iterated-product construction of V zeroes exactly
        ps = PoleSet(tuple(lams))
        V = vandermonde(ps)
        c = make_chain(ps.n)
        for i, lam in enumerate(lams):
            v = V[:, i]
            rows = [v[k + 1] - lam * v[k] for k in range(ps.n - 1)]
            assert rows == [0.0] * (ps.n - 1)
            assert (c.C @ v)[0] == 1.0

    @settings(deadline=None)
    @given(lams=pole_lists)
    def test_closed_form_matches_numeric_block_solve(self, lams):
        # solving the defining block system numerically reproduces (v, w)
        n = len(lams)
        c = make_chain(n)
        ps = PoleSet(tuple(lams))
        V = vandermonde(ps)
        for i, lam in enumerate(lams):
            M = np.zeros((n + 1, n + 1))
            M[:n, :n] = c.A - lam * np.eye(n)
            M[:n, n] = c.B[:, 0]
            M[n, :n] = c.C[0]
            rhs = np.zeros(n + 1)
            rhs[n] = 1.0
            sol = np.linalg.solve(M, rhs)
            v = V[:, i]
            # row n - 1 of the block system reads w - lam v[n-1] = 0, so w is
            # lam^n, exact here; (F v)[0] would sum cancelling terms.  The
            # eigenvector test below ties F to V
            w = lam * v[-1]
            scale = max(1.0, np.max(np.abs(v)), abs(w))
            assert np.max(np.abs(sol[:n] - v)) <= 1e-9 * scale
            assert abs(sol[n] - w) <= 1e-9 * scale

    @settings(deadline=None)
    @given(lams=pole_lists)
    def test_columns_are_closed_loop_eigenvectors(self, lams):
        # F and V share no code: (A + B F) V[:, i] = lam_i V[:, i] ties them.
        # Only the last row, F v - lam v[-1], is rounded; its scale is the sum
        # of the magnitudes it adds up
        ps = PoleSet(tuple(lams))
        V = vandermonde(ps)
        F = moore_feedback(ps)
        c = make_chain(ps.n)
        cl = c.A + c.B @ F
        for i, lam in enumerate(lams):
            v = V[:, i]
            resid = cl @ v - lam * v
            assert np.all(resid[:-1] == 0.0)
            scale = (np.abs(F) @ np.abs(v))[0] + abs(lam * v[-1])
            assert abs(resid[-1]) <= 1e-14 * scale


class TestMooreFeedback:
    def test_scalar_case(self):
        F = moore_feedback(PoleSet((-1.0,)))
        np.testing.assert_allclose(F, [[-1.0]])

    def test_two_pole_case_matches_expanded_polynomial(self):
        # (s+1)(s+2) = s^2 + 3s + 2  =>  F = -[2, 3]
        F = moore_feedback(PoleSet((-2.0, -1.0)))
        np.testing.assert_allclose(F, [[-2.0, -3.0]], atol=1e-12)

    def test_benchmark_pole_set(self):
        F = moore_feedback(SLOW_POLES)
        np.testing.assert_allclose(F, [[-4.89, -51.6, -42.2, -11.4]], atol=0.05)

    def test_characteristic_polynomial_matches_pole_product(self):
        # random admissible pole sets, n <= 6; deliberately *random*, since
        # pathological clusters (6 poles packed at magnitude 20) make the
        # eigenvalues of the companion matrix A + B F, and so the independent
        # route below, far less accurate than for any sane design
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 500:
            n = int(rng.integers(1, 7))
            lams = np.sort(rng.uniform(-20.0, -0.05, size=n))
            if n > 1 and np.diff(lams).min() < 0.05:
                continue
            ps = PoleSet(tuple(lams))
            F = moore_feedback(ps)
            c = make_chain(n)
            achieved = np.poly(c.A + c.B @ F)  # via eigenvalues: independent route
            target = np.poly(ps.as_array())    # expand prod(s - lam_i)
            assert np.max(np.abs(achieved - target)) <= 1e-6 * np.max(np.abs(target))
            checked += 1

    def test_closed_loop_is_companion_with_last_row_f(self):
        F = moore_feedback(SLOW_POLES)
        c = make_chain(4)
        cl = c.A + c.B @ F
        np.testing.assert_array_equal(cl[:-1], c.A[:-1])
        np.testing.assert_array_equal(cl[-1], F[0])


class TestModalCoeffs:
    def test_zero_initial_condition(self):
        d = modal_coeffs(SLOW_POLES, np.zeros(4))
        np.testing.assert_array_equal(d.alpha, np.zeros(4))

    def test_benchmark_coefficients(self):
        d = modal_coeffs(SLOW_POLES, [-1.0, 2.0, -4.0, 4.0])
        np.testing.assert_allclose(
            d.alpha, [0.2468, -0.3236, -0.7734, -0.1499], atol=5e-4)

    def test_eigenvector_maps_to_basis_vector(self):
        V = vandermonde(SLOW_POLES)
        for i in range(4):
            d = modal_coeffs(SLOW_POLES, V[:, i])
            e_i = np.zeros(4)
            e_i[i] = 1.0
            np.testing.assert_allclose(d.alpha, e_i, atol=1e-10)

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x0 = rng.uniform(-10, 10, size=4)
            d = modal_coeffs(SLOW_POLES, x0)
            tol = 1e-9 * max(1.0, np.max(np.abs(x0)))
            assert np.max(np.abs(d.V @ d.alpha - x0)) <= tol

    def test_repeated_pole_is_singular(self):
        # a repeated pole has no Vandermonde basis: PoleSet refuses it outright
        with pytest.raises(InvalidPoleSet):
            PoleSet((-2.0, -1.0, -1.0))

    def test_close_pair_is_judged_by_the_residual_guard(self):
        # poles 1e-9 apart from x0 = (1, 0): the response is close to
        # (1 + t) e^{-t}, resolved to rounding although |alpha| ~ 1e9
        poles = PoleSet((-1.0 - 1e-9, -1.0))
        d = modal_coeffs(poles, [1.0, 0.0])
        assert np.max(np.abs(d.V @ d.alpha - d.x0)) <= 1e-9
        assert certify(d).passed
        ts = np.array([0.5, 2.0, 10.0])
        np.testing.assert_allclose(natural_response(d, ts), (1 + ts) * np.exp(-ts),
                                   rtol=1e-6)

    def test_overflowing_basis_is_rejected(self):
        # lam^2 overflows V to inf, so the residual is NaN; NaN > tol is
        # False, and only a guard written as "not resid <= tol" rejects it
        poles = PoleSet((-1e200, -1e100, -1.0))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SingularMatrix):
            modal_coeffs(poles, [1.0, 1.0, 1.0])


def _exact_inverse(lams):
    """V^{-1} for V[i][j] = lams[j]**i, by Gauss-Jordan elimination in rationals."""
    n = len(lams)
    exact = [Fraction(lam) for lam in lams]
    rows = [[lam ** i for lam in exact] + [Fraction(int(i == k)) for k in range(n)]
            for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def _exact_p(alpha):
    """certify's p-score of exact coefficients, against the last nonzero one."""
    mag = [abs(a) for a in alpha]
    last = max(k for k, a in enumerate(alpha) if a != 0)
    if last == 0:
        return mag[0]
    c = [int(alpha[k] * alpha[last] < 0) for k in range(last)]
    return mag[last] + (1 - c[last - 1]) * mag[last - 1] - sum(
        ck * mk for ck, mk in zip(c, mag))


# offsets down to 1e-250, so products of coefficients can underflow while
# the solve itself stays clear of subnormal numbers
offsets = st.floats(-2.0, 2.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-250)


@st.composite
def oracle_cases(draw):
    """A pole set (order 2-6, gaps 0.05-3) with an offset x0.

    In a quarter of the sets one gap is squeezed to 1e-9-1e-6, which only
    the residual guard of ``modal_coeffs`` judges.  Half the offsets are
    random; the other half are built as x0 = V alpha (rounded to floats) from
    an alpha whose p-score is a tiny delta of either sign, so the verdict sits
    at the edge of the certificate.
    """
    n = draw(st.integers(2, 6))
    gaps = [draw(st.floats(0.05, 3.0)) for _ in range(n - 1)]
    if draw(st.integers(0, 3)) == 0:
        gaps[draw(st.integers(0, n - 2))] = 10.0 ** draw(st.floats(-9.0, -6.0))
    lams = [draw(st.floats(-3.0, -0.05))]
    for gap in gaps:
        lams.insert(0, lams[0] - gap)
    if not draw(st.booleans()):
        return tuple(lams), draw(st.lists(offsets, min_size=n, max_size=n))
    # slowest mode alpha_n > 0 opposed by alpha_{n-1}, so p = |alpha_n| - sum
    # of the opposed magnitudes, and |alpha_n| is fixed by p = delta
    alpha = [Fraction(draw(st.sampled_from((-1, 1)))) * Fraction(draw(st.floats(0.1, 1.0)))
             for _ in range(n - 1)]
    alpha[-1] = -abs(alpha[-1])
    delta = draw(st.sampled_from((-1, 1))) * 10.0 ** draw(st.integers(-14, -2))
    alpha.append(Fraction(delta) + sum(-a for a in alpha if a < 0))
    x0 = [float(sum(Fraction(lam) ** i * a for lam, a in zip(lams, alpha)))
          for i in range(n)]
    return tuple(lams), x0


class TestExactOracle:
    # V alpha = x0 solved in exact rationals, independent of the library's
    # recurrence, judges both the float alpha and the certificate verdict

    @settings(deadline=None, max_examples=300)
    @given(case=oracle_cases())
    def test_alpha_and_verdict_match_exact_rationals(self, case):
        lams, x0 = case
        n = len(lams)
        try:
            d = modal_coeffs(PoleSet(lams), x0)
        except SingularMatrix:
            reject()   # the residual guard's own rejections are not judged here
        Vinv = _exact_inverse(lams)
        xs = [Fraction(v) for v in d.x0]
        exact = [sum(r * x for r, x in zip(row, xs)) for row in Vinv]
        # componentwise condition |V^{-1}| |V| |alpha|: the error one
        # refinement step leaves from the rounding of the residual V alpha - x0
        mixed = [sum(abs(Fraction(lam) ** i * a) for lam, a in zip(lams, exact))
                 for i in range(n)]
        eps = np.finfo(float).eps
        err = [4 * n * eps * float(sum(abs(r) * m for r, m in zip(row, mixed)))
               for row in Vinv]
        for a, e, bound in zip(d.alpha, exact, err):
            assert abs(Fraction(float(a)) - e) <= Fraction(bound)

        cert = certify(d)
        if not any(exact):
            assert cert.passed
            return
        # the verdict must be exact's whenever rounding cannot decide it:
        # the slowest active coefficient, and every one after it, of known
        # sign, and |p| beyond its rounding
        mags = [abs(float(e)) for e in exact]
        last = max(k for k, e in enumerate(exact) if e != 0)
        if any(m <= b for m, b in zip(mags[last:], err[last:])):
            return
        p = _exact_p(exact)
        rounding = 4 * sum(err) + (n + 2) * eps * float(np.abs(d.alpha).sum())
        if abs(p) > rounding:
            assert cert.passed == (p > 0)


class TestNaturalResponse:
    def test_at_zero_equals_first_component(self):
        x0 = np.array([-1.0, 2.0, -4.0, 4.0])
        d = modal_coeffs(SLOW_POLES, x0)
        assert natural_response(d, 0.0) == pytest.approx(x0[0], abs=1e-12)

    def test_zero_coefficients_stay_zero(self):
        d = modal_coeffs(SLOW_POLES, np.zeros(4))
        ts = np.linspace(0.0, 20.0, 7)
        np.testing.assert_array_equal(natural_response(d, ts), np.zeros(7))

    def test_matches_rk4_integration_of_closed_loop(self):
        # independent oracle: integrate x' = (A + BF) x and read the output
        x0 = np.array([-1.0, 2.0, -4.0, 4.0])
        d = modal_coeffs(SLOW_POLES, x0)
        F = moore_feedback(SLOW_POLES)
        c = make_chain(4)
        cl = c.A + c.B @ F
        h = 1e-3
        z = tuple(x0)
        worst = 0.0
        for k in range(10_000):
            z = rk4_step(lambda t, x: tuple(cl @ x), k * h, z, h)
            worst = max(worst, abs(z[0] - natural_response(d, (k + 1) * h)))
        assert worst <= 1e-6

    def test_sampled_against_fixed_step_integration_on_long_horizon(self):
        rng = np.random.default_rng(11)
        x0 = rng.uniform(-3, 3, size=4)
        d = modal_coeffs(SLOW_POLES, x0)
        F = moore_feedback(SLOW_POLES)
        c = make_chain(4)
        cl = c.A + c.B @ F
        h = 0.1
        steps = 500
        z = tuple(x0)
        outputs = [z[0]]
        for k in range(steps):
            z = rk4_step(lambda t, x: tuple(cl @ x), k * h, z, h)
            outputs.append(z[0])
        ts = np.arange(steps + 1) * h      # 500 samples spanning [0, 50]
        ref = natural_response(d, ts)
        assert np.max(np.abs(np.array(outputs) - ref)) <= 1e-5
