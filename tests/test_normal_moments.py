"""Normal and gamma moment building blocks, checked against direct quadrature."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tmoments.errors import DomainError, NonConvergenceError, UndefinedMomentError
from tmoments.normal_moments import (GammaParams, NormalParams, gamma_moment,
                                     normal_abs_moment, normal_central_moment,
                                     normal_raw_moment)


def quad_normal_moment(p, f, tol=1e-11):
    """Integrate f(x) against the N(mean, variance) density."""
    s = math.sqrt(p.variance)

    def integrand(x):
        z = (x - p.mean) / s
        return f(x) * math.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))

    lo, hi = p.mean - 14.0 * s, p.mean + 14.0 * s
    res = quad(integrand, lo, hi, epsabs=tol, epsrel=1e-12,
               points=[p.mean, 0.0] if lo < 0.0 < hi else [p.mean], limit=200,
               full_output=1)
    return res[0]


def quad_gamma_moment(p, k, tol=1e-11):
    scale = 1.0 / p.beta

    def integrand(x):
        logpdf = (p.alpha * math.log(p.beta) + (p.alpha - 1.0) * math.log(x)
                  - p.beta * x - math.lgamma(p.alpha))
        return x ** k * math.exp(logpdf)

    res = quad(integrand, 0.0, scale * (p.alpha + 40.0 * math.sqrt(p.alpha)),
               epsabs=tol, epsrel=1e-12, limit=300, full_output=1)
    return res[0]


PARAM_GRID = [NormalParams(0.0, 1.0), NormalParams(2.0, 1.0),
              NormalParams(-1.3, 0.25), NormalParams(0.7, 6.0)]


class TestNormalCentral:
    def test_odd_orders_are_exact_zero(self):
        p = NormalParams(3.1, 2.0)
        for m in (1, 3, 5, 7):
            assert normal_central_moment(p, m) == 0.0

    def test_double_factorial_values(self):
        assert normal_central_moment(NormalParams(9.0, 1.0), 0) == 1.0
        assert normal_central_moment(NormalParams(9.0, 2.0), 2) == 2.0
        assert normal_central_moment(NormalParams(0.0, 2.0), 4) == 12.0
        assert normal_central_moment(NormalParams(5.0, 1.0), 6) == 15.0

    @pytest.mark.parametrize("p", PARAM_GRID)
    @pytest.mark.parametrize("m", range(0, 9))
    def test_against_quadrature(self, p, m):
        ref = quad_normal_moment(p, lambda x: (x - p.mean) ** m)
        got = normal_central_moment(p, m)
        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_order_validation(self):
        p = NormalParams(0.0, 1.0)
        with pytest.raises(DomainError):
            normal_central_moment(p, -2)
        with pytest.raises(DomainError):
            normal_central_moment(p, 2.5)
        with pytest.raises(DomainError):
            normal_central_moment(p, True)


class TestNormalAbs:
    def test_standard_first_moment(self):
        got = normal_abs_moment(NormalParams(0.0, 1.0), 1)
        assert math.isclose(got, math.sqrt(2.0 / math.pi), rel_tol=1e-14)

    @pytest.mark.parametrize("p", PARAM_GRID)
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 0.5, 2.7])
    def test_against_quadrature(self, p, k):
        ref = quad_normal_moment(p, lambda x: abs(x) ** k)
        got = normal_abs_moment(p, k)
        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_fractional_order_domain(self):
        p = NormalParams(1.0, 1.0)
        assert normal_abs_moment(p, -0.5) > 0.0
        with pytest.raises(DomainError):
            normal_abs_moment(p, -1.0)

    def test_huge_even_order_is_refused_at_once(self):
        # the terminating 1F1 has 5e249 terms; the series kept every one in a
        # list until the process ran out of memory
        start = time.perf_counter()
        with pytest.raises(NonConvergenceError, match="terminates after"):
            normal_abs_moment(NormalParams(0.0, 1e-200), 1e250)
        assert time.perf_counter() - start < 1.0

    def test_even_orders_match_raw(self):
        p = NormalParams(-2.4, 3.0)
        for k in (0, 2, 4, 6):
            assert normal_abs_moment(p, k) == normal_raw_moment(p, k)


class TestNormalRaw:
    def test_mean_square_value(self):
        # E(X^2) = mean^2 + variance
        assert math.isclose(normal_raw_moment(NormalParams(2.0, 1.0), 2), 5.0,
                            rel_tol=1e-14)

    def test_centered_odd_orders_vanish(self):
        p = NormalParams(0.0, 4.0)
        for k in (1, 3, 5):
            assert normal_raw_moment(p, k) == 0.0

    @pytest.mark.parametrize("p", PARAM_GRID)
    @pytest.mark.parametrize("k", range(0, 8))
    def test_against_quadrature(self, p, k):
        ref = quad_normal_moment(p, lambda x: x ** k)
        got = normal_raw_moment(p, k)
        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))

    @given(st.floats(-3.0, 3.0), st.floats(0.1, 5.0), st.integers(0, 8))
    @settings(max_examples=80, deadline=None)
    def test_binomial_recombination(self, mean, variance, k):
        # E(X^k) must equal sum_j C(k,j) mean^(k-j) E((X-mean)^j)
        p = NormalParams(mean, variance)
        ref = math.fsum(math.comb(k, j) * mean ** (k - j) * normal_central_moment(p, j)
                        for j in range(k + 1))
        got = normal_raw_moment(p, k)
        assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))

    def test_order_validation(self):
        with pytest.raises(DomainError):
            normal_raw_moment(NormalParams(0.0, 1.0), 1.5)

    @pytest.mark.parametrize("fn", [normal_abs_moment, normal_raw_moment])
    def test_overflowing_series_argument_raises(self, fn):
        # mean^2 / (2 variance) is -inf, so no series term is a finite double;
        # the result must not be a nan or inf passed off as a value
        with pytest.raises(OverflowError, match="not a finite double"):
            fn(NormalParams(1e160, 1.0), 3)


class TestGammaMoment:
    def test_integer_moment_ratio(self):
        # E(X^2) for shape 2, rate 3: Gamma(4)/Gamma(2) / 9 = 2/3
        got = gamma_moment(GammaParams(2.0, 3.0), 2.0)
        assert math.isclose(got, 2.0 / 3.0, rel_tol=1e-14)

    def test_reciprocal_moment(self):
        # shape = rate = 5/2 (mixture weight for 5 degrees of freedom):
        # E(1/X) = (5/2) / (3/2) = 5/3
        got = gamma_moment(GammaParams(2.5, 2.5), -1.0)
        assert math.isclose(got, 5.0 / 3.0, rel_tol=1e-14)

    def test_mean_and_variance(self):
        p = GammaParams(3.5, 0.8)
        m1 = gamma_moment(p, 1.0)
        m2 = gamma_moment(p, 2.0)
        assert math.isclose(m1, 3.5 / 0.8, rel_tol=1e-14)
        assert math.isclose(m2 - m1 * m1, 3.5 / 0.8 ** 2, rel_tol=1e-12)

    @pytest.mark.parametrize("p", [GammaParams(1.0, 1.0), GammaParams(2.5, 2.5),
                                   GammaParams(6.0, 0.5), GammaParams(0.7, 3.0)])
    @pytest.mark.parametrize("k", [-0.6, -0.25, 0.0, 0.5, 1.0, 2.0, 3.5])
    def test_against_quadrature(self, p, k):
        if not k > -p.alpha:
            pytest.skip("undefined order")
        ref = quad_gamma_moment(p, k)
        got = gamma_moment(p, k)
        assert abs(got - ref) <= 1e-8 * max(1.0, abs(ref))

    def test_undefined_below_negative_shape(self):
        with pytest.raises(UndefinedMomentError):
            gamma_moment(GammaParams(1.5, 1.0), -1.5)
        with pytest.raises(UndefinedMomentError):
            gamma_moment(GammaParams(1.5, 1.0), -2.0)

    @given(st.floats(0.5, 10.0), st.floats(0.2, 5.0), st.floats(-0.4, 4.0),
           st.floats(-0.4, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_multiplicative_recurrence(self, alpha, beta, k1, k2):
        # E(X^(k+1)) = E(X^k) (k + alpha) / beta
        p = GammaParams(alpha, beta)
        for k in (k1, k2):
            lhs = gamma_moment(p, k + 1.0)
            rhs = gamma_moment(p, k) * (k + alpha) / beta
            assert math.isclose(lhs, rhs, rel_tol=1e-11)


class TestLongProducts:
    """Integer orders of more than a few thousand factors."""

    @pytest.mark.parametrize("k, expected", [(10**8, OverflowError), (2 * 10**7, 0.0)])
    def test_out_of_range_outcome_is_settled_at_once(self, k, expected):
        # the factors i/1e7 take the product below the double range and back
        # up; multiplied out, 10**8 of them took 7 s to end in OverflowError
        start = time.perf_counter()
        if expected is OverflowError:
            with pytest.raises(OverflowError, match="beyond the double range"):
                gamma_moment(GammaParams(1.0, 1e7), k)
        else:
            assert gamma_moment(GammaParams(1.0, 1e7), k) == expected
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("k, beta, expected", [
        # log values 709.7, -744, -745.5 and 710: inside the estimate's margin
        # of the range's ends, so the product is multiplied out as before
        (5000, 1597.6493980344624, 1.6549840276740987e+308),
        (5000, 2136.7231620099706, 1e-323),
        (5000, 2137.364275120732, 0.0),
        (5000, 1597.553541946291, OverflowError),
        (20000, 7103.167475529025, 1.6549840276749537e+308),
        (20000, 7638.6875966387715, 1e-323),
        (20000, 7639.260519692871, 0.0),
        (20000, 7103.0609288159985, OverflowError),
    ])
    def test_values_at_the_ends_of_the_range_are_unchanged(self, k, beta, expected):
        if expected is OverflowError:
            with pytest.raises(OverflowError):
                gamma_moment(GammaParams(1.0, beta), k)
        else:
            assert gamma_moment(GammaParams(1.0, beta), k) == expected


class TestParamValidation:
    def test_normal_variance_positive(self):
        with pytest.raises(DomainError):
            NormalParams(0.0, 0.0)
        with pytest.raises(DomainError):
            NormalParams(0.0, -1.0)

    def test_gamma_params_positive(self):
        with pytest.raises(DomainError):
            GammaParams(0.0, 1.0)
        with pytest.raises(DomainError):
            GammaParams(1.0, -2.0)


def test_modules_share_no_random_state():
    # pure functions: repeated calls give identical bits
    p = NormalParams(0.3, 1.7)
    vals = {normal_abs_moment(p, 3.3) for _ in range(5)}
    assert len(vals) == 1
    assert np.isfinite(vals.pop())
