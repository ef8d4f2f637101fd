"""Univariate t moment formulas against quadrature and hand-derived values."""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tmoments.errors import DomainError, NonConvergenceError, UndefinedMomentError
from tmoments.normal_moments import (GammaParams, NormalParams, gamma_moment, normal_abs_moment,
                                     normal_central_moment, normal_raw_moment)
from tmoments.oracle import mixture_pdf_1d, quad_moment_1d
from tmoments.t1d import (TParams1D, abs_moment, abs_moment_standard, central_abs_moment,
                          central_moment, precision_from_scale, raw_from_central,
                          raw_moment, raw_moment_standard, scale_from_precision, t_pdf)
from tmoments.tnd import TParamsND, std_abs_moment_nd, std_raw_moment_nd

PARAMS = [TParams1D(0.0, 1.0, 5.0), TParams1D(-2.0, 0.5, 2.5), TParams1D(1.3, 4.0, 8.0),
          TParams1D(1.0, 2.0, 3.0), TParams1D(-0.7, 0.8, 30.0)]


def close_rel(got, ref, tol):
    return abs(got - ref) <= tol * max(1.0, abs(ref))


class TestFrozenValues:
    def test_standard_second_moment(self):
        # nu/(nu-2) at nu = 5
        assert math.isclose(raw_moment_standard(2, 5.0).value, 5.0 / 3.0, rel_tol=1e-14)

    def test_standard_fourth_moment(self):
        # 3 nu^2 / ((nu-2)(nu-4)) at nu = 9
        assert math.isclose(raw_moment_standard(4, 9.0).value, 243.0 / 35.0, rel_tol=1e-14)

    def test_standard_abs_first_moment_two_dof(self):
        # sqrt(nu) Gamma(1) Gamma((nu-1)/2) / (sqrt(pi) Gamma(nu/2)) = sqrt(2) at nu = 2
        assert math.isclose(abs_moment_standard(1, 2.0).value, math.sqrt(2.0), rel_tol=1e-14)

    def test_general_variance(self):
        # nu/(sigma (nu-2)) = 6/(4*4) = 3/8, independent of mu
        got = central_moment(2, TParams1D(7.0, 4.0, 6.0))
        assert math.isclose(got.value, 3.0 / 8.0, rel_tol=1e-14)

    def test_general_second_raw_moment(self):
        # mu^2 + variance = 1 + 5/3 = 8/3
        got = raw_moment(2, TParams1D(1.0, 1.0, 5.0))
        assert math.isclose(got.value, 8.0 / 3.0, rel_tol=1e-13)


class TestAgainstQuadrature:
    @pytest.mark.parametrize("p", PARAMS)
    @pytest.mark.parametrize("k", range(0, 5))
    def test_raw(self, p, k):
        if 0 < k and k >= p.nu:
            pytest.skip("undefined order")
        ref = quad_moment_1d("raw", k, p, tol=1e-11)
        assert close_rel(raw_moment(k, p).value, ref.value, 1e-9)

    @pytest.mark.parametrize("p", PARAMS)
    @pytest.mark.parametrize("k", range(0, 5))
    def test_central(self, p, k):
        if 0 < k and k >= p.nu:
            pytest.skip("undefined order")
        ref = quad_moment_1d("central", k, p, tol=1e-11)
        got = central_moment(k, p).value
        assert abs(got - ref.value) <= 1e-9 * max(1.0, abs(ref.value))

    @pytest.mark.parametrize("p", PARAMS)
    @pytest.mark.parametrize("k", range(0, 5))
    def test_abs(self, p, k):
        if 0 < k and k >= p.nu:
            pytest.skip("undefined order")
        ref = quad_moment_1d("abs", k, p, tol=1e-11)
        assert close_rel(abs_moment(k, p).value, ref.value, 1e-9)

    @pytest.mark.parametrize("p", PARAMS)
    @pytest.mark.parametrize("k", range(0, 5))
    def test_central_abs(self, p, k):
        if 0 < k and k >= p.nu:
            pytest.skip("undefined order")
        ref = quad_moment_1d("central-abs", k, p, tol=1e-11)
        assert close_rel(central_abs_moment(k, p).value, ref.value, 1e-9)

    @pytest.mark.parametrize("k", [0.5, 1.5, 2.25])
    def test_noninteger_abs_orders(self, k):
        p = TParams1D(0.8, 2.0, 6.0)
        ref = quad_moment_1d("abs", k, p, tol=1e-11)
        got = abs_moment(k, p, allow_noninteger=True)
        assert close_rel(got.value, ref.value, 1e-9)
        ref_c = quad_moment_1d("central-abs", k, p, tol=1e-11)
        got_c = central_abs_moment(k, p, allow_noninteger=True)
        assert close_rel(got_c.value, ref_c.value, 1e-9)


class TestReductions:
    @pytest.mark.parametrize("nu", [2.5, 3.0, 5.0, 8.0, 30.0])
    def test_general_reduces_to_standard(self, nu):
        p = TParams1D(0.0, 1.0, nu)
        for k in range(0, min(6, math.ceil(nu) - 1) + 1):
            if 0 < k and k >= nu:
                continue
            assert abs(raw_moment(k, p).value - raw_moment_standard(k, nu).value) <= 1e-12
            assert abs(abs_moment(k, p).value - abs_moment_standard(k, nu).value) \
                <= 1e-12 * max(1.0, abs(abs_moment_standard(k, nu).value))

    def test_central_equals_raw_at_zero_location(self):
        p = TParams1D(0.0, 3.0, 7.0)
        for k in range(0, 7):
            assert abs(central_moment(k, p).value - raw_moment(k, p).value) <= 1e-13

    def test_central_abs_matches_shifted_abs(self):
        # |T - mu| has the distribution of the mu = 0 case
        p = TParams1D(1.7, 2.5, 9.0)
        p0 = TParams1D(0.0, 2.5, 9.0)
        for k in range(0, 9):
            a = central_abs_moment(k, p).value
            b = abs_moment(k, p0).value
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    @given(st.floats(-3.0, 3.0), st.floats(0.25, 4.0), st.floats(2.1, 40.0),
           st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_raw_from_central_agrees(self, mu, sigma, nu, k):
        assume(k == 0 or k < nu)
        p = TParams1D(mu, sigma, nu)
        a = raw_moment(k, p).value
        b = raw_from_central(k, p).value
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_even_abs_equals_raw(self):
        p = TParams1D(-1.1, 0.7, 11.0)
        for k in (0, 2, 4, 6):
            assert close_rel(abs_moment(k, p).value, raw_moment(k, p).value, 1e-13)

    def test_odd_raw_vanishes_at_zero_location(self):
        p = TParams1D(0.0, 5.0, 20.0)
        for k in (1, 3, 5):
            assert raw_moment(k, p).value == 0.0


class TestDefinedness:
    def test_order_zero_is_one_for_any_dof(self):
        for nu in (0.3, 1.0, 2.0, 50.0):
            p = TParams1D(2.0, 1.5, nu)
            for fn in (raw_moment, central_moment, abs_moment, central_abs_moment,
                       raw_from_central):
                res = fn(0, p)
                assert res.defined
                assert res.value == 1.0

    @given(st.floats(0.5, 12.0), st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_defined_iff_order_below_dof(self, nu, k):
        res = raw_moment(k, TParams1D(0.4, 1.0, nu))
        assert res.defined == (k < nu)

    def test_undefined_result_shape(self):
        res = raw_moment(5, TParams1D(0.0, 1.0, 5.0))
        assert not res.defined
        assert math.isnan(res.value)
        assert res.reason == "order ≥ degrees of freedom"
        assert res.formula == "raw"
        for fn in (central_moment, abs_moment, central_abs_moment, raw_from_central):
            assert not fn(3, TParams1D(1.0, 1.0, 2.5)).defined

    def test_boundary_order_equal_to_dof_is_undefined(self):
        assert not raw_moment_standard(3, 3.0).defined
        assert not abs_moment_standard(2.0, 2.0).defined

    def test_order_validation(self):
        p = TParams1D(0.0, 1.0, 10.0)
        with pytest.raises(DomainError):
            raw_moment(-1, p)
        with pytest.raises(DomainError):
            raw_moment(1.5, p)
        with pytest.raises(DomainError):
            abs_moment(1.5, p)  # needs allow_noninteger
        with pytest.raises(DomainError):
            abs_moment(-0.5, p, allow_noninteger=True)

    @pytest.mark.parametrize("fn, k, p", [
        (raw_moment, 30, TParams1D(1e20, 1.0, 100.0)),
        (abs_moment, 31, TParams1D(1e20, 1.0, 100.0)),
        (central_moment, 30, TParams1D(0.0, 1e-300, 100.0)),
    ])
    def test_overflow_raises(self, fn, k, p):
        # raw_moment's terminating series reaches a term beyond the double
        # range, abs_moment's Pfaff prefactor overflows in a float power and
        # central_moment's even-order scale product overflows; all three end
        # in the same error
        with pytest.raises(OverflowError):
            fn(k, p)

    def test_huge_even_order_stops_early(self):
        # 5e8 factors would take minutes; with sigma = 1 the product is past
        # the double range and rising after a few hundred of them, with
        # sigma = 1e20 every factor is below 1 and the product below the
        # range after a few dozen
        start = time.perf_counter()
        with pytest.raises(OverflowError):
            central_moment(10**9, TParams1D(0.0, 1.0, 1e15))
        assert central_moment(10**9, TParams1D(0.0, 1e20, 1e15)).value == 0.0
        assert time.perf_counter() - start < 1.0


class TestEvenOrderScale:
    """Even orders use the product prod (2i-1) (nu / (nu - 2i)) / sigma."""

    @pytest.mark.parametrize("nu", [3.5, 7.0, 1e6, 1e10, 1e14])
    def test_second_moment_is_correctly_rounded(self, nu):
        exact = float(Fraction(nu) / (Fraction(nu) - 2))
        p = TParams1D(0.0, 1.0, nu)
        for fn in (central_moment, raw_moment, abs_moment, central_abs_moment):
            assert fn(2, p).value == exact
        assert raw_moment_standard(2, nu).value == exact

    @pytest.mark.parametrize("nu", [5.5, 9.0, 1e6, 1e10, 1e14])
    def test_fourth_moment_against_exact_rational(self, nu):
        f = Fraction(nu)
        exact = float(3 * f * f / ((f - 2) * (f - 4)))
        p = TParams1D(0.0, 1.0, nu)
        for fn in (central_moment, raw_moment, abs_moment, central_abs_moment):
            assert math.isclose(fn(4, p).value, exact, rel_tol=1e-15)
        assert math.isclose(raw_moment_standard(4, nu).value, exact, rel_tol=1e-15)

    @pytest.mark.parametrize("k, sigma, nu", [(200, 1e4, 1e5), (60, 1e-8, 100.0),
                                              (5436, 2000.0, 1e6), (2, 1e-300, 1e15)])
    def test_extreme_scales_against_mpmath(self, k, sigma, nu):
        # separate power and gamma factors would underflow to 0, overflow,
        # overflow and give nu/sigma = inf; in the last two cases the running
        # product falls to about e^-1000 and nu/sigma overflows, so only the
        # mantissa-exponent product stays inside the double range
        with mpmath.workdps(40):
            s, n = mpmath.mpf(sigma), mpmath.mpf(nu)
            ref = float((n / s) ** (k // 2) * mpmath.gamma((k + 1) / mpmath.mpf(2))
                        * mpmath.gamma((n - k) / 2)
                        / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(n / 2)))
        p = TParams1D(0.0, sigma, nu)
        for fn in (central_moment, raw_moment, abs_moment, central_abs_moment):
            assert math.isclose(fn(k, p).value, ref, rel_tol=1e-14)


def _mp_abs_scale(k, sigma, nu):
    # E|T - mu|^k
    k, s, n = mpmath.mpf(k), mpmath.mpf(sigma), mpmath.mpf(nu)
    return ((n / s) ** (k / 2) * mpmath.gamma((k + 1) / 2) * mpmath.gamma((n - k) / 2)
            / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(n / 2)))


class TestOddOrderScale:
    """Odd orders use E|T - mu| times prod 2i (nu / (nu - 1 - 2i)) / sigma.

    E|T - mu| carries the lgamma difference log Gamma((nu-1)/2) - log Gamma(nu/2),
    so the error grows with nu (ROADMAP item 5); below nu = 500 it stays under 1e-12.
    """

    @pytest.mark.parametrize("k, sigma, nu", [(301, 1.73e4, 301.5), (39, 1.7e17, 40.9)])
    def test_small_normal_factor_large_mixing_factor(self, k, sigma, nu):
        # The normal moment E|X|^k, X ~ N(0, 1/sigma), is 9.7e-331 and 5.2e-314:
        # alone it underflows or is subnormal, while the mixing moment
        # E(lambda^(-k/2)) is 1.5e66 and 8.0e7, so the values are 1.45e-264 and
        # 4.14e-306.
        with mpmath.workdps(40):
            ref = _mp_abs_scale(k, sigma, nu)
        p = TParams1D(0.0, sigma, nu)
        for fn in (central_abs_moment, abs_moment):
            got = fn(k, p).value
            assert abs(got - ref) <= 1e-13 * ref, (fn.__name__, got, ref)

    @given(st.integers(0, 200), st.floats(-3.0, 2.0), st.floats(-300.0, 300.0))
    @settings(max_examples=200, deadline=None)
    def test_against_mpmath_near_the_order(self, q, log_gap, log_value):
        # nu just above k = 2q + 1; sigma picked so that the value is 10^log_value
        k = 2 * q + 1
        nu = k + 10.0 ** log_gap
        with mpmath.workdps(40):
            sigma = float((_mp_abs_scale(k, 1, nu) / mpmath.mpf(10) ** log_value) ** (2.0 / k))
            assume(0.0 < sigma < math.inf)
            ref = _mp_abs_scale(k, sigma, nu)
        got = central_abs_moment(k, TParams1D(0.0, sigma, nu)).value
        assert abs(got - ref) <= 1e-12 * ref, (got, mpmath.nstr(ref, 17))


_TYPED_ERRORS = (DomainError, NonConvergenceError, OverflowError)


@st.composite
def awkward_1d_inputs(draw):
    k = draw(st.integers(0, 40))
    near = draw(st.floats(-1.0, 2.0).map(lambda d: k + d).filter(lambda nu: nu > 0))
    nu = draw(st.one_of(st.just(near), st.floats(1e-3, 1e15)))
    sigma = 10.0 ** draw(st.floats(-300.0, 300.0))
    mu = draw(st.one_of(st.just(0.0), st.floats(-1e20, 1e20)))
    return k, TParams1D(mu, sigma, nu)


class TestOutcomeSweep:
    @given(awkward_1d_inputs(), st.sampled_from([raw_moment, central_moment, abs_moment,
                                                 central_abs_moment]))
    @settings(max_examples=400, deadline=None)
    def test_each_input_has_one_allowed_outcome(self, case, fn):
        # a finite defined value, an undefined result, or a typed error
        k, p = case
        try:
            res = fn(k, p)
        except _TYPED_ERRORS:
            return
        if res.defined:
            assert math.isfinite(res.value)
        else:
            assert math.isnan(res.value) and res.reason


def _mp_normal_scale(k, variance):
    # E|X - mean|^k for X ~ N(mean, variance)
    k = mpmath.mpf(k)
    return ((2 * mpmath.mpf(variance)) ** (k / 2) * mpmath.gamma((k + 1) / 2)
            / mpmath.sqrt(mpmath.pi))


def _mp_mixing_moment(m, nu):
    # E(lambda^(-m)) for lambda ~ Gamma(nu/2, nu/2)
    half = mpmath.mpf(nu) / 2
    return half ** m * mpmath.gamma(half - m) / mpmath.gamma(half)


def _mp_std_abs_nd(ks, nu):
    out = _mp_mixing_moment(mpmath.mpf(sum(ks)) / 2, nu)
    for ki in ks:
        out *= _mp_normal_scale(ki, 1)
    return out


_SCALE_ERRORS = _TYPED_ERRORS + (UndefinedMomentError,)


def _check_against(fn, ref, check_accuracy=True):
    """One allowed outcome per input; a value in the double range within 1e-13 of ``ref``."""
    try:
        got = fn()
    except _SCALE_ERRORS:
        return
    if hasattr(got, "defined"):
        if not got.defined:
            assert math.isnan(got.value) and got.reason
            return
        got = got.value
    assert math.isfinite(got)
    if not check_accuracy:
        return
    if abs(ref) > 1.7976931348623157e308:
        pytest.fail(f"finite {got!r} for a value {mpmath.nstr(ref, 5)} beyond the double range")
    if abs(ref) >= 2.2250738585072014e-308:
        assert abs(got - ref) <= 1e-13 * abs(ref), (got, mpmath.nstr(ref, 17))
    else:
        assert abs(got) < 2.2250738585072014e-308, (got, mpmath.nstr(ref, 5))


class TestScaleSweep:
    """Every closed-form scale: a finite value close to mpmath, undefined, or a typed error.

    The normal moments are a scale E|X - mean|^k times a confluent series. When
    that scale alone lies outside the normal double range, a value inside it
    can lose digits or fail (ROADMAP item 5, concentrated location), so there
    only the outcome is checked. Odd total orders of std_abs_moment_nd take
    E(lambda^(-K/2)) at a half-integer order, which starts its product at the
    accurate ratio Gamma(x - 1/2)/Gamma(x), so they are checked as closely.
    """

    @given(st.integers(0, 400), st.floats(-300.0, 300.0), st.floats(-10.0, 10.0),
           st.sampled_from(["central", "raw", "abs"]), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_normal_moments(self, k, log_var, loc, kind, absolute_loc):
        variance = 10.0 ** log_var
        mean = loc * 100.0 if absolute_loc else loc * math.sqrt(variance)
        p = NormalParams(mean, variance)
        with mpmath.workdps(40):
            m, v = mpmath.mpf(mean), mpmath.mpf(variance)
            if kind == "abs":
                fn = normal_abs_moment
                ref = _mp_normal_scale(k, v) * mpmath.hyp1f1(-mpmath.mpf(k) / 2, 0.5,
                                                             -m * m / (2 * v))
            else:
                central = [0 if j % 2 else v ** (j // 2) * mpmath.fac2(j - 1)
                           for j in range(k + 1)]
                if kind == "central":
                    fn, ref = normal_central_moment, central[k]
                else:
                    fn = normal_raw_moment
                    ref = mpmath.fsum(mpmath.binomial(k, j) * m ** (k - j) * central[j]
                                      for j in range(k + 1))
            scale_in_range = 1e-300 < _mp_normal_scale(k - (kind == "raw" and k % 2), v) < 1e300
            _check_against(lambda: fn(p, k), ref, scale_in_range or mean == 0.0)

    @given(st.integers(-200, 200), st.floats(-3.0, 15.0), st.floats(-3.0, 15.0),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_gamma_integer_orders(self, k, log_alpha, log_beta, mixing):
        # the product of |k| factors is within |k| rounding errors of the value
        alpha = 10.0 ** log_alpha
        beta = alpha if mixing else 10.0 ** log_beta
        with mpmath.workdps(40):
            a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
            ref = b ** (-k) * mpmath.gamma(k + a) / mpmath.gamma(a) if k > -alpha else 0
            _check_against(lambda: gamma_moment(GammaParams(alpha, beta), k), ref)

    @given(st.lists(st.integers(0, 12), min_size=1, max_size=4), st.floats(-1.0, 2.0),
           st.one_of(st.none(), st.floats(-3.0, 15.0)), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_standard_nd_moments(self, ks, near, log_nu, raw):
        total = sum(ks)
        nu = total + near if log_nu is None else 10.0 ** log_nu
        assume(nu > 0)
        fn = std_raw_moment_nd if raw else std_abs_moment_nd
        with mpmath.workdps(40):
            if total >= nu:
                ref = 0
            elif raw and any(ki % 2 for ki in ks):
                ref = 0
            else:
                ref = _mp_std_abs_nd(ks, nu)
            _check_against(lambda: fn(tuple(ks), nu), ref)

    @pytest.mark.parametrize("k", [19_998, 20_002, 200_000])
    def test_long_products(self, k):
        # Every integer order is one product, however long. The values are near
        # 1e100, where the product's rounding stays below 1e-12 while a
        # log-gamma value of this size is about 1e-11 off.
        with mpmath.workdps(40):
            half = mpmath.mpf(k) / 2
            variance = float(mpmath.exp((100 * mpmath.log(10) - mpmath.loggamma(half + 0.5)
                                         + mpmath.log(mpmath.pi) / 2) / half) / 2)
            normal_ref = _mp_normal_scale(k, variance)
            alpha = (k / 2) ** 2 / 460.0
            gamma_ref = _mp_mixing_moment(half, 2 * alpha)
        got = normal_central_moment(NormalParams(0.0, variance), k)
        assert abs(got - normal_ref) <= 1e-12 * normal_ref, (got, mpmath.nstr(normal_ref, 17))
        got = gamma_moment(GammaParams(alpha, alpha), -k // 2)
        assert abs(got - gamma_ref) <= 1e-12 * gamma_ref, (got, mpmath.nstr(gamma_ref, 17))

    def test_half_integer_mixing_order_keeps_digits(self):
        # Gamma(x - 1/2)/Gamma(x) as an lgamma difference was 1.6e-5 off here
        with mpmath.workdps(40):
            ref = _mp_std_abs_nd((1,), 1e10)
        assert math.isclose(std_abs_moment_nd((1,), 1e10).value, ref, rel_tol=1e-13)

    @given(st.integers(-400, 400), st.floats(-3.0, 15.0), st.floats(-3.0, 15.0),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_gamma_half_integer_orders(self, twice_k, log_alpha, log_beta, mixing):
        # the accurate order +-1/2 times the product of the other factors
        k = twice_k / 2.0 + (0.5 if twice_k % 2 == 0 else 0.0)
        alpha = 10.0 ** log_alpha
        beta = alpha if mixing else 10.0 ** log_beta
        with mpmath.workdps(40):
            a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
            ref = b ** (-k) * mpmath.gamma(k + a) / mpmath.gamma(a) if k > -alpha else 0
            _check_against(lambda: gamma_moment(GammaParams(alpha, beta), k), ref)

    @pytest.mark.parametrize("nu", [1.5, 3.0, 1e10, 1e15, 1e100, 1e308])
    def test_first_absolute_moment_at_large_nu(self, nu):
        # E|T - mu| = sqrt(2/pi) sqrt(nu/2) Gamma((nu-1)/2)/Gamma(nu/2) / sqrt(sigma);
        # the mixing factor tends to 1, where the lgamma difference was 1.6e-5
        # off at nu = 1e10 and overflowed at nu = 1e308
        # log Gamma(nu/2) needs about log10(nu) digits beyond the 20 kept
        with mpmath.workdps(20 + int(math.log10(nu))):
            half = mpmath.mpf(nu) / 2
            ref = (mpmath.sqrt(2 / mpmath.pi) * mpmath.sqrt(half)
                   * mpmath.exp(mpmath.loggamma(half - mpmath.mpf(1) / 2)
                                - mpmath.loggamma(half)))
        got = central_abs_moment(1, TParams1D(0.0, 1.0, nu)).value
        assert abs(got - ref) <= 1e-15 * ref, (got, mpmath.nstr(ref, 17))


    @pytest.mark.parametrize("nu", [1e3, 1e6, 1e15, 1e308])
    def test_noninteger_absolute_moment_at_large_nu(self, nu):
        # E|T - mu|^2.5 = nu^1.25 Gamma(1.75) Gamma((nu - 2.5)/2) / (sqrt(pi) Gamma(nu/2));
        # the lgamma difference overflowed at nu = 1e308, where the value is
        # near the normal limit 2^1.25 Gamma(1.75)/sqrt(pi) = 1.2333
        with mpmath.workdps(40 + int(math.log10(nu))):
            n, k = mpmath.mpf(nu), mpmath.mpf(2.5)
            ref = (n ** (k / 2) * mpmath.gamma((k + 1) / 2) / mpmath.sqrt(mpmath.pi)
                   * mpmath.exp(mpmath.loggamma((n - k) / 2) - mpmath.loggamma(n / 2)))
        got = central_abs_moment(2.5, TParams1D(0.0, 1.0, nu), allow_noninteger=True).value
        assert abs(got - ref) <= 1e-15 * ref, (got, mpmath.nstr(ref, 17))

    @given(st.floats(-400.0, 400.0), st.floats(-3.0, 15.0), st.floats(-3.0, 15.0),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_gamma_noninteger_orders(self, k, log_alpha, log_beta, mixing):
        # the accurate order of the fractional part times the product of the
        # other factors; an lgamma difference was 1e3 off near alpha = 1e15
        assume(not float(2.0 * k).is_integer())
        alpha = 10.0 ** log_alpha
        beta = alpha if mixing else 10.0 ** log_beta
        with mpmath.workdps(40):
            a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
            ref = (b ** (-k) * mpmath.exp(mpmath.loggamma(k + a) - mpmath.loggamma(a))
                   if k > -alpha else 0)
            _check_against(lambda: gamma_moment(GammaParams(alpha, beta), k), ref)


class TestScaleMixtureTable:
    """Values that separate power and gamma factors got wrong, against 50-digit mpmath."""

    @staticmethod
    def _refs():
        with mpmath.workdps(50):
            nu = mpmath.mpf(10) ** 10
            return {
                "std_raw (2,) 1e14": _mp_std_abs_nd((2,), 1e14),
                "std_raw (2,2) 1e10": _mp_std_abs_nd((2, 2), 1e10),
                "std_abs (1,1) 1e14": _mp_std_abs_nd((1, 1), 1e14),
                "raw 3 (1,1,1e10)": 1 + 3 * nu / (nu - 2),
                "gamma (5e9,5e9) -1": _mp_mixing_moment(1, 1e10),
                "normal central 200": _mp_normal_scale(200, mpmath.mpf("0.01")),
                "normal abs 400": _mp_normal_scale(400, mpmath.mpf("0.001")),
            }

    def test_values_against_mpmath(self):
        got = {
            "std_raw (2,) 1e14": std_raw_moment_nd((2,), 1e14).value,
            "std_raw (2,2) 1e10": std_raw_moment_nd((2, 2), 1e10).value,
            "std_abs (1,1) 1e14": std_abs_moment_nd((1, 1), 1e14).value,
            "raw 3 (1,1,1e10)": raw_moment(3, TParams1D(1.0, 1.0, 1e10)).value,
            "gamma (5e9,5e9) -1": gamma_moment(GammaParams(5e9, 5e9), -1),
            "normal central 200": normal_central_moment(NormalParams(0.0, 0.01), 200),
            "normal abs 400": normal_abs_moment(NormalParams(0.0, 0.001), 400),
        }
        for name, ref in self._refs().items():
            assert abs(got[name] - ref) <= 1e-14 * abs(ref), (name, got[name], ref)


class TestMomentResultProtocol:
    def test_float_conversion(self):
        res = raw_moment_standard(2, 7.0)
        assert float(res) == res.value

    def test_formula_tags(self):
        p = TParams1D(0.5, 1.0, 12.0)
        assert raw_moment(3, p).formula == "raw"
        assert central_moment(2, p).formula == "central"
        assert abs_moment(3, p).formula == "abs"
        assert central_abs_moment(3, p).formula == "central-abs"
        assert raw_from_central(3, p).formula == "raw-from-central"
        assert raw_moment(3, p).mode == "closed-form"

    def test_series_diagnostics_present(self):
        res = raw_moment(3, TParams1D(0.5, 1.0, 12.0))
        assert res.diagnostics["series_terminating"]
        assert res.diagnostics["series_error"] == 0.0


class TestParameterization:
    def test_precision_from_scale_value(self):
        assert precision_from_scale(2.0) == 0.25

    @given(st.floats(1e-3, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, s):
        assert math.isclose(scale_from_precision(precision_from_scale(s)), s,
                            rel_tol=1e-14)

    def test_scale_relation_in_moments(self):
        # scale s enters the second moment as s^2 nu/(nu-2)
        s = 1.7
        p = TParams1D(0.0, precision_from_scale(s), 6.0)
        assert math.isclose(central_moment(2, p).value, s * s * 6.0 / 4.0, rel_tol=1e-13)

    def test_params_validation(self):
        with pytest.raises(DomainError):
            TParams1D(0.0, 0.0, 5.0)
        with pytest.raises(DomainError):
            TParams1D(0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            precision_from_scale(0.0)
        with pytest.raises(DomainError):
            scale_from_precision(-1.0)

    @pytest.mark.parametrize("nu", [math.inf, math.nan, -1.0])
    def test_nu_must_be_positive_and_finite(self, nu):
        # no route takes the normal limit, so nu = inf is rejected up front
        with pytest.raises(DomainError, match="nu must be positive and finite"):
            TParams1D(0.0, 1.0, nu)
        with pytest.raises(DomainError, match="nu must be positive and finite"):
            TParamsND([0.0, 0.0], np.eye(2), nu)


@pytest.mark.parametrize("make, name", [
    (lambda: TParams1D(math.nan, 1.0, 9.0), "mu"),
    (lambda: NormalParams(math.nan, 1.0), "mean"),
    (lambda: TParamsND([0.0, math.nan], np.eye(2), 9.0), "mu"),
])
def test_nan_location_is_rejected(make, name):
    with pytest.raises(DomainError, match=name):
        make()


class TestDensity:
    @pytest.mark.parametrize("p", PARAMS)
    def test_normalization(self, p):
        s = math.sqrt(p.nu / p.sigma)

        def theta_integrand(theta):
            t = p.mu + s * math.tan(theta)
            return t_pdf(t, p) * s / math.cos(theta) ** 2

        mass, _ = quad(theta_integrand, -math.pi / 2, math.pi / 2,
                       epsabs=1e-12, epsrel=1e-12)
        assert abs(mass - 1.0) < 1e-10

    def test_standard_density_formula(self):
        nu = 4.0
        p = TParams1D(0.0, 1.0, nu)
        for t in (-2.3, 0.0, 0.4, 5.0):
            ref = (math.gamma((nu + 1) / 2) / (math.sqrt(nu * math.pi) * math.gamma(nu / 2))
                   * (1 + t * t / nu) ** (-(nu + 1) / 2))
            assert math.isclose(t_pdf(t, p), ref, rel_tol=1e-14)

    def test_array_input(self):
        p = TParams1D(1.0, 2.0, 5.0)
        ts = np.linspace(-3, 3, 7)
        vals = t_pdf(ts, p)
        assert vals.shape == ts.shape
        assert vals.argmax() == np.abs(ts - p.mu).argmin()
        assert isinstance(t_pdf(0.0, p), float)

    @pytest.mark.parametrize("p", PARAMS)
    def test_matches_scale_mixture(self, p):
        for t in np.linspace(p.mu - 3.5, p.mu + 3.5, 9):
            ref = mixture_pdf_1d(float(t), p, tol=1e-12)
            assert abs(t_pdf(float(t), p) - ref.value) < 1e-8
