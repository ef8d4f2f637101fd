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

from tmoments.errors import DomainError, NonConvergenceError
from tmoments.oracle import mixture_pdf_1d, quad_moment_1d
from tmoments.t1d import (TParams1D, abs_moment, abs_moment_standard, central_abs_moment,
                          central_moment, precision_from_scale, raw_from_central,
                          raw_moment, raw_moment_standard, scale_from_precision, t_pdf)

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
