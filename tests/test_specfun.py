"""Special-function kernel tests.

Terminating hypergeometric sums are checked against an exact rational
arithmetic oracle (Fraction); non-terminating paths against mpmath and against
the transform identities they are built on.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mp_incomplete_beta

from tmoments.errors import DomainError, NonConvergenceError
from tmoments.specfun import (MAX_SERIES_TERMS, _gamma_shift_ratio, _series, _t_halves, gamma_ratio,
                              hyp1f1, hyp2f1, log_gamma, rising_factorial)

mpmath.mp.dps = 40


def exact_1f1(n: int, c: Fraction, z: Fraction) -> Fraction:
    """Rational-arithmetic sum of the terminating series 1F1(-n; c; z)."""
    total = Fraction(0)
    term = Fraction(1)
    for i in range(n + 1):
        total += term
        term *= Fraction(-n + i) * z / ((c + i) * (i + 1))
    return total


def exact_2f1(n: int, b: Fraction, c: Fraction, z: Fraction) -> Fraction:
    """Rational-arithmetic sum of the terminating series 2F1(-n, b; c; z)."""
    total = Fraction(0)
    term = Fraction(1)
    for i in range(n + 1):
        total += term
        term *= Fraction(-n + i) * (b + i) * z / ((c + i) * (i + 1))
    return total


def rel_err(x: float, ref: float) -> float:
    return abs(x - ref) / max(1.0, abs(ref))


# (arguments, (value, terms_used, est_error, terminating)) recorded from the
# separate 1F1 and 2F1 loops that the shared term loop replaced, one or more
# rows per evaluation path: terminating (z = 0 included), Kummer, Pfaff,
# direct series and the non-terminating z = 0 return. Compared exactly, so any
# change to the product order or the stopping rule shows.
HYP1F1_TABLE = [
    ((-2.0, 0.5, 1.2), (-1.8800000000000001, 3, 0.0, True)),
    ((-5.0, 1.5, -7.25), (751.2294943482443, 6, 0.0, True)),
    ((-3.0, 0.5, 0.0), (1.0, 4, 0.0, True)),
    ((0.0, 2.5, 3.0), (1.0, 1, 0.0, True)),
    ((-1.0, -2.0, 1.0), (1.5, 2, 0.0, True)),
    ((0.25, 0.5, -3.0), (0.4192771154985781, 27, 7.48614979951611e-18, False)),
    ((1.7, 1.5, -12.0), (-0.002752726282907595, 49, 1.5531476468002352e-19, False)),
    ((-1.5, 0.5, -40.0), (465.2142709610274, 104, 3.2245339165575146e-14, False)),
    ((0.25, 0.5, 2.5), (5.520979909275023, 25, 1.2534319901163992e-16, False)),
    ((3.2, 5.5, 8.0), (278.7333504953862, 40, 5.886369785829651e-15, False)),
    ((-2.5, 0.5, 0.75), (-1.4160457165788811, 15, 7.830848610610653e-18, False)),
    ((0.7, 1.5, 0.0), (1.0, 1, 0.0, False)),
]
HYP2F1_TABLE = [
    ((-2.0, 1.5, 0.5, -0.4), (4.2, 3, 0.0, True)),
    ((1.5, -3.0, 0.5, -0.7), (17.051000000000002, 4, 0.0, True)),
    ((-4.0, 2.5, 1.5, 0.0), (1.0, 5, 0.0, True)),
    ((-3.0, -11.0, 9.75, -3.3), (-4.770861340539717, 4, 0.0, True)),
    ((-6.0, -2.0, 1.5, -0.25), (-0.5, 3, 0.0, True)),
    ((-7.0, 12.5, 0.5, -2.5), (284458438.42487985, 8, 0.0, True)),
    ((0.3, 1.7, 0.5, -0.6), (0.6424594330699354, 28, 4.431136312904072e-17, False)),
    ((-0.5, 3.3, 1.5, -4.0), (3.2388399335566507, 63, 3.3063119710696873e-16, False)),
    ((0.25, 0.75, 1.25, -40.0), (0.49006950648455844, 982, 5.333351781412903e-17, False)),
    ((-1.5, 2.5, 0.5, -1.3), (16.431761397023013, 3, 0.0, False)),
    ((1.2, 0.4, 2.5, 0.55), (1.1439115306997387, 49, 7.323485975784385e-17, False)),
    ((0.3, 0.5, 1.5, 0.9), (1.1671937636331586, 242, 1.2479215421203656e-16, False)),
    ((-0.5, 2.5, 0.5, -0.0), (1.0, 1, 0.0, False)),
    ((0.7, 0.3, 1.1, 0.0), (1.0, 1, 0.0, False)),
]


class TestLogGamma:
    def test_known_points(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0
        assert math.isclose(log_gamma(0.5), math.log(math.sqrt(math.pi)), rel_tol=1e-15)

    def test_against_mpmath_on_grid(self):
        xs = [1e-3, 0.1, 0.37, 1.5, 2.5, 7.0, 33.3, 101.25, 170.0]
        for x in xs:
            ref = float(mpmath.loggamma(x))
            assert rel_err(log_gamma(x), ref) < 1e-13

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_domain(self, bad):
        with pytest.raises(DomainError, match="positive"):
            log_gamma(bad)

    def test_error_names_argument(self):
        with pytest.raises(DomainError, match="nu_half"):
            log_gamma(-3.0, name="nu_half")


class TestGammaRatio:
    def test_half_integer_recurrence_value(self):
        # Gamma(2.5)/Gamma(0.5) = 1.5 * 0.5 by the recurrence.
        assert math.isclose(gamma_ratio(2.5, 0.5), 0.75, rel_tol=1e-14)

    def test_large_arguments_stay_finite(self):
        val = gamma_ratio(160.5, 150.5)
        ref = float(mpmath.gamma(160.5) / mpmath.gamma(150.5))
        assert math.isfinite(val)
        assert rel_err(val, ref) < 1e-12

    @pytest.mark.parametrize("x", [1e-3, 0.25, 0.5, 3.5, 9.99, 10.0, 19.0, 5e5, 5e11, 1e15])
    def test_half_ratio_against_mpmath(self, x):
        # lgamma differences lose this ratio's digits at large x (1e-9 at 5e5)
        ref = float(mpmath.gamma(mpmath.mpf(x) + 0.5) / mpmath.gamma(x))
        assert abs(_gamma_shift_ratio(x, 0.5) - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("a", [0.1, 0.25, 0.75, 0.9])
    @pytest.mark.parametrize("x", [1e-3, 0.25, 3.5, 9.99, 10.0, 5e5, 1e15, 1e300, 1.7e308])
    def test_shift_ratio_against_mpmath(self, x, a):
        # lgamma overflows past about 2.5e305, where this ratio is near x^a
        with mpmath.workdps(40 + int(math.log10(x + 1.0))):
            ref = float(mpmath.exp(mpmath.loggamma(mpmath.mpf(x) + a)
                                   - mpmath.loggamma(mpmath.mpf(x))))
        assert abs(_gamma_shift_ratio(x, a) - ref) <= 4e-15 * ref

    @pytest.mark.parametrize("d", [0.5, 1.0, 10.0, -0.25])
    @pytest.mark.parametrize("x", [0.3, 3.7, 9.9, 12.5, 1e3, 1e5, 1e10, 3e12, 1e15])
    def test_ratio_against_mpmath_at_every_size(self, x, d):
        # exp(lgamma - lgamma) was off by 2.4e-10 at 1e5, 1.4e-5 at 1e10 and
        # 72% at 1e15
        with mpmath.workdps(60):
            ref = float(mpmath.exp(mpmath.loggamma(mpmath.mpf(x + d))
                                   - mpmath.loggamma(mpmath.mpf(x))))
        assert rel_err(gamma_ratio(x + d, x), ref) <= 5e-15

    @pytest.mark.parametrize("num, den", [(1e-3, 150.0), (0.0019, 148.1), (148.1, 0.0019),
                                          (520.5, 480.25), (170.5, 0.5), (2e-300, 7.5)])
    def test_far_apart_arguments(self, num, den):
        # a tiny argument, and ratios near the ends of the double range
        with mpmath.workdps(60):
            ref = float(mpmath.exp(mpmath.loggamma(mpmath.mpf(num))
                                   - mpmath.loggamma(mpmath.mpf(den))))
        assert rel_err(gamma_ratio(num, den), ref) <= 1e-12

    def test_overflow_and_underflow(self):
        with pytest.raises(OverflowError):
            gamma_ratio(1000.0, 1.0)
        assert gamma_ratio(1.0, 1000.0) == 0.0

    @given(st.floats(0.1, 40.0), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_matches_rising_factorial(self, a, n):
        assert math.isclose(gamma_ratio(a + n, a), rising_factorial(a, n),
                            rel_tol=1e-12, abs_tol=1e-300)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_ratio(-1.0, 2.0)
        with pytest.raises(DomainError):
            gamma_ratio(2.0, 0.0)


class TestRisingFactorial:
    def test_empty_product(self):
        assert rising_factorial(3.0, 0) == 1.0
        assert rising_factorial(-7.2, 0) == 1.0

    def test_exact_zero_for_nonpositive_integer_base(self):
        assert rising_factorial(-2.0, 5) == 0.0
        assert rising_factorial(0.0, 1) == 0.0
        assert rising_factorial(-3.0, 4) == 0.0
        # one short of the zero factor: still nonzero
        assert rising_factorial(-3.0, 3) == -6.0

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            rising_factorial(1.0, -1)


class TestHyp1F1:
    def test_terminating_example(self):
        # 1F1(-2; 1/2; 6/5) = 1 - 24/5 + 48/25 = -47/25
        res = hyp1f1(-2.0, 0.5, 1.2)
        exact = exact_1f1(2, Fraction(1, 2), Fraction(6, 5))
        assert exact == Fraction(-47, 25)
        assert res.terminating
        assert res.est_error == 0.0
        assert res.terms_used == 3
        assert math.isclose(res.value, float(exact), rel_tol=1e-14)

    @given(st.integers(0, 12),
           st.fractions(min_value=Fraction(1, 4), max_value=Fraction(8), max_denominator=8),
           st.fractions(min_value=Fraction(-50), max_value=Fraction(0), max_denominator=8))
    @settings(max_examples=120, deadline=None)
    def test_terminating_matches_rational_oracle(self, n, c, z):
        res = hyp1f1(float(-n), float(c), float(z))
        # evaluate the oracle at the exact binary values the function saw
        ref = float(exact_1f1(n, Fraction(float(c)), Fraction(float(z))))
        assert res.terminating
        assert res.est_error == 0.0
        assert abs(res.value - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_zero_argument(self):
        assert hyp1f1(0.7, 1.5, 0.0).value == 1.0

    @pytest.mark.parametrize("a,c,z", [(0.25, 0.5, -3.0), (1.7, 1.5, -12.0),
                                       (0.25, 0.5, 2.5), (3.2, 5.5, 8.0)])
    def test_nonterminating_against_mpmath(self, a, c, z):
        ref = float(mpmath.hyp1f1(a, c, z))
        assert rel_err(hyp1f1(a, c, z).value, ref) < 1e-12

    def test_kummer_transform_consistency(self):
        # exp(z) 1F1(c-a; c; -z) must equal 1F1(a; c; z); compare the two raw
        # series (the public function picks one of them internally).
        for a in (0.25, 0.8, 2.3):
            for c in (0.5, 1.5, 3.7):
                for z in (-8.0, -2.5, -0.3):
                    direct = _series(a, None, c, z, MAX_SERIES_TERMS)[0]
                    transformed = math.exp(z) * _series(c - a, None, c, -z, MAX_SERIES_TERMS)[0]
                    assert abs(direct - transformed) <= 1e-11 * max(1.0, abs(direct))
                    assert rel_err(hyp1f1(a, c, z).value, transformed) < 1e-12

    def test_negative_z_uses_positive_series(self):
        # the transformed series terms are all positive, so the reported
        # error bound is tiny relative to the value
        res = hyp1f1(0.25, 0.5, -30.0)
        ref = float(mpmath.hyp1f1(0.25, 0.5, -30.0))
        assert rel_err(res.value, ref) < 1e-11
        assert not res.terminating

    def test_pole_rejected(self):
        with pytest.raises(DomainError, match="nonpositive integer"):
            hyp1f1(0.5, -1.0, 0.3)
        with pytest.raises(DomainError):
            hyp1f1(-3.0, -1.0, 0.3)  # pole at term 2 before termination at 3

    def test_termination_before_pole_allowed(self):
        # a = -1 stops the sum before the c = -2 pole appears
        res = hyp1f1(-1.0, -2.0, 1.0)
        assert res.terminating
        assert math.isclose(res.value, 1.5, rel_tol=1e-15)

    def test_terminating_series_length_is_capped(self):
        # a terminating series is summed term by term: MAX_SERIES_TERMS terms
        # are, one more is refused before any is formed
        res = hyp1f1(-float(MAX_SERIES_TERMS), 0.5, -1e-3)
        assert res.terminating and res.terms_used == MAX_SERIES_TERMS + 1
        with pytest.raises(NonConvergenceError, match="terminates after 10001 terms"):
            hyp1f1(-float(MAX_SERIES_TERMS + 1), 0.5, -1e-3)
        with pytest.raises(NonConvergenceError):
            hyp2f1(-float(MAX_SERIES_TERMS + 1), 2.5, 0.5, -0.2)


class TestHyp2F1:
    def test_terminating_flag_semantics(self):
        assert hyp2f1(-2.0, 1.5, 0.5, -0.4).terminating
        assert hyp2f1(1.5, -2.0, 0.5, -0.4).terminating
        assert not hyp2f1(0.3, 1.7, 0.5, -0.4).terminating

    @given(st.integers(0, 12),
           st.fractions(min_value=Fraction(1, 8), max_value=Fraction(16), max_denominator=8),
           st.sampled_from([Fraction(1, 2), Fraction(3, 2), Fraction(5, 2), Fraction(7, 3)]),
           st.fractions(min_value=Fraction(-30), max_value=Fraction(0), max_denominator=10))
    @settings(max_examples=120, deadline=None)
    def test_terminating_matches_rational_oracle(self, n, b, c, z):
        res = hyp2f1(float(-n), float(b), float(c), float(z))
        ref = float(exact_2f1(n, Fraction(float(b)), Fraction(float(c)), Fraction(float(z))))
        assert res.terminating
        assert res.est_error == 0.0
        assert abs(res.value - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_symmetry_in_first_two_parameters(self):
        a = hyp2f1(-3.0, 2.25, 1.5, -0.7).value
        b = hyp2f1(2.25, -3.0, 1.5, -0.7).value
        assert math.isclose(a, b, rel_tol=1e-14)

    @pytest.mark.parametrize("z", [-0.85, -0.5, -0.2, -0.05])
    def test_pfaff_matches_direct_series(self, z):
        # direct alternating series converges for |z| < 1; the public function
        # goes through the Pfaff transform for z < 0
        for (a, b, c) in [(0.3, 1.7, 0.5), (-0.5, 2.5, 1.5), (0.9, 0.45, 2.2)]:
            direct = _series(a, b, c, z, MAX_SERIES_TERMS)[0]
            val = hyp2f1(a, b, c, z).value
            assert abs(val - direct) <= 1e-10 * max(1.0, abs(direct))

    @pytest.mark.parametrize("a,b,c,z", [(0.3, 1.7, 0.5, -0.6), (1.2, 0.4, 2.5, 0.55),
                                         (-0.5, 3.3, 1.5, -4.0), (0.25, 0.75, 1.25, -40.0)])
    def test_against_mpmath(self, a, b, c, z):
        ref = float(mpmath.hyp2f1(a, b, c, z))
        assert rel_err(hyp2f1(a, b, c, z).value, ref) < 1e-11

    def test_argument_domain(self):
        with pytest.raises(DomainError, match="outside supported range"):
            hyp2f1(0.5, 0.5, 1.5, 1.0)
        with pytest.raises(DomainError):
            hyp2f1(0.5, 0.5, 1.5, 2.0)

    def test_pole_rejected(self):
        with pytest.raises(DomainError, match="nonpositive integer"):
            hyp2f1(0.5, 1.5, -2.0, -0.3)
        with pytest.raises(DomainError):
            hyp2f1(-4.0, 1.5, -2.0, -0.3)  # pole before termination

    def test_termination_before_pole_allowed(self):
        # c = -3 is only a pole from term 4 on; the a = -2 sum stops at term 2
        res = hyp2f1(-2.0, 1.0, -3.0, -1.5)
        ref = float(exact_2f1(2, Fraction(1), Fraction(-3), Fraction(-3, 2)))
        assert res.terminating
        assert math.isclose(res.value, ref, rel_tol=1e-14)

    def test_series_cap_is_reported(self):
        with pytest.raises(NonConvergenceError):
            hyp2f1(0.5, 0.5, 1.5, 0.9995)

    def test_zero_argument(self):
        assert hyp2f1(0.7, 0.3, 1.1, 0.0).value == 1.0

    def test_non_finite_term_is_an_overflow(self):
        # terms of both signs overflow; summed, they would be fsum's bare ValueError
        with pytest.raises(OverflowError, match="not a finite double"):
            hyp2f1(-3.0, -11, 9.851277044818806, -3.316066270375878e+199)

    def test_diagnostics_error_bound_is_honest(self):
        # non-terminating evaluation: first-neglected-term bound should cover
        # the true error by a wide margin
        res = hyp2f1(0.3, 1.7, 0.5, -0.6)
        ref = float(mpmath.hyp2f1(0.3, 1.7, 0.5, -0.6))
        assert abs(res.value - ref) <= max(res.est_error * 100, 1e-14 * abs(ref))
        assert res.terms_used > 3


@pytest.mark.parametrize("args, expected", HYP1F1_TABLE)
def test_hyp1f1_pinned_outputs(args, expected):
    res = hyp1f1(*args)
    assert (res.value, res.terms_used, res.est_error, res.terminating) == expected


@pytest.mark.parametrize("args, expected", HYP2F1_TABLE)
def test_hyp2f1_pinned_outputs(args, expected):
    res = hyp2f1(*args)
    assert (res.value, res.terms_used, res.est_error, res.terminating) == expected


class TestStudentTHalves:
    """P(0 < T < x) and P(T > x) for the standard t from the incomplete-beta
    fraction, against the 40-digit positive-term series."""

    @staticmethod
    def reference(x, nu):
        x2, nu = mpmath.mpf(x) ** 2, mpmath.mpf(nu)
        return (float(mp_incomplete_beta(0.5, nu / 2, x2 / (nu + x2)) / 2),
                float(mp_incomplete_beta(nu / 2, 0.5, nu / (nu + x2)) / 2))

    @pytest.mark.parametrize("nu", [0.5, 1.0, 7.0, 38.0, 1e3, 1e6])
    @pytest.mark.parametrize("x", [0.3, 1.0, 1.7, 2.0, 5.0, 30.0])
    def test_both_halves_keep_relative_digits(self, x, nu):
        norm = _gamma_shift_ratio(nu / 2, 0.5) / math.sqrt(math.pi)
        centre, tail, error, terms = _t_halves(x, nu, norm)
        ref_centre, ref_tail = self.reference(x, nu)
        assert abs(centre - ref_centre) <= 5e-15 * ref_centre
        # the tail is 1/2 - centre only where it is at least 0.04; far out
        # its digits go with the exponent (nu/2) log(1 + x^2/nu), 450 at most here
        assert abs(tail - ref_tail) <= error <= 5e-13 * ref_tail
        assert 0 < terms < 400

    def test_ends(self):
        norm = _gamma_shift_ratio(2.5, 0.5) / math.sqrt(math.pi)
        assert _t_halves(0.0, 5.0, norm) == (0.0, 0.5, 0.0, 0)
        assert _t_halves(math.inf, 5.0, norm) == (0.5, 0.0, 0.0, 0)
