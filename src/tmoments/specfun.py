"""Special-function kernel used by the moment formulas.

Provides log-gamma, gamma ratios, rising factorials, the one range-safe
product behind every integer-order moment scale, the regularized incomplete
beta behind Student's t probabilities (a continued fraction), and the two
hypergeometric series 1F1 and 2F1, restricted to the argument ranges the
moment formulas produce: real parameters, real argument with z <= 0 or
|z| < 1. Both series run through one term loop; 1F1 is the case without a
second upper parameter. Terminating series are summed exactly (compensated
summation); non-terminating series are first mapped to positive-term series
(Kummer transform for 1F1, Pfaff transform for 2F1) so no cancellation
occurs. A term that is not a finite double raises OverflowError rather than
poisoning the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NonConvergenceError

#: Hard cap on series length: a series that has not converged within it, or
#: a terminating one that is longer, raises NonConvergenceError.
MAX_SERIES_TERMS = 10_000

_STOP_EPS = 2.0 ** -53

#: Products of more factors than this are checked against the double range
#: from a log-gamma estimate before they are multiplied out.
_PRODUCT_ESTIMATE_FROM = 4096

#: log of the largest double, and of half the smallest subnormal, below
#: which a positive value rounds to zero.
_LOG_MAX = math.log(2.0) * 1024
_LOG_HALF_TINY = math.log(2.0) * -1075


@dataclass(frozen=True)
class HypergeomEval:
    """Value of a hypergeometric series together with evaluation diagnostics.

    Attributes
    ----------
    value : float
        The series value.
    a, c, z : float
        Parameters as passed in. ``b`` is None for 1F1 evaluations.
    terminating : bool
        True iff the series terminates exactly (a, or b for 2F1, is a
        nonpositive integer), independent of the evaluation path taken.
    terms_used : int
        Number of series terms actually summed.
    est_error : float
        Absolute error bound: 0 for exactly terminated sums, otherwise the
        magnitude of the first neglected term (propagated through any
        prefactor).
    """

    value: float
    a: float
    c: float
    z: float
    b: float | None = None
    terminating: bool = False
    terms_used: int = 0
    est_error: float = 0.0


def _is_nonpositive_int(x: float) -> bool:
    return x <= 0 and float(x).is_integer()


def log_gamma(x: float, *, name: str = "x") -> float:
    """Natural log of the gamma function for x > 0.

    ``name`` identifies the offending formula argument in error messages.
    """
    if not x > 0:
        raise DomainError(f"log_gamma: argument {name} must be positive, got {x!r}")
    return math.lgamma(x)


def gamma_ratio(num: float, den: float) -> float:
    """Gamma(num)/Gamma(den) for num, den > 0.

    Both arguments are moved up to at least 10 by the recurrence, and the
    ratio there is den^a exp(.) with a = num - den, from the Stirling
    difference :func:`_gamma_shift_ratio` uses. A difference of log-gamma
    values would lose the ratio's digits once the arguments are large (72% at
    num = 1e15 + 0.5, den = 1e15); this form keeps a few ulps for small
    |num - den| at every size, and about 1e-13 for any ratio inside the
    double range. OverflowError past it.
    """
    for arg, name in ((num, "num"), (den, "den")):
        if not arg > 0:
            raise DomainError(f"gamma_ratio: argument {name} must be positive, got {arg!r}")
    # both move up together, so a tiny argument enters its factor exactly
    # and not through num - den
    scale, y, x = 1.0, num, den
    while min(y, x) < 10.0:
        scale *= x / y
        y += 1.0
        x += 1.0
    a = y - x
    log_ratio = _stirling_difference(x, a)
    log_power = a * math.log(x)
    if max(abs(log_power), abs(log_ratio)) < 708.0:
        out = scale * x ** a * math.exp(log_ratio)
    else:
        # x^a or the exponential alone would leave the double range
        out = math.exp(math.log(scale) + log_power + log_ratio)
    if out == math.inf:
        raise OverflowError(f"gamma_ratio: Gamma({num!r})/Gamma({den!r}) overflows")
    return out


def rising_factorial(a: float, n: int) -> float:
    """Rising factorial a^(n) = a (a+1) ... (a+n-1); empty product is 1.

    The product is evaluated directly, so a nonpositive integer base with
    n > -a yields exactly 0.
    """
    if n < 0 or not float(n).is_integer():
        raise DomainError(f"rising_factorial: count must be a nonnegative integer, got {n!r}")
    out = 1.0
    for i in range(int(n)):
        out *= a + i
    return out


def _product(q: int, c0, c1, n: float, d0: float, d1, s: float = 1.0,
             start: float = 1.0) -> float:
    """start * prod_{i=1}^{q} (c0 + c1 (i-1)) (n / (d0 + d1 i)) / s, for
    positive factors that do not decrease with i.

    This is the one product behind every integer-order moment scale; each
    caller picks the coefficients of its factor. The running product is kept
    as a mantissa and a binary exponent, so it cannot under- or overflow on
    the way to a result inside the double range. As the factors do not
    decrease, the loop stops once the outcome is certain: an OverflowError
    once the product is past the double range and rising, and zero once it is
    below it and no factor exceeds 1. A product of more than
    ``_PRODUCT_ESTIMATE_FROM`` factors is first estimated from log-gamma
    values (:func:`_log_product`); an estimate past the double range by more
    than its own error margin settles the outcome at once, in place of a loop
    whose length grows with q, and any other takes the loop.
    """
    if q > _PRODUCT_ESTIMATE_FROM and start > 0.0:
        log_value, margin = _log_product(q, c0, c1, n, d0, d1, s, start)
        if log_value - margin > _LOG_MAX:
            raise OverflowError(f"a moment scale of {q} factors is beyond the double range")
        if log_value + margin < _LOG_HALF_TINY:
            return 0.0
    mant, exp = (start, 0) if 1e-150 < start < 1e150 else math.frexp(start)
    for i in range(1, q + 1):
        f = (c0 + c1 * (i - 1)) * (n / (d0 + d1 * i)) / s
        mant *= f
        if not 1e-150 < mant < 1e150:
            mant, e = math.frexp(mant)
            exp += e
            if f >= 1.0 and (exp > 1024 or mant == math.inf):
                raise OverflowError(f"a moment scale of {q} factors is beyond the double range")
            if exp < -1076 and (c0 + c1 * (q - 1)) * (n / (d0 + d1 * q)) / s <= 1.0:
                return 0.0
    return math.ldexp(mant, exp)


def _log_product(q: int, c0, c1, n: float, d0: float, d1, s: float,
                 start: float) -> tuple[float, float]:
    """The log of the :func:`_product` of the same arguments, and a margin
    that bounds its rounding error.

    Every caller has c0 > 0 and c1 >= 0 in the numerators and d1 <= 0 in the
    denominators. With c1 > 0 the numerators multiply to
    c1^q Gamma(c0/c1 + q) / Gamma(c0/c1), and with d1 < 0 the denominators to
    |d1|^q Gamma(x) / Gamma(x - q), x = d0/|d1| > q; c1 = 0 and d1 = 0 give
    powers. The margin, 1e-12 of the sum of the magnitudes of the terms plus
    one, is far above their rounding, a few ulps of each.
    """
    terms = [math.log(start), q * math.log(n), -q * math.log(s)]
    if c1:
        terms += [q * math.log(c1), _log_gamma_ratio(c0 / c1, q)]
    else:
        terms.append(q * math.log(c0))
    if d1:
        x = d0 / -d1
        terms += [-q * math.log(-d1), -_log_gamma_ratio(x - q, q)]
    else:
        terms.append(-q * math.log(d0))
    return math.fsum(terms), 1.0 + 1e-12 * math.fsum(map(abs, terms))


def _gamma_shift_ratio(x: float, a: float) -> float:
    """Gamma(x + a) / Gamma(x) for x > 0 and 0 < a < 1, to a few ulps at every x.

    The difference of log-gamma values loses the ratio's digits once x is
    large (lgamma(5e5) carries an absolute error near 1e-9, and lgamma
    overflows past about 2.5e305). Instead x is moved up to at least 10 by
    Gamma(x+a)/Gamma(x) = (x+a)/x * Gamma(x+1+a)/Gamma(x+1), and the ratio
    there is x^a times the exponential of the difference of the two Stirling
    series, with (x + a - 1/2) log(1 + a/x) - a taken through log1p. The
    factor x^a (sqrt(x) for a = 1/2) stays out of the exponential, whose
    rounding would grow with log x.
    """
    scale = 1.0
    while x < 10.0:
        scale *= x / (x + a)
        x += 1.0
    return scale * (math.sqrt(x) if a == 0.5 else x ** a) * math.exp(_stirling_difference(x, a))


def _stirling_difference(y: float, a: float) -> float:
    """log(Gamma(y + a)/Gamma(y)) - a log y for y, y + a >= 10, without the
    cancellation of two log-gamma values."""
    return ((y + (a - 0.5)) * math.log1p(a / y) - a) + (_stirling(y + a) - _stirling(y))


def _log_gamma_ratio(y: float, q: float) -> float:
    """lgamma(y + q) - lgamma(y) for y > 0 and q >= 0, to about 1e-15 of
    q log(y + q) + q.

    From y = 10 on it is the difference of the Stirling forms,
    q log(y + q) + (y - 1/2) log(1 + q/y) - q, whose terms stay near the
    result's size where the two log-gamma values, about y log y each, would
    cancel (and overflow past y = 2.5e305).
    """
    if y < 10.0:
        return math.lgamma(y + q) - math.lgamma(y)
    return (q * math.log(y + q) + (y - 0.5) * math.log1p(q / y) - q
            + (_stirling(y + q) - _stirling(y)))


def _stirling(y: float) -> float:
    """lgamma(y) - ((y - 1/2) log y - y + log(2 pi)/2) for y >= 10, to 1e-15:
    sum_{n=1}^{6} B_2n / (2n (2n-1) y^(2n-1))."""
    z = 1.0 / (y * y)
    return (1.0 / 12.0 + z * (-1.0 / 360.0 + z * (1.0 / 1260.0 + z * (
        -1.0 / 1680.0 + z * (1.0 / 1188.0 + z * (-691.0 / 360360.0)))))) / y


def _beta_fraction(a: float, b: float, x: float, y: float) -> tuple[float, int]:
    """Continued fraction of the regularized incomplete beta, y = 1 - x.

    Returns (fraction, terms) with I_x(a, b) = x^a y^b / (B(a, b) fraction).
    This is the fraction Didonato & Morris (1992, ACM TOMS 18, Algorithm 708,
    routine BFRAC) use in place of DLMF 8.17.22, evaluated by the modified
    Lentz method. It takes y as an argument of its own, so x close to 1 loses
    no digits to 1 - x (8.17.22 in x alone lost 1e-11 on the t tail at
    nu = 1e6); it converges quickly for x < (a + 1)/(a + b + 2).
    """
    tiny = 1e-300
    f = a / (a + 1.0) * (a * y - b * x + 1.0)
    if f == 0.0:
        f = tiny
    c, d = f, 0.0
    for m in range(1, MAX_SERIES_TERMS + 1):
        den = a + 2.0 * m - 1.0
        # each large parameter meets a factor x, so a huge a or b cannot overflow
        num = (a + m - 1.0) / den * ((a + b + m - 1.0) * x / den) * m * ((b - m) * x)
        term = (m + m * ((b - m) * x) / den
                + (a + m) / (a + 2.0 * m + 1.0) * (a * y - b * x + 1.0 + m * (2.0 - x)))
        d = term + num * d
        d = 1.0 / (d if d != 0.0 else tiny)
        c = term + num / c
        if c == 0.0:
            c = tiny
        delta = c * d
        f *= delta
        if abs(delta - 1.0) <= _STOP_EPS:
            return f, m
    raise NonConvergenceError(
        f"incomplete beta I_{x}({a}, {b}) did not converge within {MAX_SERIES_TERMS} terms",
        value=math.nan, est_error=math.inf, iterations=MAX_SERIES_TERMS)


def _log1p_square(x: float, nu: float) -> float:
    """log(1 + x^2/nu) for finite x >= 0, without forming x^2 past sqrt(nu),
    where it would overflow beyond about 1.3e154."""
    root = math.sqrt(nu)
    if x <= root:
        return math.log1p(x * x / nu)
    return 2.0 * math.log(x / root) + math.log1p((root / x) ** 2)


def _t_halves(x: float, nu: float, norm: float) -> tuple[float, float, float, int]:
    """Centre and tail of Student's t: (P(0 < T < x), P(T > x), error, terms)
    for T ~ t_nu standard and x >= 0.

    ``norm`` is Gamma((nu+1)/2) / (Gamma(nu/2) sqrt(pi)), which the caller
    also needs for the density. With w = nu/(nu + x^2) the tail is
    I_w(nu/2, 1/2)/2 and the centre I_(1-w)(1/2, nu/2)/2. Of the two, the one
    whose fraction converges quickly, centre for 1 - w < 3/(nu + 5) and tail
    otherwise, is computed directly; the other is 1/2 minus it. The directly
    computed one is the smaller except between the upper quartile and that
    switch, where the tail is at least 0.04 and loses at most a dozen ulps as
    1/2 minus the centre. ``error`` estimates the absolute error of both
    values: rounding in the fraction and in the exponent (nu/2) log(1 + x^2/nu),
    which grows with the exponent.
    """
    if x == 0.0:
        return 0.0, 0.5, 0.0, 0
    if x == math.inf:
        return 0.5, 0.0, 0.0, 0
    h = 0.5 * nu
    root = math.sqrt(nu)
    if x <= root:
        x2 = x * x
        # sqrt(y) = x / sqrt(nu + x^2), which does not underflow with x^2
        y, w, sqrt_y = x2 / (nu + x2), nu / (nu + x2), x / math.sqrt(nu + x2)
        expo = h * math.log1p(x2 / nu)
    else:
        # r^2 = nu/x^2 in place of x^2, which overflows past about 1.3e154
        # (the split of _log1p_square)
        r2 = (root / x) ** 2
        y, w, sqrt_y = 1.0 / (1.0 + r2), r2 / (1.0 + r2), 1.0 / math.sqrt(1.0 + r2)
        expo = h * (2.0 * math.log(x / root) + math.log1p(r2))
    # x^a y^b / (2 B(a, b)) for {a, b} = {1/2, nu/2}, with 1/B(nu/2, 1/2) = norm
    pref = 0.5 * sqrt_y * math.exp(-expo) * norm
    centred = y < 3.0 / (nu + 5.0)
    fraction, terms = _beta_fraction(0.5, h, y, w) if centred else _beta_fraction(h, 0.5, w, y)
    value = pref / fraction
    error = _STOP_EPS * (4.0 * expo + terms + 8.0) * value if value else 0.0
    return (value, 0.5 - value, error, terms) if centred else (0.5 - value, value, error, terms)


def _pole_before_termination(c: float, n_last: int) -> bool:
    # Denominator factors are c, c+1, ..., c+n_last-1 for the term of order
    # n_last; a nonpositive integer c inside that range is a pole.
    return _is_nonpositive_int(c) and -c <= n_last - 1


def _series_name(a: float, b: float | None, c: float, z: float) -> str:
    return f"1F1({a}, {c}; {z})" if b is None else f"2F1({a}, {b}; {c}; {z})"


def _series(a: float, b: float | None, c: float, z: float, limit: int,
            terminating: bool = False) -> tuple[float, int, float]:
    """Taylor sum of 2F1(a, b; c; z), or of 1F1(a; c; z) when ``b`` is None.

    A terminating series sums all ``limit`` + 1 terms, zero terms included,
    with error 0; one longer than ``MAX_SERIES_TERMS`` raises
    NonConvergenceError before a term is formed. Otherwise summing stops at
    the first term that is zero or negligible against the running sum, and
    that term is the error estimate; ``limit`` terms without stopping raise
    NonConvergenceError. A term that is not a finite double raises
    OverflowError. Returns (value, terms_used, est_error).
    """
    if terminating and limit > MAX_SERIES_TERMS:
        raise NonConvergenceError(
            f"{_series_name(a, b, c, z)} terminates after {limit:g} terms, more than the "
            f"{MAX_SERIES_TERMS} summed")
    terms = [1.0]
    term = 1.0
    running = 1.0
    for n in range(limit):
        term *= (a + n if b is None else (a + n) * (b + n)) / (c + n) * z / (n + 1)
        if not math.isfinite(term):
            raise OverflowError(f"{_series_name(a, b, c, z)}: term {n + 1} is not a finite double")
        if not terminating:
            if term == 0.0:
                return math.fsum(terms), len(terms), 0.0
            if abs(term) <= _STOP_EPS * abs(running):
                return math.fsum(terms), len(terms), abs(term)
            running += term
        terms.append(term)
    if terminating:
        return math.fsum(terms), len(terms), 0.0
    raise NonConvergenceError(
        f"{_series_name(a, b, c, z)} did not converge within {limit} terms",
        value=math.fsum(terms), est_error=abs(term), iterations=limit)


def hyp1f1(a: float, c: float, z: float, *, max_terms: int = MAX_SERIES_TERMS) -> HypergeomEval:
    """Confluent hypergeometric function 1F1(a; c; z).

    Terminates exactly when a is a nonpositive integer. Otherwise, negative
    arguments are evaluated through the Kummer transform
    exp(z) * 1F1(c-a; c; -z), whose series has no sign changes.
    """
    if _is_nonpositive_int(a):
        n_last = int(-a)
        if _pole_before_termination(c, n_last):
            raise DomainError(
                f"hyp1f1: parameter c = {c!r} is a nonpositive integer reached before termination")
        value, used, _ = _series(a, None, c, z, n_last, terminating=True)
        return HypergeomEval(value=value, a=a, c=c, z=z, terminating=True,
                             terms_used=used, est_error=0.0)
    if _is_nonpositive_int(c):
        raise DomainError(f"hyp1f1: parameter c = {c!r} is a nonpositive integer (series pole)")
    if z < 0:
        inner, used, err = _series(c - a, None, c, -z, max_terms)
        scale = math.exp(z)
        return HypergeomEval(value=scale * inner, a=a, c=c, z=z, terminating=False,
                             terms_used=used, est_error=scale * err)
    value, used, err = _series(a, None, c, z, max_terms)
    return HypergeomEval(value=value, a=a, c=c, z=z, terminating=False,
                         terms_used=used, est_error=err)


def hyp2f1(a: float, b: float, c: float, z: float, *,
           max_terms: int = MAX_SERIES_TERMS) -> HypergeomEval:
    """Gauss hypergeometric function 2F1(a, b; c; z) for z <= 0 or |z| < 1.

    Terminates exactly when a or b is a nonpositive integer. Otherwise z < 0
    is mapped into (0, 1) by the Pfaff transform
    (1-z)^(-a) * 2F1(a, c-b; c; z/(z-1)), avoiding alternating-sign terms.
    """
    if not (z <= 0 or abs(z) < 1):
        raise DomainError(f"hyp2f1: argument z = {z!r} outside supported range (z <= 0 or |z| < 1)")
    if _is_nonpositive_int(a) or _is_nonpositive_int(b):
        candidates = [int(-p) for p in (a, b) if _is_nonpositive_int(p)]
        n_last = min(candidates)
        if _pole_before_termination(c, n_last):
            raise DomainError(
                f"hyp2f1: parameter c = {c!r} is a nonpositive integer reached before termination")
        value, used, _ = _series(a, b, c, z, n_last, terminating=True)
        return HypergeomEval(value=value, a=a, c=c, z=z, b=b, terminating=True,
                             terms_used=used, est_error=0.0)
    if _is_nonpositive_int(c):
        raise DomainError(f"hyp2f1: parameter c = {c!r} is a nonpositive integer (series pole)")
    if z == 0:
        return HypergeomEval(value=1.0, a=a, c=c, z=z, b=b, terminating=False,
                             terms_used=1, est_error=0.0)
    if z < 0:
        w = z / (z - 1.0)
        inner, used, err = _series(a, c - b, c, w, max_terms)
        scale = (1.0 - z) ** (-a)
        return HypergeomEval(value=scale * inner, a=a, c=c, z=z, b=b, terminating=False,
                             terms_used=used, est_error=scale * err)
    value, used, err = _series(a, b, c, z, max_terms)
    return HypergeomEval(value=value, a=a, c=c, z=z, b=b, terminating=False,
                         terms_used=used, est_error=err)
