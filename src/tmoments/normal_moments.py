"""Moments of the normal and gamma building blocks.

These are the two factors of the scale-mixture representation of the
Student's t family, E prod T_i^(k_i) = E(lambda^(-K/2)) E prod Z_i^(k_i): a
normal kernel, whose absolute and raw moments are a scale E|X - mean|^k
times a confluent-hypergeometric series, and gamma-distribution power
moments (including negative real powers), which integrate over the mixing
variable lambda. The t modules build their closed forms from these two.

Integer orders of both scales are products of growing factors, formed by
``specfun._product`` without leaving the double range on the way; other
gamma orders start that product at the accurate ratio Gamma(x + f) / Gamma(x)
of their fractional part f, and other normal orders take the log-gamma value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, UndefinedMomentError
from .specfun import _gamma_shift_ratio, _product, hyp1f1

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class NormalParams:
    """Mean/variance parameterization of a univariate normal."""

    mean: float
    variance: float

    def __post_init__(self):
        if math.isnan(self.mean):
            raise DomainError("NormalParams: mean must not be NaN")
        if not 0 < self.variance < math.inf:
            raise DomainError(
                f"NormalParams: variance must be positive and finite, got {self.variance!r}")


@dataclass(frozen=True)
class GammaParams:
    """Shape/rate parameterization of a gamma distribution."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise DomainError(f"GammaParams: shape alpha must be positive, got {self.alpha!r}")
        if not self.beta > 0:
            raise DomainError(f"GammaParams: rate beta must be positive, got {self.beta!r}")


def _check_order(k) -> int:
    if isinstance(k, bool) or not float(k).is_integer() or k < 0:
        raise DomainError(f"moment order must be a nonnegative integer, got {k!r}")
    return int(k)


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise OverflowError(f"the value {value!r} is not a finite double")
    return value


def _log_normal_scale(k: float, log_variance: float) -> float:
    """log E|X - mean|^k = (k/2) log(2 variance) + log Gamma((k+1)/2) - log sqrt(pi)."""
    return (0.5 * k * (math.log(2.0) + log_variance) + math.lgamma((k + 1.0) / 2.0)
            - 0.5 * math.log(math.pi))


def _normal_scale(k, variance: float) -> float:
    """E|X - mean|^k = (2 variance)^(k/2) Gamma((k+1)/2) / sqrt(pi), real k > -1.

    For integer k = 2q + r (r = 0 or 1) this is prod_{i=1}^{q} (2i - 1 + r)
    variance, started at sqrt(2 variance/pi) for odd k.
    """
    if k % 2 == 0:
        return _product(int(k) // 2, 1, 2, variance, 1.0, 0)
    if k % 2 == 1:
        return _product(int(k) // 2, 2, 2, variance, 1.0, 0, 1.0,
                        _SQRT_2_OVER_PI * math.sqrt(variance))
    return math.exp(_log_normal_scale(k, math.log(variance)))


def normal_central_moment(p: NormalParams, m) -> float:
    """E((X - mean)^m): zero for odd m, variance^(m/2) (m-1)!! for even m."""
    m = _check_order(m)
    return 0.0 if m % 2 else _normal_scale(m, p.variance)


def normal_abs_moment(p: NormalParams, k) -> float:
    """E(|X|^k) = E|X - mean|^k 1F1(-k/2; 1/2; -mean^2/(2 variance)).

    Accepts any real k > -1, although the moment formulas only need
    nonnegative integers.
    """
    if not k > -1:
        raise DomainError(f"normal_abs_moment: requires k > -1, got {k!r}")
    h = hyp1f1(-k / 2.0, 0.5, -p.mean * p.mean / (2.0 * p.variance))
    return _finite(_normal_scale(k, p.variance) * h.value)


def normal_raw_moment(p: NormalParams, k) -> float:
    """E(X^k) for nonnegative integer k.

    Even orders coincide with the absolute moment; odd orders are
    k mean E|X - mean|^(k-1) 1F1((1-k)/2; 3/2; -mean^2/(2 variance)).
    """
    k = _check_order(k)
    if k % 2 == 0:
        return normal_abs_moment(p, k)
    h = hyp1f1((1.0 - k) / 2.0, 1.5, -p.mean * p.mean / (2.0 * p.variance))
    return _finite(k * p.mean * _normal_scale(k - 1, p.variance) * h.value)


def _gamma_moment(alpha: float, beta: float, k: float) -> float:
    """:func:`gamma_moment` for k > -alpha, without building its parameters.

    An order that is not an integer, k = +-(j + f) with 0 < f < 1, starts
    the integer product at the order +-f, Gamma(alpha + f) / (Gamma(alpha) beta^f) or
    beta^f Gamma(alpha - f) / Gamma(alpha), from the accurate ratio
    ``_gamma_shift_ratio`` instead of a log-gamma difference, which loses
    digits once alpha is large and overflows past about 2.5e305.
    """
    if float(k).is_integer():
        if k >= 0:
            return _product(int(k), alpha, 1, 1.0, 1.0, 0, beta)
        return _product(int(-k), 1, 0, beta, alpha, -1)
    f = abs(k) % 1.0
    root = math.sqrt(beta) if f == 0.5 else beta ** f
    if k > 0:
        return _product(int(k), alpha + f, 1, 1.0, 1.0, 0, beta,
                        _gamma_shift_ratio(alpha, f) / root)
    return _product(int(-k), 1, 0, beta, alpha - f, -1, 1.0,
                    root / _gamma_shift_ratio(alpha - f, f))


def gamma_moment(p: GammaParams, k: float) -> float:
    """E(X^k) = beta^(-k) Gamma(k + alpha) / Gamma(alpha), for real k > -alpha.

    An integer order is the product prod_{i=1}^{k} (alpha + i - 1) / beta,
    or prod_{i=1}^{-k} beta / (alpha - i) for k < 0; any other order is the
    like product started at the order of its fractional part.
    """
    if not k > -p.alpha:
        raise UndefinedMomentError(
            f"gamma_moment: E(X^{k}) undefined for shape alpha = {p.alpha} (needs k > -alpha)")
    return _gamma_moment(p.alpha, p.beta, k)
