"""Closed-form moments of the univariate generalized Student's t distribution.

Parameterization: St(t | mu, sigma, nu) has density proportional to
(1 + (sigma/nu) (t - mu)^2)^(-(nu+1)/2), so sigma is precision-like (larger
sigma means tighter): given the gamma mixing variable lambda, the conditional
distribution is N(mu, 1/(sigma lambda)), and the variance for nu > 2 is
nu / (sigma (nu - 2)). The conventional scale parameter s corresponds to
sigma = 1 / s^2.

Moments of order k exist iff k < nu; order 0 is always 1. Results are returned
as :class:`MomentResult` so undefined orders are reported rather than raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .normal_moments import (_SQRT_2_OVER_PI, _check_order, _gamma_moment, _log_gamma_moment,
                             _log_normal_scale)
from .specfun import _product, hyp2f1

#: Moment kinds of the univariate closed forms, the 1-D oracle and the CLI.
KINDS = ("raw", "central", "abs", "central-abs")

#: Seed the oracles use when the caller does not supply one (the CLI also
#: honors TMOMENT_SEED). Kept here, beside KINDS, so the CLI reads both
#: without loading the SciPy-based oracle module.
DEFAULT_SEED = 12345


@dataclass(frozen=True)
class TParams1D:
    """Location mu, precision-like sigma > 0, finite degrees of freedom nu > 0."""

    mu: float
    sigma: float
    nu: float

    def __post_init__(self):
        if math.isnan(self.mu):
            raise DomainError("TParams1D: mu must not be NaN")
        if not 0 < self.sigma < math.inf:
            raise DomainError(f"TParams1D: sigma must be positive and finite, got {self.sigma!r}")
        if not 0 < self.nu < math.inf:
            raise DomainError(f"TParams1D: nu must be positive and finite, got {self.nu!r}")


def precision_from_scale(s: float) -> float:
    """Convert a conventional scale parameter s to the precision-like sigma = 1/s^2."""
    if not s > 0:
        raise DomainError(f"precision_from_scale: scale must be positive, got {s!r}")
    return 1.0 / (s * s)


def scale_from_precision(sigma: float) -> float:
    """Inverse of :func:`precision_from_scale`."""
    if not sigma > 0:
        raise DomainError(f"scale_from_precision: sigma must be positive, got {sigma!r}")
    return 1.0 / math.sqrt(sigma)


@dataclass(frozen=True)
class QuadResult:
    """A quadrature value with its reported error bound and evaluation count."""

    value: float
    est_abs_error: float
    evaluations: int


@dataclass(frozen=True, eq=False)
class MomentResult:
    """A moment value plus definedness flag and diagnostic metadata.

    ``value`` is meaningful only when ``defined`` is true (it is NaN
    otherwise); ``reason`` explains undefined results. ``formula`` tags which
    closed form or recursion produced the number, and ``mode`` distinguishes
    closed forms from the two recursion variants. A defined value outside the
    double range raises ``OverflowError``, as the float arithmetic that
    produces most overflows already does.
    """

    value: float
    defined: bool = True
    reason: str = ""
    formula: str = ""
    mode: str = "closed-form"
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.defined and not math.isfinite(self.value):
            raise OverflowError(f"the value {self.value!r} is not a finite double")

    def __float__(self) -> float:
        return float(self.value)


_UNDEFINED_REASON = "order ≥ degrees of freedom"


def _undefined(formula: str, mode: str = "closed-form") -> MomentResult:
    return MomentResult(math.nan, defined=False, reason=_UNDEFINED_REASON,
                        formula=formula, mode=mode)


def _order_gate(k: float, nu: float, formula: str,
                mode: str = "closed-form") -> MomentResult | None:
    """Common existence handling: order 0 is 1, order >= nu is undefined."""
    if k == 0:
        return MomentResult(1.0, formula=formula, mode=mode)
    if k >= nu:
        return _undefined(formula, mode)
    return None


def _check_real_order(k, allow_noninteger: bool):
    if allow_noninteger:
        if not k >= 0:
            raise DomainError(f"moment order must be nonnegative, got {k!r}")
        return float(k)
    return _check_order(k)


def _series_diag(h) -> dict:
    return {"series_terms": h.terms_used, "series_error": h.est_error,
            "series_terminating": h.terminating}


def t_pdf(t, p: TParams1D):
    """Density of St(t | mu, sigma, nu); accepts scalars or arrays."""
    t = np.asarray(t, dtype=float)
    log_norm = (math.lgamma((p.nu + 1.0) / 2.0) - math.lgamma(p.nu / 2.0)
                + 0.5 * math.log(p.sigma / (p.nu * math.pi)))
    q = (p.sigma / p.nu) * (t - p.mu) ** 2
    out = np.exp(log_norm - 0.5 * (p.nu + 1.0) * np.log1p(q))
    return float(out) if out.ndim == 0 else out


def _abs_scale(k: float, nu: float, sigma: float) -> float:
    """E|T - mu|^k = (nu/sigma)^(k/2) Gamma((k+1)/2) Gamma((nu-k)/2) / (sqrt(pi) Gamma(nu/2)).

    Every moment kind is built from this scale. It is the scale-mixture
    product of the normal scale E|X|^k, X ~ N(0, 1/sigma), and the mixing
    moment E(lambda^(-k/2)), lambda ~ Gamma(nu/2, nu/2). For integer k the
    two are interleaved into one product that neither cancels nor leaves the
    double range on the way, so only the result can overflow: for even
    k = 2q it is prod_{i=1}^{q} (2i-1) (nu / (nu - 2i)) / sigma, and for odd
    k = 2q + 1 the first absolute moment times
    prod_{i=1}^{q} 2i (nu / (nu - 1 - 2i)) / sigma. Other orders take the
    log-gamma value of both factors at once.
    """
    if k % 2 == 0:
        return _product(int(k) // 2, 1, 2, nu, nu, -2, sigma)
    if k % 2 == 1:
        first = _SQRT_2_OVER_PI / math.sqrt(sigma) * _gamma_moment(nu / 2.0, nu / 2.0, -0.5)
        return _product(int(k) // 2, 2, 2, nu, nu - 1.0, -2, sigma, first)
    return math.exp(_log_normal_scale(k, -math.log(sigma))
                    + _log_gamma_moment(nu / 2.0, nu / 2.0, -k / 2.0))


def _located_abs(k: float, p: TParams1D, formula: str) -> MomentResult:
    # E|T|^k = E|T - mu|^k 2F1(-k/2, nu/2 - k/2; 1/2; -mu^2 sigma/nu); the
    # series terminates for even k and goes through the Pfaff transform otherwise.
    h = hyp2f1(-k / 2.0, p.nu / 2.0 - k / 2.0, 0.5, -p.mu * p.mu * p.sigma / p.nu)
    return MomentResult(_abs_scale(k, p.nu, p.sigma) * h.value, formula=formula,
                        diagnostics=_series_diag(h))


def raw_moment_standard(k, nu: float) -> MomentResult:
    """E(T^k) for the standard case mu = 0, sigma = 1.

    Zero for odd k < nu; for even k < nu, prod_{i=1}^{k/2} (2i-1) nu / (nu - 2i).
    """
    k = _check_order(k)
    gate = _order_gate(k, nu, "raw-standard")
    if gate is not None:
        return gate
    return MomentResult(0.0 if k % 2 else _abs_scale(k, nu, 1.0), formula="raw-standard")


def abs_moment_standard(k, nu: float, *, allow_noninteger: bool = False) -> MomentResult:
    """E(|T|^k) for the standard case mu = 0, sigma = 1, order k < nu."""
    k = _check_real_order(k, allow_noninteger)
    gate = _order_gate(k, nu, "abs-standard")
    if gate is not None:
        return gate
    return MomentResult(_abs_scale(k, nu, 1.0), formula="abs-standard")


def raw_moment(k, p: TParams1D) -> MomentResult:
    """E(T^k) for general (mu, sigma, nu), via terminating 2F1 sums.

    Even orders coincide with :func:`abs_moment`; odd orders are
    k mu E|T - mu|^(k-1) 2F1((1-k)/2, nu/2 - (k-1)/2; 3/2; -mu^2 sigma/nu).
    """
    k = _check_order(k)
    gate = _order_gate(k, p.nu, "raw")
    if gate is not None:
        return gate
    if k % 2 == 0:
        return _located_abs(k, p, "raw")
    h = hyp2f1((1.0 - k) / 2.0, p.nu / 2.0 - (k - 1.0) / 2.0, 1.5, -p.mu * p.mu * p.sigma / p.nu)
    value = k * p.mu * _abs_scale(k - 1, p.nu, p.sigma) * h.value
    return MomentResult(value, formula="raw", diagnostics=_series_diag(h))


def central_moment(k, p: TParams1D) -> MomentResult:
    """E((T - mu)^k): zero for odd k < nu, the absolute scale E|T - mu|^k for even k."""
    k = _check_order(k)
    gate = _order_gate(k, p.nu, "central")
    if gate is not None:
        return gate
    return MomentResult(0.0 if k % 2 else _abs_scale(k, p.nu, p.sigma), formula="central")


def abs_moment(k, p: TParams1D, *, allow_noninteger: bool = False) -> MomentResult:
    """E(|T|^k) for general (mu, sigma, nu): the central absolute moment times
    2F1(-k/2, nu/2 - k/2; 1/2; -mu^2 sigma/nu).

    For even integer k the series terminates and the result is
    :func:`raw_moment`; odd (and, with ``allow_noninteger``, real) orders
    produce a non-terminating 2F1 handled through the Pfaff transform.
    """
    k = _check_real_order(k, allow_noninteger)
    gate = _order_gate(k, p.nu, "abs")
    if gate is not None:
        return gate
    return _located_abs(k, p, "abs")


def central_abs_moment(k, p: TParams1D, *, allow_noninteger: bool = False) -> MomentResult:
    """E(|T - mu|^k): location drops out, leaving the standard absolute form scaled."""
    k = _check_real_order(k, allow_noninteger)
    gate = _order_gate(k, p.nu, "central-abs")
    if gate is not None:
        return gate
    return MomentResult(_abs_scale(k, p.nu, p.sigma), formula="central-abs")


def raw_from_central(k, p: TParams1D) -> MomentResult:
    """E(T^k) recombined from central moments by the binomial expansion.

    Provided as an independent route to :func:`raw_moment`; both must agree
    whenever the order is defined.
    """
    k = _check_order(k)
    gate = _order_gate(k, p.nu, "raw-from-central")
    if gate is not None:
        return gate
    terms = []
    for i in range(k + 1):
        central = central_moment(i, p)
        if central.value != 0.0:
            terms.append(p.mu ** (k - i) * math.comb(k, i) * central.value)
    return MomentResult(math.fsum(terms), formula="raw-from-central")
