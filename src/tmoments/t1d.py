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
from .normal_moments import _check_order
from .specfun import gamma_ratio, hyp2f1

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class TParams1D:
    """Location mu, precision-like sigma > 0, degrees of freedom nu > 0."""

    mu: float
    sigma: float
    nu: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise DomainError(f"TParams1D: sigma must be positive, got {self.sigma!r}")
        if not self.nu > 0:
            raise DomainError(f"TParams1D: nu must be positive, got {self.nu!r}")


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


def _order_gate(k: float, nu: float, formula: str) -> MomentResult | None:
    """Common existence handling: order 0 is 1, order >= nu is undefined."""
    if k == 0:
        return MomentResult(1.0, formula=formula)
    if k >= nu:
        return _undefined(formula)
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


def raw_moment_standard(k, nu: float) -> MomentResult:
    """E(T^k) for the standard case mu = 0, sigma = 1.

    Zero for odd k < nu; for even k < nu,
    Gamma((k+1)/2)/sqrt(pi) * nu^(k/2) / prod_{i=1}^{k/2} (nu/2 - i).
    """
    k = _check_order(k)
    gate = _order_gate(k, nu, "raw-standard")
    if gate is not None:
        return gate
    if k % 2 == 1:
        return MomentResult(0.0, formula="raw-standard")
    denom = 1.0
    for i in range(1, k // 2 + 1):
        denom *= nu / 2.0 - i
    value = math.gamma((k + 1.0) / 2.0) / _SQRT_PI * nu ** (k / 2.0) / denom
    return MomentResult(value, formula="raw-standard")


def abs_moment_standard(k, nu: float, *, allow_noninteger: bool = False) -> MomentResult:
    """E(|T|^k) for the standard case mu = 0, sigma = 1, order k < nu."""
    k = _check_real_order(k, allow_noninteger)
    gate = _order_gate(k, nu, "abs-standard")
    if gate is not None:
        return gate
    value = (nu ** (k / 2.0) * math.gamma((k + 1.0) / 2.0)
             * gamma_ratio((nu - k) / 2.0, nu / 2.0) / _SQRT_PI)
    return MomentResult(value, formula="abs-standard")


def raw_moment(k, p: TParams1D) -> MomentResult:
    """E(T^k) for general (mu, sigma, nu), via terminating 2F1 sums."""
    k = _check_order(k)
    gate = _order_gate(k, p.nu, "raw")
    if gate is not None:
        return gate
    z = -p.mu * p.mu * p.sigma / p.nu
    if k % 2 == 0:
        h = hyp2f1(-k / 2.0, p.nu / 2.0 - k / 2.0, 0.5, z)
        value = ((p.nu / p.sigma) ** (k / 2.0) * math.gamma((k + 1.0) / 2.0) / _SQRT_PI
                 * gamma_ratio(p.nu / 2.0 - k / 2.0, p.nu / 2.0) * h.value)
    else:
        h = hyp2f1((1.0 - k) / 2.0, p.nu / 2.0 - (k - 1.0) / 2.0, 1.5, z)
        value = (2.0 * p.mu * (p.nu / p.sigma) ** ((k - 1.0) / 2.0)
                 * math.gamma(k / 2.0 + 1.0) / _SQRT_PI
                 * gamma_ratio(p.nu / 2.0 - (k - 1.0) / 2.0, p.nu / 2.0) * h.value)
    return MomentResult(value, formula="raw", diagnostics=_series_diag(h))


def central_moment(k, p: TParams1D) -> MomentResult:
    """E((T - mu)^k): zero for odd k < nu, a pure gamma-ratio form for even k."""
    k = _check_order(k)
    gate = _order_gate(k, p.nu, "central")
    if gate is not None:
        return gate
    if k % 2 == 1:
        return MomentResult(0.0, formula="central")
    value = ((p.nu / p.sigma) ** (k / 2.0) * math.gamma((k + 1.0) / 2.0) / _SQRT_PI
             * gamma_ratio((p.nu - k) / 2.0, p.nu / 2.0))
    return MomentResult(value, formula="central")


def abs_moment(k, p: TParams1D, *, allow_noninteger: bool = False) -> MomentResult:
    """E(|T|^k) for general (mu, sigma, nu).

    For even integer k this coincides with :func:`raw_moment`; odd (and, with
    ``allow_noninteger``, real) orders produce a non-terminating 2F1 handled
    through the Pfaff transform.
    """
    k = _check_real_order(k, allow_noninteger)
    gate = _order_gate(k, p.nu, "abs")
    if gate is not None:
        return gate
    z = -p.mu * p.mu * p.sigma / p.nu
    h = hyp2f1(-k / 2.0, p.nu / 2.0 - k / 2.0, 0.5, z)
    value = ((p.nu / p.sigma) ** (k / 2.0) * math.gamma((k + 1.0) / 2.0) / _SQRT_PI
             * gamma_ratio(p.nu / 2.0 - k / 2.0, p.nu / 2.0) * h.value)
    return MomentResult(value, formula="abs", diagnostics=_series_diag(h))


def central_abs_moment(k, p: TParams1D, *, allow_noninteger: bool = False) -> MomentResult:
    """E(|T - mu|^k): location drops out, leaving the standard absolute form scaled."""
    k = _check_real_order(k, allow_noninteger)
    gate = _order_gate(k, p.nu, "central-abs")
    if gate is not None:
        return gate
    value = ((p.nu / p.sigma) ** (k / 2.0) * math.gamma((k + 1.0) / 2.0) / _SQRT_PI
             * gamma_ratio((p.nu - k) / 2.0, p.nu / 2.0))
    return MomentResult(value, formula="central-abs")


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
