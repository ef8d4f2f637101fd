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

#: Moment kinds of the univariate closed forms, the 1-D oracle and the CLI.
KINDS = ("raw", "central", "abs", "central-abs")

#: Seed the oracles use when the caller does not supply one (the CLI also
#: honors TMOMENT_SEED). Kept here, beside KINDS, so the CLI reads both
#: without loading the SciPy-based oracle module.
DEFAULT_SEED = 12345


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

    Every moment kind is built from this scale. For even k = 2q the gamma
    ratio telescopes into prod_{i=1}^{q} (2i-1) (nu / (nu - 2i)) / sigma, which
    does not cancel. The running product is kept as a mantissa and a binary
    exponent, so it cannot under- or overflow on the way to a result inside
    the double range. The factors grow with i, so the loop stops once the
    outcome is certain: an overflow once the product is past the double range
    and rising, and zero once it is below it and no factor exceeds 1. Other
    orders take the log-gamma ratio.
    """
    if k % 2 == 0:
        q = int(k) // 2
        mant, exp = 1.0, 0
        for i in range(1, q + 1):
            f = (2 * i - 1) * (nu / (nu - 2 * i)) / sigma
            mant *= f
            if not 1e-150 < mant < 1e150:
                mant, e = math.frexp(mant)
                exp += e
                if f >= 1.0 and (exp > 1024 or mant == math.inf):
                    raise OverflowError(f"E|T - mu|^{2 * q} is beyond the double range")
                if exp < -1076 and (2 * q - 1) * (nu / (nu - 2 * q)) / sigma <= 1.0:
                    return 0.0
        return math.ldexp(mant, exp)
    return ((nu / sigma) ** (k / 2.0) * math.gamma((k + 1.0) / 2.0) / _SQRT_PI
            * gamma_ratio((nu - k) / 2.0, nu / 2.0))


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

    Even orders coincide with :func:`abs_moment`; odd orders carry a factor
    of mu and use the companion series 2F1((1-k)/2, nu/2 - (k-1)/2; 3/2; z).
    """
    k = _check_order(k)
    gate = _order_gate(k, p.nu, "raw")
    if gate is not None:
        return gate
    if k % 2 == 0:
        return _located_abs(k, p, "raw")
    z = -p.mu * p.mu * p.sigma / p.nu
    h = hyp2f1((1.0 - k) / 2.0, p.nu / 2.0 - (k - 1.0) / 2.0, 1.5, z)
    value = (2.0 * p.mu * (p.nu / p.sigma) ** ((k - 1.0) / 2.0)
             * math.gamma(k / 2.0 + 1.0) / _SQRT_PI
             * gamma_ratio(p.nu / 2.0 - (k - 1.0) / 2.0, p.nu / 2.0) * h.value)
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
