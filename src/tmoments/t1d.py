"""Closed-form moments of the univariate generalized Student's t distribution.

Parameterization: St(t | mu, sigma, nu) has density proportional to
(1 + (sigma/nu) (t - mu)^2)^(-(nu+1)/2), so sigma is precision-like (larger
sigma means tighter): given the gamma mixing variable lambda, the conditional
distribution is N(mu, 1/(sigma lambda)), and the variance for nu > 2 is
nu / (sigma (nu - 2)). The conventional scale parameter s corresponds to
sigma = 1 / s^2.

Moments of order k exist iff k < nu; order 0 is always 1. Results are returned
as :class:`MomentResult` so undefined orders are reported rather than raised.

The 1-D truncated moment behind ``truncated.trunc_t_moment`` lives here too
(:func:`_trunc_t_moment`): an incomplete-beta mass and the t-level
recurrence. The module needs no numpy: only :func:`t_pdf` and the
Gauss-Legendre panels that back up the recurrence import it, when they run,
so the ``one-d`` and 1-D ``truncated`` CLI requests do not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

from .errors import DomainError, NonConvergenceError
from .normal_moments import _SQRT_2_OVER_PI, _check_order, _gamma_moment, _log_normal_scale
from .specfun import (MAX_SERIES_TERMS, _gamma_shift_ratio, _log1p_square, _product, _t_halves,
                      hyp2f1)

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

_EPS = 2.0 ** -53

#: A 1-D truncated recurrence value whose rounding bound exceeds this share of
#: the value is replaced by Gauss-Legendre panels.
_RECURRENCE_RTOL = 1e-12


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
    import numpy as np

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
    log-gamma value of the normal scale and the accurate mixing moment of
    ``_gamma_moment``, which stays near 1 however large nu is.
    """
    if k % 2 == 0:
        return _product(int(k) // 2, 1, 2, nu, nu, -2, sigma)
    if k % 2 == 1:
        first = _SQRT_2_OVER_PI / math.sqrt(sigma) * _gamma_moment(nu / 2.0, nu / 2.0, -0.5)
        return _product(int(k) // 2, 2, 2, nu, nu - 1.0, -2, sigma, first)
    return (math.exp(_log_normal_scale(k, -math.log(sigma)))
            * _gamma_moment(nu / 2.0, nu / 2.0, -k / 2.0))


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


def _trunc_t_moment(k: int, a: float, b: float, mu: float, sigma: float,
                    nu: float) -> MomentResult:
    """F_k(a, b), the integral of t^k over a < t < b against St(t | mu, sigma, nu).

    The 1-D case of ``truncated.trunc_t_moment`` (formula
    ``trunc-recurrence``, mode ``corrected``); the callers check a < b and
    the parameters. Orders k >= nu exist only when both bounds are finite
    and are undefined otherwise.
    """
    if k >= nu and not (math.isfinite(a) and math.isfinite(b)):
        return _undefined("trunc-recurrence", "corrected")
    value, diag = _t_orders_1d(k, a, b, mu, sigma, nu)
    return MomentResult(value, formula="trunc-recurrence", mode="corrected", diagnostics=diag)


def _t_orders_1d(kmax: int, a: float, b: float, mu: float, sigma: float,
                 nu: float) -> tuple[float, dict]:
    """F_kmax = integral of t^kmax over [a, b] against the 1-D t density.

    F_0 is the incomplete-beta mass. With q(t) = nu/sigma + (t - mu)^2 and g
    the density, integrating d/dt [t^(k-1) q g] over [a, b] gives the t-level
    recurrence of Galarza, Lin, Wang & Lachos (2021, Metrika 84)

        (nu - k) F_k = mu (nu + 1 - 2k) F_(k-1) + (k - 1)(mu^2 + nu/sigma) F_(k-2)
                       - [t^(k-1) q(t) g(t)]_a^b,

    with F_(-1) = 0 and no boundary term at an infinite bound; q g is
    sqrt(nu/sigma) norm (1 + z^2/nu)^(-(nu-1)/2) at z = (t - mu) sqrt(sigma).
    A running first-order bound on the rounding error goes along. The
    recurrence loses digits where the moments fall behind its growing
    solutions, on boxes whose reach in |t| is short of |mu| plus a few scale
    units; when the bound exceeds 1e-12 of the value, orders >= 1 come from
    Gauss-Legendre panels instead. Orders kmax >= nu, which exist on a
    bounded box, come from the panels alone.
    """
    root = math.sqrt(sigma)
    norm = _gamma_shift_ratio(0.5 * nu, 0.5) / math.sqrt(math.pi)
    if kmax >= nu:
        # only a bounded box gets here; the recurrence would divide by nu - k
        value, panels = _t_panels_1d(kmax, (a - mu) * root, (b - mu) * root, mu, 1.0 / root,
                                     nu, norm)
        return value, {"quadrature_panels": panels}

    def split(t: float):
        # z, P(T <= z), P(T > z), the absolute error of both, fraction terms
        z = (t - mu) * root if math.isfinite(t) else t
        centre, tail, err, terms = _t_halves(abs(z), nu, norm)
        return (z, tail, 0.5 + centre, err, terms) if z < 0.0 else (z, 0.5 + centre, tail, err, terms)

    za, lo_a, up_a, err_a, terms_a = split(a)
    zb, lo_b, up_b, err_b, terms_b = split(b)
    if zb <= 0.0:
        f0, size = lo_b - lo_a, lo_b + lo_a
    elif za >= 0.0:
        f0, size = up_a - up_b, up_a + up_b
    else:
        f0, size = 1.0 - lo_a - up_b, 1.0 + lo_a + up_b
    mass_error = err_a + err_b + 2.0 * _EPS * size
    diag = {"beta_terms": terms_a + terms_b, "beta_error": mass_error}

    scale = math.sqrt(nu / sigma) * norm

    def boundary(t: float, z: float) -> tuple[float, float, float]:
        # expo with q g = scale exp(-expo), log|t|, and the relative error of
        # exp(-expo) in units of eps; q g is zero at an infinite bound
        if not math.isfinite(t):
            return math.inf, 0.0, 0.0
        expo = 0.5 * (nu - 1.0) * _log1p_square(abs(z), nu)
        cond = abs(nu - 1.0) * (abs(t) + abs(mu)) * root / (abs(z) + nu / abs(z)) if z else 0.0
        return expo, math.log(abs(t)) if t else -math.inf, abs(expo) + cond + 4.0

    def term(k: int, t: float, expo: float, log_t: float, kappa: float) -> tuple[float, float]:
        # t^(k-1) q g and its rounding error, from one exponential of the summed
        # logarithms, so that a far bound does not underflow before the power
        if k == 1:
            value = scale * math.exp(-expo)
            return value, (kappa + 1.0) * value
        if not t:
            return 0.0, 0.0
        value = scale * math.exp((k - 1) * log_t - expo)
        return (-value if t < 0.0 and k % 2 == 0 else value,
                (kappa + k + (k - 1) * abs(log_t)) * value)

    at_a, at_b = boundary(a, za), boundary(b, zb)
    spread = mu * mu + nu / sigma
    prev2, prev, err2, err = 0.0, f0, 0.0, mass_error
    for k in range(1, kmax + 1):
        g_a, e_a = term(k, a, *at_a)
        g_b, e_b = term(k, b, *at_b)
        c1 = mu * (nu + 1.0 - 2.0 * k)
        t1, t2 = c1 * prev, (k - 1) * spread * prev2
        val = (t1 + t2 + g_a - g_b) / (nu - k)
        err2, err = err, ((abs(c1) * err + (k - 1) * spread * err2
                           + _EPS * (3.0 * (abs(t1) + abs(t2)) + e_a + e_b)) / (nu - k)
                          + _EPS * abs(val))
        prev2, prev = prev, val
    diag["recurrence_error"] = err
    if err <= _RECURRENCE_RTOL * abs(prev):
        return prev, diag
    value, panels = _t_panels_1d(kmax, za, zb, mu, 1.0 / root, nu, norm)
    diag["quadrature_panels"] = panels
    return value, diag


@cache
def _legendre_nodes():
    import numpy as np

    return np.polynomial.legendre.leggauss(16)


def _log_abs_power(t: float, k: int) -> float:
    # log |t|^k, with 0^0 = 1
    return k * math.log(abs(t)) if t else (-math.inf if k else 0.0)


def _t_panels_1d(k: int, za: float, zb: float, mu: float, scale: float, nu: float,
                 norm: float) -> tuple[float, int]:
    """Integral of (mu + scale z)^k f(z) over [za, zb] for the standard t density f.

    16-point Gauss-Legendre panels are laid out from the point of the box
    nearest the mode, each about one e-fold of f wide, (nu + z^2) /
    ((nu + 1)|z| + sqrt((nu + 1)(nu + z^2))): unit width near the mode,
    proportional to 1/|z| in a normal-like tail and to |z| in a power-law
    tail. A side stops at its bound, or once the rest of the side, bounded by
    the envelope (|mu| + scale |z|)^k f(z) over its decay length, is below
    1e-18 of the running integral of |t|^k f. Powers and densities are
    combined as logarithms and z^2 is never formed where it overflows, so a
    far panel of a bounded box with k >= nu, where f underflows long before
    |t|^k f does, still counts.
    """
    import numpy as np

    root = math.sqrt(nu)
    start = min(max(0.0, za), zb)
    edges = []
    for end, sign in ((za, -1.0), (zb, 1.0)):
        z, acc, side = start, 0.0, []
        while z != end:
            if len(side) == MAX_SERIES_TERMS:
                raise NonConvergenceError(
                    f"trunc_t_moment: the quadrature panels did not settle within "
                    f"{MAX_SERIES_TERMS} panels", value=math.nan, est_error=math.inf,
                    iterations=MAX_SERIES_TERMS)
            s = math.hypot(root, z)  # sqrt(nu + z^2)
            width = s / ((nu + 1.0) * abs(z) / s + math.sqrt(nu + 1.0))
            z = end if (z + sign * width - end) * sign >= 0.0 else z + sign * width
            side.append(z)
            az, s = abs(z), math.hypot(root, z)
            log_density = -0.5 * (nu + 1.0) * _log1p_square(az, nu)
            acc += math.exp(_log_abs_power(mu + scale * z, k) + log_density) * width
            reach = abs(mu) / scale + az
            decay = (nu + 1.0) * az / s / s - k / reach
            if (decay > 0.0 and math.exp(_log_abs_power(scale * reach, k) + log_density) / decay
                    <= 1e-18 * acc):
                break
        edges.append(side)
    bounds = np.array(edges[0][::-1] + [start] + edges[1])
    nodes, weights = _legendre_nodes()
    half = 0.5 * np.diff(bounds)
    z = (0.5 * (bounds[1:] + bounds[:-1]))[:, None] + half[:, None] * nodes
    t = mu + scale * z
    with np.errstate(over="ignore", divide="ignore"):
        q = (z / root) ** 2
        log_q = np.where(q < math.inf, np.log1p(q), 2.0 * np.log(np.abs(z) / root))
        log_power = k * np.log(np.abs(t)) if k else 0.0
    f = np.exp(log_power - 0.5 * (nu + 1.0) * log_q) * (np.sign(t) if k % 2 else 1.0)
    return (norm / root) * math.fsum((f * (half[:, None] * weights)).ravel()), half.size
