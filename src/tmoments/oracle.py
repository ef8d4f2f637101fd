"""Independent validation oracles: seeded samplers, quadrature, Monte Carlo.

Everything here evaluates moments from their defining integrals or from
samples, never from the closed forms, so that the two routes stay independent.
All randomness flows from an explicit seed argument; there is no global RNG
state. Adaptive 1-D quadrature is QUADPACK-based; infinite tails of the
t-density integrals are removed by the tangent substitution
t = mu + sqrt(nu/sigma) tan(theta), which maps the real line onto a finite
interval.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_triangular

from .errors import DomainError, EstimationError, NonConvergenceError
from .normal_moments import GammaParams
from .t1d import DEFAULT_SEED, KINDS, QuadResult, TParams1D, t_pdf
from .tnd import MultiIndex, TParamsND, t_pdf_nd

_REL_FLOOR = 1e-11


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with standard error and provenance."""

    value: float
    std_error: float
    n_samples: int
    seed: int


def normal_pdf(x, mean: float, variance: float):
    x = np.asarray(x, dtype=float)
    out = np.exp(-((x - mean) ** 2) / (2.0 * variance)) / math.sqrt(2.0 * math.pi * variance)
    return float(out) if out.ndim == 0 else out


def gamma_pdf(x, p: GammaParams):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    log_norm = p.alpha * math.log(p.beta) - math.lgamma(p.alpha)
    out[pos] = np.exp(log_norm + (p.alpha - 1.0) * np.log(x[pos]) - p.beta * x[pos])
    return float(out) if out.ndim == 0 else out


def sample_t_1d(p: TParams1D, n: int, seed: int) -> np.ndarray:
    """Draw n variates through the gamma scale-mixture construction.

    lambda ~ Gamma(nu/2, rate nu/2), then T | lambda ~ N(mu, 1/(sigma lambda)).
    Bit-reproducible for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    lam = rng.gamma(shape=p.nu / 2.0, scale=2.0 / p.nu, size=n)
    z = rng.standard_normal(n)
    return p.mu + z / np.sqrt(p.sigma * lam)


def sample_t_nd(p: TParamsND, n: int, seed: int) -> np.ndarray:
    """Draw n rows from the n-dimensional distribution via the scale mixture.

    eta ~ Gamma(nu/2, rate nu/2) and X | eta ~ N(mu, (eta Sigma)^(-1)); the
    normal part is produced by a triangular solve against the Cholesky factor
    of Sigma, so Cov(X | eta) = Sigma^(-1) / eta.
    """
    rng = np.random.default_rng(seed)
    eta = rng.gamma(shape=p.nu / 2.0, scale=2.0 / p.nu, size=n)
    z = rng.standard_normal((n, p.dim))
    chol = np.linalg.cholesky(p.sigma_mat)
    w = solve_triangular(chol, z.T, lower=True, trans="T")
    return p.mu + (w / np.sqrt(eta)).T


def _run_quad(f, a: float, b: float, tol: float, points=None) -> QuadResult:
    res = quad(f, a, b, epsabs=tol, epsrel=1e-12, limit=300, points=points, full_output=1)
    value, abserr, info = res[0], res[1], res[2]
    neval = int(info.get("neval", 0))
    if len(res) > 3 and abserr > max(tol, _REL_FLOOR * abs(value)):
        raise NonConvergenceError(
            f"quadrature did not reach tolerance {tol:g} (achieved {abserr:.3e})",
            value=value, est_error=abserr, iterations=neval)
    return QuadResult(value, abserr, neval)


def quad_moment_1d(kind: str, k, p: TParams1D, bounds=(-math.inf, math.inf),
                   tol: float = 1e-10) -> QuadResult:
    """Adaptive quadrature of the defining moment integral over ``bounds``.

    ``kind`` selects the integrand weight: t^k, (t-mu)^k, |t|^k or |t-mu|^k
    against the t-density. The integral is computed in the tangent-substituted
    variable, so infinite bounds become finite endpoints.
    """
    if kind not in KINDS:
        raise DomainError(f"quad_moment_1d: unknown kind {kind!r}, expected one of {KINDS}")
    if not (k >= 0):
        raise DomainError(f"quad_moment_1d: order must be nonnegative, got {k!r}")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not lo < hi:
        raise DomainError(f"quad_moment_1d: empty integration range {bounds!r}")
    c = math.sqrt(p.nu / p.sigma)

    if kind == "raw":
        weight = lambda t: t ** k
    elif kind == "central":
        weight = lambda t: (t - p.mu) ** k
    elif kind == "abs":
        weight = lambda t: abs(t) ** k
    else:
        weight = lambda t: abs(t - p.mu) ** k

    def integrand(theta: float) -> float:
        cos = math.cos(theta)
        t = p.mu + c * math.tan(theta)
        return weight(t) * t_pdf(t, p) * c / (cos * cos)

    theta_lo = -0.5 * math.pi if lo == -math.inf else math.atan((lo - p.mu) / c)
    theta_hi = 0.5 * math.pi if hi == math.inf else math.atan((hi - p.mu) / c)
    # |.|^k integrands have a kink where the argument crosses zero; hand the
    # breakpoint to the subdivision so it does not slow convergence.
    points = None
    if kind == "abs":
        kink = math.atan(-p.mu / c)
        if theta_lo < kink < theta_hi:
            points = [kink]
    elif kind == "central-abs" and theta_lo < 0.0 < theta_hi:
        points = [0.0]
    return _run_quad(integrand, theta_lo, theta_hi, tol, points=points)


def mixture_pdf_1d(t: float, p: TParams1D, tol: float = 1e-10) -> QuadResult:
    """Density at t reconstructed from the scale mixture.

    Integrates N(t | mu, 1/(sigma lambda)) Gamma(lambda | nu/2, nu/2) over
    lambda in (0, inf); must reproduce :func:`tmoments.t1d.t_pdf`.
    """
    mixing = GammaParams(p.nu / 2.0, p.nu / 2.0)

    def integrand(lam: float) -> float:
        return normal_pdf(t, p.mu, 1.0 / (p.sigma * lam)) * gamma_pdf(lam, mixing)

    return _run_quad(integrand, 0.0, math.inf, tol)


def mc_moment_nd(k, p: TParamsND, rect=None, n_samples: int = 1_000_000,
                 seed: int = DEFAULT_SEED) -> McEstimate:
    """Monte Carlo estimate of E(prod T_i^(k_i) 1_rect) with standard error.

    ``rect`` is None for the full space, or any object with elementwise
    ``lower``/``upper`` attributes (or a (lower, upper) pair); the estimate is
    unnormalized, matching the truncated-moment convention. Raises
    EstimationError when no sample lands in the rectangle.
    """
    k = MultiIndex.of(k)
    if k.dim != p.dim:
        raise DomainError(f"order has dimension {k.dim}, parameters have {p.dim}")
    if 2 * k.total >= p.nu:
        warnings.warn(
            f"mc_moment_nd: total order {k.total} has infinite sampling variance for "
            f"nu = {p.nu}; the standard error is unreliable", stacklevel=2)
    x = sample_t_nd(p, n_samples, seed)
    vals = np.ones(n_samples)
    for i, ki in enumerate(k.k):
        if ki:
            vals *= x[:, i] ** ki
    if rect is not None:
        lower, upper = (rect.lower, rect.upper) if hasattr(rect, "lower") else rect
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        inside = np.all((x >= lower) & (x <= upper), axis=1)
        if not inside.any():
            raise EstimationError(
                f"mc_moment_nd: none of the {n_samples} samples landed in the rectangle")
        vals = np.where(inside, vals, 0.0)
    value = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_samples))
    return McEstimate(value, se, n_samples, seed)


def tensor_quad(f, lower, upper, *, tol: float = 1e-8, order: int = 24,
                max_refine: int = 6) -> QuadResult:
    """Tensor-product Gauss-Legendre quadrature over a finite box.

    ``f`` maps an (N, n) array of points to N values. Panels are doubled per
    axis until two successive refinements differ by at most ``tol``; the
    difference is the reported error bound. An oracle only: the package's own
    rectangle probabilities do not use it.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or lower.ndim != 1:
        raise DomainError("tensor_quad: lower/upper must be equal-length vectors")
    if not np.all(np.isfinite(lower)) or not np.all(np.isfinite(upper)):
        raise DomainError("tensor_quad: bounds must be finite (clip tails first)")
    if not np.all(lower < upper):
        raise DomainError("tensor_quad: needs lower < upper elementwise")
    ndim = lower.size
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    prev = None
    evals = 0
    for level in range(max_refine + 1):
        panels = 2 ** level
        axes_x, axes_w = [], []
        for d in range(ndim):
            edges = np.linspace(lower[d], upper[d], panels + 1)
            half = 0.5 * (edges[1:] - edges[:-1])
            mid = 0.5 * (edges[1:] + edges[:-1])
            axes_x.append((mid[:, None] + half[:, None] * base_x).ravel())
            axes_w.append((half[:, None] * base_w).ravel())
        mesh = np.meshgrid(*axes_x, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        vals = np.asarray(f(pts), dtype=float).reshape([a.size for a in axes_x])
        evals += pts.shape[0]
        for w in reversed(axes_w):
            vals = np.tensordot(vals, w, axes=([-1], [0]))
        total = float(vals)
        if prev is not None and abs(total - prev) <= tol:
            return QuadResult(total, abs(total - prev), evals)
        prev = total
    raise NonConvergenceError(
        f"tensor_quad did not converge to {tol:g} within {max_refine} refinements",
        value=prev, est_error=math.inf, iterations=evals)


def quad_mass_nd(p: TParamsND, tol: float = 1e-7) -> QuadResult:
    """Total mass of t_pdf_nd by tensor quadrature, tangent-substituted per axis.

    A normalization check: the result must equal 1 within the tolerance.
    """
    cov_diag = np.diag(p.precision_inverse())
    scale = np.sqrt(p.nu * cov_diag)

    def integrand(theta: np.ndarray) -> np.ndarray:
        pts = p.mu + scale * np.tan(theta)
        jac = np.prod(scale / np.cos(theta) ** 2, axis=1)
        return t_pdf_nd(pts, p) * jac

    half = 0.5 * math.pi
    return tensor_quad(integrand, [-half] * p.dim, [half] * p.dim, tol=tol)
