"""Independent validation oracles: seeded samplers, quadrature, Monte Carlo.

Everything here evaluates moments from their defining integrals or from
samples, never from the closed forms, so that the two routes stay independent.
All randomness flows from an explicit seed argument; there is no global RNG
state. One-dimensional integrals run through :func:`quad` on the package's
adaptive Gauss-Kronrod rule (``truncated._gauss_kronrod``), with each infinite
side of the range mapped onto a finite interval. The module needs numpy and
no SciPy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EstimationError, NonConvergenceError
from .normal_moments import GammaParams
from .specfun import gamma_ratio
from .t1d import DEFAULT_SEED, KINDS, QuadResult, TParams1D
from .tnd import MultiIndex, TParamsND, t_pdf_nd
from .truncated import _gauss_kronrod

#: Cuts a side of the 1-D moment integral at mu +- s 16^j for j below this,
#: out to about 1e18 density scales s.
_RUNGS = 16


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with standard error and provenance."""

    value: float
    std_error: float
    n_samples: int
    seed: int


def normal_pdf(x, mean: float, variance: float):
    x = np.asarray(x, dtype=float)
    out = np.exp(-((x - mean) ** 2) / (2.0 * variance)) / np.sqrt(2.0 * math.pi * variance)
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
    normal part solves L^T w = z against the Cholesky factor L of Sigma, so
    Cov(X | eta) = Sigma^(-1) / eta.
    """
    rng = np.random.default_rng(seed)
    eta = rng.gamma(shape=p.nu / 2.0, scale=2.0 / p.nu, size=n)
    z = rng.standard_normal((n, p.dim))
    chol = np.linalg.cholesky(p.sigma_mat)
    w = np.linalg.solve(chol.T, z.T)
    return p.mu + (w / np.sqrt(eta)).T


def quad(f, a: float, b: float, tol: float = 1e-10, points=(), scale: float = 1.0,
         power: int = 1):
    """Integral of a vectorized ``f`` over (a, b): (value, abserr, {"neval": n}).

    The range is cut at its finite ends and at the ``points`` inside it, or
    at 0 if that leaves no cut. The pieces between cuts are integrated in x.
    An infinite side beyond the outermost cut x0 is mapped onto v in (0, 1)
    by x = x0 +- scale (v/(1-v))^power: where f decays like |x|^(-1-q), the
    mapped integrand vanishes like (1-v)^(power q - 1), so power q >= 2
    keeps it smooth enough for the rule. Piece i runs over [i, i+1] of one
    variable and all pieces share one call of :func:`_gauss_kronrod`, so the
    absolute ``tol`` and the relative 1e-12 bound the whole integral.
    ``NonConvergenceError`` past the rule's panel cap, when the target is
    missed, or when the integrand is not finite at a node (a tail mapped
    past the double range, for one).
    """
    cuts = sorted({float(x) for x in (a, b, *points) if math.isfinite(x) and a <= x <= b})
    cuts = cuts or [0.0]
    # (x0, width, side): side -1 / +1 is the tail left / right of x0, side 0
    # the piece [x0, x0 + width]
    pieces = [(lo, hi - lo, 0) for lo, hi in zip(cuts, cuts[1:])]
    if a == -math.inf:
        pieces.insert(0, (cuts[0], 0.0, -1))
    if b == math.inf:
        pieces.append((cuts[-1], 0.0, 1))
    anchor, width, side = (np.array(col, dtype=float) for col in zip(*pieces))

    def mapped(u: np.ndarray) -> np.ndarray:
        # The rule hands over one row of nodes per panel, and no panel
        # straddles two pieces. v runs from a tail's cut (0) to infinity (1),
        # so a left tail has its cut at the right end of [i, i+1]; 1 - v is
        # formed from the other end without rounding.
        i = np.floor(u.mean(axis=-1, keepdims=True)).astype(int)
        sd = side[i]
        v, rest = np.where(sd < 0, (i + 1) - u, u - i), np.where(sd < 0, u - i, (i + 1) - u)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            y = v / rest
            x = np.where(sd == 0, anchor[i] + width[i] * (u - i),
                         anchor[i] + sd * scale * y ** power)
            jac = np.where(sd == 0, width[i], scale * power * y ** (power - 1) / (rest * rest))
            out = np.asarray(f(x), dtype=float) * jac
        if not np.isfinite(out).all():
            bad = x[~np.isfinite(out)].flat[0]
            raise NonConvergenceError(f"quad: integrand not finite at x = {bad!r}",
                                      iterations=u.size)
        return out

    res = _gauss_kronrod(mapped, tuple(range(len(pieces) + 1)), tol)
    return float(res.value), float(res.est_abs_error), {"neval": res.evaluations}


def _run_quad(f, a: float, b: float, tol: float, points=None, scale: float = 1.0,
              power: int = 1) -> QuadResult:
    value, abserr, info = quad(f, a, b, tol, points=points or (), scale=scale, power=power)
    return QuadResult(value, abserr, info["neval"])


def quad_moment_1d(kind: str, k, p: TParams1D, bounds=(-math.inf, math.inf),
                   tol: float = 1e-10) -> QuadResult:
    """Adaptive quadrature of the defining moment integral over ``bounds``.

    ``kind`` selects the integrand weight: t^k, (t-mu)^k, |t|^k or |t-mu|^k
    against the t-density, integrated in z = t - mu by :func:`quad`. The
    range is cut at mu, where an absolute weight has its kink, and at
    mu +- s 16^j, s = 1/sqrt(sigma) the density's scale, out to the outermost
    finite cut on each side: a piece is at most 15 times as wide as its
    distance from mu, so no piece hides the peak at mu between its nodes.
    An infinite side is mapped on the scale s with the least power m with
    m (nu - k) >= 2, which keeps the mapped tail, like |t|^(k-nu-1), smooth.
    A tail with k >= nu diverges and exhausts the rule.
    """
    if kind not in KINDS:
        raise DomainError(f"quad_moment_1d: unknown kind {kind!r}, expected one of {KINDS}")
    if not (k >= 0):
        raise DomainError(f"quad_moment_1d: order must be nonnegative, got {k!r}")
    signed = kind in ("raw", "central")
    if signed and k != int(k):
        raise DomainError(f"quad_moment_1d: {kind} orders must be integers, got {k!r}")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not lo < hi:
        raise DomainError(f"quad_moment_1d: empty integration range {bounds!r}")
    # In z a large mu costs the density no digits. The weight's argument is
    # z + offset. Weight times density is one exponential of a sum of logs,
    # with log(1 + sigma z^2 / nu) as logaddexp(0, .), so a far tail node
    # neither overflows the weight nor underflows the density: where the
    # density underflows, beyond about 1e75 at nu = 3.1, a tail with
    # nu - k = 0.1 still carries 1e-8 of the moment.
    offset = 0.0 if kind in ("central", "central-abs") else p.mu
    odd = signed and k % 2 == 1
    log_norm = (math.log(gamma_ratio(0.5 * (p.nu + 1.0), 0.5 * p.nu))
                + 0.5 * math.log(p.sigma / (p.nu * math.pi)))
    root = math.sqrt(p.sigma / p.nu)

    def integrand(z: np.ndarray) -> np.ndarray:
        d = z + offset
        with np.errstate(divide="ignore"):
            log_q = np.logaddexp(0.0, 2.0 * np.log(root * np.abs(z)))
            log_f = log_norm - 0.5 * (p.nu + 1.0) * log_q
            if k:
                log_f = log_f + k * np.log(np.abs(d))
        f = np.exp(log_f)
        return np.copysign(f, d) if odd else f

    a, b = lo - p.mu, hi - p.mu
    kink = [-p.mu] if kind == "abs" else []
    cuts = [0.0, *kink, *(x for x in (a, b) if math.isfinite(x))]
    scale = 1.0 / math.sqrt(p.sigma)
    rungs = [side * scale * 16.0 ** j for side in (-1.0, 1.0) for j in range(_RUNGS)]
    points = cuts + [r for r in rungs if min(cuts) < r < max(cuts)]
    power = math.ceil(2.0 / (p.nu - k)) if p.nu > k else 1
    return _run_quad(integrand, a, b, tol, points=points, scale=scale, power=power)


def mixture_pdf_1d(t: float, p: TParams1D, tol: float = 1e-10) -> QuadResult:
    """Density at t reconstructed from the scale mixture.

    Integrates N(t | mu, 1/(sigma lambda)) Gamma(lambda | nu/2, nu/2) over
    lambda in (0, inf); must reproduce :func:`tmoments.t1d.t_pdf`.
    """
    mixing = GammaParams(p.nu / 2.0, p.nu / 2.0)

    def integrand(lam: np.ndarray) -> np.ndarray:
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
