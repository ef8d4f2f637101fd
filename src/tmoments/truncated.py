"""Truncated moments over axis-aligned rectangles.

F_k(a, b) = integral over the rectangle of t^k times the density, left
unnormalized (divide by the order-0 value to condition on the rectangle).

In one dimension ``trunc_t_moment`` is closed-form, and the route lives in
``t1d`` (``t1d._trunc_t_moment``): the mass is a regularized incomplete beta
and higher orders follow from the 1-D t-level recurrence of Galarza, Lin,
Wang & Lachos (2021, Metrika 84), with Gauss-Legendre panels where the
recurrence's rounding bound is too large and for orders k >= nu on a
bounded box. It needs no SciPy, and numpy only for those panels.

One recursion engine serves every other route. Differentiating a normal
density moves one coordinate's exponent down and spawns (n-1)-dimensional
moments on the two faces of that coordinate, with conditional mean and
covariance given by the Schur complement (Kan & Robotti 2017). The engine
takes a step coefficient and an order-zero mass function, and its faces
inherit both:

* ``trunc_normal_moment``: coefficient 1, mass the normal rectangle
  probability.
* ``trunc_t_moment`` (``corrected`` mode, n >= 2): the normal engine over
  the gamma mixing variable t at covariance scale 1/t, averaged by an
  adaptive Gauss-Kronrod rule over numpy arrays (``_gauss_kronrod``). The
  faces are built once per call; each refinement level runs the memoised
  recursion once over all its nodes, with the masses evaluated on arrays.
  This is exact up to the rule's error. In 1-D the same mixture
  (``_t_mixture``) is the tests' reference for the closed route.
* ``trunc_t_moment_literal`` (``literal`` mode): the engine run directly at
  the t level with the averaged coefficient nu/(nu-2) and a t-free boundary
  density; its mass is the gamma-mixture probability of the box or face. It
  is exact only where no averaging is involved and is kept for comparison.

The normal rectangle probability behind every mass is exact in 1-D (erf)
and 2-D (Owen's T function, Owen 1956); in 3-D it is one integral of the
exact 2-D probability of the conditional pair over the first axis (Genz
2004), by the same Gauss-Kronrod rule, over all mixing scales at once. Boxes
with a finite bound are therefore limited to n <= 3. The only SciPy module
used is ``scipy.special`` (Owen's T, the normal CDF), imported on first use
by 2-D and 3-D boxes. The 1-D masses use ``math.erfc``, so the literal mode
and the mixture in 1-D load no SciPy, and Monte Carlo draws take numpy
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .errors import DomainError, NonConvergenceError
from .specfun import _stirling
from .t1d import DEFAULT_SEED, MomentResult, QuadResult, _trunc_t_moment, _undefined
from .tnd import MultiIndex, TParamsND, _check_spd, _spd_inverse

_SQRT2 = math.sqrt(2.0)
_SQRT_HALF = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_EPS = 2.0 ** -53

#: Relative error the Gauss-Kronrod rule (mixing, 3-D conditioning and the
#: oracle's 1-D integrals) accepts whatever its absolute tolerance, and the
#: number of panels it may evaluate before giving up.
_MIXTURE_RTOL = 1e-12
_MAX_PANELS = 500


def _mirrored(half: tuple[float, ...], sign: float) -> np.ndarray:
    # a symmetric rule on [-1, 1] from its values at the nodes >= 0, largest first
    return np.array([sign * v for v in half[:-1]] + list(half[::-1]))


# The 15-point Kronrod rule on [-1, 1] and the 7-point Gauss rule on its odd
# nodes (QUADPACK's dqk15 constants).
_KRONROD_X = _mirrored((0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                        0.207784955007898467600689403773245, 0.0), -1.0)
_KRONROD_W = _mirrored((0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                        0.204432940075298892414161999234649, 0.209482141084727828012999174891714),
                       1.0)
_GAUSS_W = _mirrored((0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
                      0.381830050505118944950369775488975, 0.417959183673469387755102040816327),
                     1.0)


@dataclass(frozen=True, eq=False)
class Rectangle:
    """Axis-aligned rectangle with elementwise lower < upper; infinities allowed."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.array(self.lower, dtype=float)
        upper = np.array(self.upper, dtype=float)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise DomainError("Rectangle: lower and upper must be equal-length vectors")
        if not np.all(lower < upper):
            raise DomainError("Rectangle: needs lower < upper elementwise")
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def full_space(cls, n: int) -> "Rectangle":
        return cls(np.full(n, -math.inf), np.full(n, math.inf))

    @property
    def dim(self) -> int:
        return self.lower.size

    def dropped(self, j: int) -> "Rectangle":
        keep = [i for i in range(self.dim) if i != j]
        return Rectangle(self.lower[keep], self.upper[keep])


def _std_normal_cdf(x):
    """Phi(x) through math.erfc, elementwise over an array (no SciPy)."""
    if isinstance(x, np.ndarray):
        return 0.5 * np.fromiter(map(math.erfc, (x * -_SQRT_HALF).tolist()), float, x.size)
    return 0.5 * math.erfc(-x / _SQRT2)


@cache
def _special():
    # Imported on first use, not at the top, so 1-D requests load no SciPy.
    from scipy.special import ndtr, owens_t
    return ndtr, owens_t


def _bvn_box(lo1, hi1, lo2, hi2, rho: float, root=1.0):
    """P(lo root < Z < hi root) for a standard normal pair at correlation rho.

    ``root`` is a float, or an array for one box per element. With an array
    ``root`` a finite bound may be an array too, broadcasting with it (one
    bound per element, as in the 3-D conditioning integral); an infinite
    bound is always a float. Every branch (reflection, zero and infinite
    corners) depends on the signs of the unscaled bounds alone, so float
    bounds take it once for all elements and array bounds per element. An
    array bound that is zero in an element divides by zero in the argument
    of Owen's T (T(0, +-inf) = +-1/4 is still right), so the caller
    silences numpy's divide and invalid warnings.
    """
    ndtr, owens_t = _special()
    # A single box is faster in floats than in numpy scalars.
    one = isinstance(root, float)
    phi = _std_normal_cdf if one else ndtr
    r = math.sqrt((1.0 - rho) * (1.0 + rho))

    def reflect(lo, hi, rho):
        # An axis whose interval lies mostly above the mean is reflected, so the
        # corner values are lower-tail probabilities instead of values near 1.
        flip = lo + hi > 0.0
        if isinstance(lo, np.ndarray) and isinstance(hi, np.ndarray):
            return np.where(flip, -hi, lo), np.where(flip, -lo, hi), np.where(flip, -rho, rho)
        if isinstance(flip, np.ndarray):  # an infinite bound decides for every element
            flip = flip.all()
        return (-hi, -lo, -rho) if flip else (lo, hi, rho)

    lo1, hi1, rho = reflect(lo1, hi1, rho)
    lo2, hi2, rho = reflect(lo2, hi2, rho)

    def owen(h, num):
        # T(h root, num / (h r)); at h = 0 the argument is +-inf and T(0, +-inf) = +-1/4,
        # which owens_t returns for array bounds
        if not isinstance(h, np.ndarray) and h == 0.0:
            return math.copysign(0.25, num)
        val = owens_t(h * root, num / (h * r))
        return float(val) if one else val

    def cdf(h, k):
        # P(Z1 <= h root, Z2 <= k root) (Owen 1956)
        for x, y in ((h, k), (k, h)):
            if isinstance(x, float) and math.isinf(x):
                return phi(y * root) if x > 0.0 and not np.all(y == -math.inf) else 0.0
        val = (0.5 * (phi(h * root) + phi(k * root)) - owen(h, k - rho * h) - owen(k, h - rho * k)
               - 0.5 * ((h < 0.0) != (k < 0.0)))
        # the corner h = k = 0, where both arguments of T are 0/0
        zero = (h == 0.0) & (k == 0.0)
        return val if zero is False else np.where(zero, 0.25 + np.arcsin(rho) / (2 * math.pi), val)

    p = (cdf(hi1, hi2) - cdf(lo1, hi2)) - (cdf(hi1, lo2) - cdf(lo1, lo2))
    return max(float(p), 0.0) if one else np.maximum(p, 0.0)


def _tvn_box(a: np.ndarray, b: np.ndarray, mean: np.ndarray, cov: np.ndarray, tol: float):
    """Trivariate normal box probability of N(mean, scale * cov) as a function
    of ``scale``, a float or an array, by conditioning on axis 0 (Genz 2004).

    Given x_0 = m_0 + s_0 z the other two axes are a bivariate normal whose
    box probability is exact, and an integral over z against the standard
    normal density gives the rest. With z = root w, root = scale^(-1/2), the
    scales share the w-range: :func:`_gauss_kronrod` integrates all of them
    at once, each to absolute error ``tol``, and a level's nodes and scales
    are one :func:`_bvn_box` call. The range ends 40 standard deviations out
    for the widest scale, where the density underflows. The panels start at
    the point nearest the mean and double in width from one standard
    deviation of the narrowest scale, so that every scale's mass spans a
    panel or more and none falls between the nodes.
    """
    s0 = math.sqrt(cov[0, 0])
    w_lo, w_hi = (a[0] - mean[0]) / s0, (b[0] - mean[0]) / s0
    c = cov[0, 1:] / s0
    s = np.sqrt(np.diag(cov)[1:] - c * c)  # the conditional sds of axes 1 and 2
    rho = (cov[1, 2] - c[0] * c[1]) / (s[0] * s[1])
    # lower and upper bounds of axes 1 and 2 at w = 0, with their slopes in w
    bounds = [((x - mean[i]) / s[i - 1], c[i - 1] / s[i - 1]) for i in (1, 2) for x in (a[i], b[i])]

    def box(scale):
        col = np.asarray(scale ** -0.5)[..., None, None]  # the roots, one per leading index
        reach = 40.0 / col.min()
        lo, hi = np.clip((w_lo, w_hi), -reach, reach)
        steps = 2.0 ** np.arange(math.ceil(math.log2(2.0 * reach * col.max())) + 1) / col.max()
        centre = min(max(0.0, lo), hi)
        edges = np.unique(np.clip(np.r_[lo, hi, centre - steps, centre + steps], lo, hi))

        def conditional(w: np.ndarray) -> np.ndarray:
            with np.errstate(divide="ignore", invalid="ignore"):  # see _bvn_box
                pair = _bvn_box(*(v if math.isinf(v) else v - g * w for v, g in bounds), rho, col)
            return col / _SQRT_2PI * np.exp(-0.5 * (col * w) ** 2) * pair

        return _gauss_kronrod(conditional, tuple(edges), tol).value
    return box


def _rect_prob(a: np.ndarray, b: np.ndarray, mean: np.ndarray, cov: np.ndarray, tol: float):
    """Normal rectangle probability of N(mean, scale * cov) as a function of
    ``scale``, a float or an array for one probability per element.

    Exact in 1-D (erf) and 2-D (Owen's T); in 3-D one conditioning integral
    of the exact 2-D probability over all the elements at once, to absolute
    error ``tol`` each (:func:`_tvn_box`). The standardized bounds and the
    correlations do not depend on the scale and are formed once.
    """
    if np.all(np.isneginf(a)) and np.all(np.isposinf(b)):
        return lambda scale: 1.0
    if mean.size == 3:
        return _tvn_box(a, b, mean, cov, tol)
    sd = np.sqrt(np.diag(cov))
    lo, hi = ((a - mean) / sd).tolist(), ((b - mean) / sd).tolist()
    if mean.size == 1:
        def interval(scale):
            root = scale ** -0.5
            upper = 1.0 if math.isinf(hi[0]) else _std_normal_cdf(hi[0] * root)
            lower = 0.0 if math.isinf(lo[0]) else _std_normal_cdf(lo[0] * root)
            return np.maximum(upper - lower, 0.0)
        return interval
    rho = float(cov[0, 1] / (sd[0] * sd[1]))
    return lambda scale: _bvn_box(lo[0], hi[0], lo[1], hi[1], rho, scale ** -0.5)


class _Recursion:
    """Unnormalized truncated moments of one location and covariance.

    The covariance is ``scale * cov``, where ``scale`` is a float or, in the
    gamma mixture, the array of mixing scales 1/t: every value is then an
    array with one moment per scale. Lowering the first nonzero order i,
    F_k = mean_i F_(k-e_i) + coef * scale * sum_j cov_ij * corner_j, where
    corner_j holds the exponent-decrement term of coordinate j and its two
    face terms. ``mass(a, b, mean, cov)`` returns the order-zero value as a
    function of the scale; the faces are Schur complements and inherit
    ``mass``, ``coef`` and ``scale``. A face's mean and unscaled covariance
    do not depend on the scale, so :meth:`rescale` keeps the faces built so
    far, and their mass functions.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, mean: np.ndarray, cov: np.ndarray,
                 mass, coef: float = 1.0, scale=1.0):
        self.a = a
        self.b = b
        self.mean = mean
        self.cov = cov
        self.var = np.diag(cov)
        self.n = mean.size
        self.mass = mass
        self._mass_at = mass(a, b, mean, cov)
        self.coef = coef
        self._faces: dict[tuple[int, int], _Recursion] = {}
        self.rescale(scale)

    def rescale(self, scale) -> None:
        """Compute the moments at covariance ``scale * cov`` from now on."""
        self.scale = scale
        self._memo: dict[tuple[int, ...], object] = {}
        self._densities: dict[tuple[int, int], object] = {}
        for face in self._faces.values():
            face.rescale(scale)

    def moment(self, k: tuple[int, ...]):
        val = self._memo.get(k)
        if val is None:
            val = self._step(k) if any(k) else self._mass_at(self.scale)
            self._memo[k] = val
        return val

    def _step(self, k: tuple[int, ...]):
        i = next(pos for pos, ki in enumerate(k) if ki)
        base = k[:i] + (k[i] - 1,) + k[i + 1:]
        spread = 0.0
        for j in range(self.n):
            cij = self.cov[i, j]
            if cij != 0.0:
                spread = spread + cij * self._corner(base, j)
        return self.mean[i] * self.moment(base) + self.coef * self.scale * spread

    def _corner(self, base: tuple[int, ...], j: int):
        # The three-term boundary coefficient: the exponent-decrement term
        # vanishes for exponent 0, the face terms vanish at infinite bounds.
        out = 0.0
        if base[j]:
            out = base[j] * self.moment(base[:j] + (base[j] - 1,) + base[j + 1:])
        reduced = base[:j] + base[j + 1:]
        aj = self.a[j]
        if not math.isinf(aj):
            out = out + aj ** base[j] * self._density(j, 0) * self._face_moment(j, 0, reduced)
        bj = self.b[j]
        if not math.isinf(bj):
            out = out - bj ** base[j] * self._density(j, 1) * self._face_moment(j, 1, reduced)
        return out

    def _density(self, j: int, side: int):
        # N(mean_j, scale var_j) density at the lower (side 0) or upper bound of axis j
        val = self._densities.get((j, side))
        if val is None:
            x = self.b[j] if side else self.a[j]
            var = self.var[j] * self.scale
            val = np.exp(-0.5 * (x - self.mean[j]) ** 2 / var) / np.sqrt(2.0 * math.pi * var)
            self._densities[(j, side)] = val
        return val

    def _face_moment(self, j: int, side: int, reduced: tuple[int, ...]):
        # A face of a 1-D problem is zero-dimensional: the empty product is 1.
        if self.n == 1:
            return 1.0
        face = self._faces.get((j, side))
        if face is None:
            x = self.b[j] if side else self.a[j]
            keep = [i for i in range(self.n) if i != j]
            cj = self.cov[keep, j]
            mean_hat = self.mean[keep] + cj * (x - self.mean[j]) / self.var[j]
            cov_hat = self.cov[np.ix_(keep, keep)] - np.outer(cj, cj) / self.var[j]
            face = _Recursion(self.a[keep], self.b[keep], mean_hat, cov_hat, self.mass,
                              self.coef, self.scale)
            self._faces[(j, side)] = face
        return face.moment(reduced)


def _gauss_kronrod(f, edges: tuple[float, ...], tol: float) -> QuadResult:
    """Adaptive Gauss-Kronrod (G7/K15) integral of a vectorized ``f`` over the
    panels between ``edges``, to absolute error ``tol`` or relative 1e-12.

    Each level evaluates the 15 nodes of every open panel in one call of
    ``f`` on the (panels, 15) array of nodes. ``f`` returns their values in
    that shape, or with leading axes for one integral per leading index (a
    column, with ``value`` and ``est_abs_error`` arrays of that shape); the
    columns share the panels and each has its own error budget. A panel's
    error is |K15 - G7| plus 50 ulps of the integral of |f|. A column is done
    when its errors add up to its target; otherwise the level closes each
    panel whose error fits an equal share of what the column's closed panels
    left, or whose difference is down to rounding, and bisects a panel that
    some column leaves open. ``NonConvergenceError`` past ``_MAX_PANELS``
    panels, or when the closed panels' errors exceed the target.

    The mixing integral (:func:`_t_mixture`), the 3-D conditioning integral
    (:func:`_tvn_box`) and the oracle's 1-D quadrature (``oracle.quad``) all
    run on it.
    """
    lo, hi = np.array(edges[:-1], dtype=float), np.array(edges[1:], dtype=float)
    value = error = 0.0
    panels = 0
    while lo.size:
        panels += lo.size
        if panels > _MAX_PANELS:
            raise NonConvergenceError(
                f"integral did not reach tolerance {tol:g} within {_MAX_PANELS} panels",
                value=value, est_error=math.inf, iterations=15 * panels)
        half = 0.5 * (hi - lo)
        mid = lo + half
        fx = f(mid[:, None] + half[:, None] * _KRONROD_X)
        # one row per panel, one column per integral
        kronrod = (fx @ _KRONROD_W * half).T
        gap = np.abs(kronrod - (fx[..., 1::2] @ _GAUSS_W * half).T)
        rounding = 50.0 * _EPS * ((np.abs(fx) @ _KRONROD_W) * half).T
        err = gap + rounding
        budget = np.maximum(tol, _MIXTURE_RTOL * abs(value + kronrod.sum(0))) - error
        split = (err > budget / lo.size) & (gap > rounding) & (err.sum(0) > budget)
        split = split.any(1) if split.ndim > 1 else split
        value = value + kronrod[~split].sum(0)
        error = error + err[~split].sum(0)
        lo, hi = np.concatenate([lo[split], mid[split]]), np.concatenate([mid[split], hi[split]])
    if np.any(error > np.maximum(tol, _MIXTURE_RTOL * abs(value))):
        raise NonConvergenceError(
            f"integral did not reach tolerance {tol:g} (achieved {np.max(error):.3e})",
            value=value, est_error=error, iterations=15 * panels)
    return QuadResult(value, error, 15 * panels)


def _t_mixture(k: tuple[int, ...], a: np.ndarray, b: np.ndarray, mean: np.ndarray,
               cov: np.ndarray, nu: float, tol: float) -> QuadResult:
    """Gamma-mixture integral of the normal recursion over N(mean, cov / t).

    The mixing variable is t = x^m, x = u/(1-u), over u in (0, 1), starting
    from four panels split at u = 1/2 (t = 1, the mean of the mixing law).
    As t -> 0 the normal moment grows at most like t^(-k_open/2), k_open the
    order carried by the axes with an infinite bound, and it expands in
    powers of sqrt(t), so the integrand behaves like t^((nu - k_open)/2 - 1)
    times such a series. The even integer m = 2 ceil(1/(nu - k_open)), at
    least 2/(nu - k_open), keeps it bounded in u and makes sqrt(t) an integer
    power of x. On a bounded box the moment is t^(n/2) times a power series
    in t, so for nu >= 2 the integrand is bounded and free of sqrt(t) terms
    already, and m = 1 leaves the bulk of the mixing law on more of (0, 1).
    One recursion, its faces built once, runs per refinement level of
    :func:`_gauss_kronrod` over all new nodes at covariance scale 1/t. A
    mixing law too narrow for the rule's error estimate gives the normal
    moment at t = 1 instead, with no mixing node (``evaluations`` 0).
    """
    alpha = 0.5 * nu
    # log of alpha^alpha e^-alpha / Gamma(alpha), which lgamma would leave to
    # cancellation for large nu
    log_norm = (0.5 * math.log(alpha / (2.0 * math.pi)) - _stirling(alpha) if alpha >= 10.0
                else alpha * math.log(alpha) - alpha - math.lgamma(alpha))
    k_open = sum(ki for ki, lo, hi in zip(k, a, b) if math.isinf(lo) or math.isinf(hi))
    bounded = bool(np.isfinite(a).all() and np.isfinite(b).all())
    m = 1.0 if bounded and nu >= 2.0 else 2.0 * math.ceil(1.0 / (nu - k_open))
    problem = _Recursion(a, b, mean, cov, partial(_rect_prob, tol=max(tol * 1e-2, 1e-11)))

    def mixed(u: np.ndarray) -> np.ndarray:
        log_x = np.log(u) - np.log1p(-u)
        log_t = m * log_x
        with np.errstate(over="ignore"):
            t = np.exp(log_t)
            # Gamma(t | alpha, rate alpha) dt/du, dt/du = m t / (u (1 - u)), with
            # the exponent alpha (1 + log t - t) formed without cancellation
            weight = np.exp(log_norm + math.log(m) - alpha * (np.expm1(log_t) - log_t)
                            - np.log(u) - np.log1p(-u))
        out = np.zeros_like(u)
        live = (weight > 0.0) & (t > 0.0)
        if live.any():
            problem.rescale(1.0 / t[live])
            out[live] = problem.moment(k) * weight[live]
        return out

    # For large nu the mixing law is a peak at t = 1 of width sqrt(2/nu) that
    # the starting nodes could miss: edges 8 widths either side expose it.
    reach = 8.0 * math.sqrt(2.0 / nu) / m
    if reach < 1e-5:
        # A peak this narrow is near the resolution of the rule: from a reach
        # of about 3e-6 on, a sweep of nu finds |K15 - G7| short of the error.
        # The normal moment at t = 1 differs by g''(1)/nu + O(1/nu^2), g the
        # normal moment at scale 1/t, here of order 1e-12. No mixing node is
        # evaluated.
        return QuadResult(float(problem.moment(k)), 0.0, 0)
    edges = ((0.0, 0.25, 0.5, 0.75, 1.0) if reach > 0.5 else
             (0.0, 0.25, 1.0 / (1.0 + math.exp(reach)), 0.5, 1.0 / (1.0 + math.exp(-reach)),
              0.75, 1.0))
    return _gauss_kronrod(mixed, edges, tol)


def _check_box(name: str, k, r: Rectangle, dim: int) -> MultiIndex:
    k = MultiIndex.of(k)
    if not (k.dim == r.dim == dim):
        raise DomainError(f"{name}: dimensions of k, rectangle and parameters disagree")
    if r.dim > 3 and (np.isfinite(r.lower).any() or np.isfinite(r.upper).any()):
        raise DomainError(f"{name}: quadrature supports n <= 3 when a bound is finite, "
                          f"got n = {r.dim}")
    return k


def rectangle_probability(r: Rectangle, mean, precision_scaled, *, tol: float = 1e-8,
                          method: str = "auto", n_samples: int = 1_000_000,
                          seed: int = DEFAULT_SEED) -> float:
    """P(a <= X <= b) for X ~ N(mean, precision_scaled^(-1)).

    Dimensions 1 and 2 are exact (erf, Owen's T); dimension 3 integrates the
    exact 2-D conditional probability over one axis to absolute error
    ``tol``, which matters only there. Higher dimensions require
    ``method="mc"``.
    """
    mean = np.asarray(mean, dtype=float)
    if r.dim != mean.size:
        raise DomainError(f"rectangle_probability: rectangle dimension {r.dim} "
                          f"does not match mean dimension {mean.size}")
    prec = _check_spd(precision_scaled, "rectangle_probability: matrix")
    if method not in ("auto", "quad", "mc"):
        raise DomainError(f"rectangle_probability: unknown method {method!r}")
    if method != "mc" and mean.size > 3:
        raise DomainError("rectangle_probability: quadrature supports n <= 3; pass method='mc'")
    if method == "mc":
        # X = mean + L^(-T) z for the Cholesky factor L of the precision
        rng = np.random.default_rng(seed)
        chol = np.linalg.cholesky(prec)
        z = rng.standard_normal((n_samples, mean.size))
        x = mean + np.linalg.solve(chol.T, z.T).T
        inside = np.all((x >= r.lower) & (x <= r.upper), axis=1)
        return float(inside.mean())
    cov = _spd_inverse(prec)
    return float(_rect_prob(r.lower, r.upper, mean, cov, tol)(1.0))


def trunc_normal_moment(k, r: Rectangle, mean, precision_scaled) -> float:
    """Unnormalized truncated normal moment E(1_rect prod X_i^(k_i)).

    ``precision_scaled`` is the precision (inverse covariance) matrix of the
    normal; it is inverted once and the recursion runs in covariance form.
    """
    mean = np.asarray(mean, dtype=float)
    k = _check_box("trunc_normal_moment", k, r, mean.size)
    prec = _check_spd(precision_scaled, "trunc_normal_moment: matrix")
    cov = _spd_inverse(prec)
    mass = partial(_rect_prob, tol=1e-10)
    return float(_Recursion(r.lower, r.upper, mean, cov, mass).moment(k.k))


def trunc_t_moment(k, r: Rectangle, p: TParamsND, *, tol: float = 1e-9) -> MomentResult:
    """Unnormalized truncated t moment E(1_rect prod T_i^(k_i)).

    In one dimension the moment is closed-form (formula ``trunc-recurrence``):
    the mass is a regularized incomplete beta and higher orders follow from
    the t-level recurrence (see :func:`tmoments.t1d._t_orders_1d`); ``tol`` is
    not used.
    The diagnostics give the fraction's terms (``beta_terms``), the estimated
    absolute error of the mass (``beta_error``), a first-order bound on the
    recurrence's rounding error (``recurrence_error``) and, where that bound
    exceeded 1e-12 of the value and Gauss-Legendre panels gave the value
    instead, their count (``quadrature_panels``).

    In two and three dimensions (formula ``trunc-mixture``) the moments of
    the conditional normal N(mu, (t Sigma)^(-1)) are integrated against
    Gamma(t | nu/2, nu/2) by an adaptive Gauss-Kronrod (G7/K15) rule to
    absolute error ``tol`` (relative 1e-12), with t = (u/(1-u))^m on
    u in (0, 1) (see :func:`_t_mixture`). The recursion's faces are built
    once; each refinement level runs it once over all the level's nodes.
    ``quad_abs_error`` is the sum of the panels' |K15 - G7| and rounding
    terms, and ``quad_evaluations`` the number of mixing nodes. Moments
    exist for k < nu (total order) or, on a box with every bound finite, for
    every k; orders k >= nu on a bounded box raise ``NonConvergenceError``
    where the recursion's rounding, which grows like t^(-k/2) as t -> 0,
    swamps the mixing weight. In 3-D each box mass is a conditioning
    integral to absolute error max(tol/100, 1e-11) (see :func:`_tvn_box`),
    which ``quad_abs_error`` does not include. Above about nu = 3.2e11
    (1.3e12 on a bounded box) the mixing law is too narrow for the rule's
    error estimate; there the normal moment of N(mu, Sigma^(-1)),
    :func:`trunc_normal_moment`, answers (formula ``trunc-normal-limit``, no
    diagnostics), as it equals the t moment up to O(1/nu), of order 1e-12.
    """
    k = _check_box("trunc_t_moment", k, r, p.dim)
    if p.dim == 1:
        return _trunc_t_moment(k.total, float(r.lower[0]), float(r.upper[0]), float(p.mu[0]),
                               float(p.sigma_mat[0, 0]), float(p.nu))
    # a box with every bound finite has moments of every order
    if k.total >= p.nu and not (np.isfinite(r.lower).all() and np.isfinite(r.upper).all()):
        return _undefined("trunc-mixture", "corrected")
    quad_res = _t_mixture(k.k, r.lower, r.upper, p.mu, p.precision_inverse(), p.nu, tol)
    if not quad_res.evaluations:
        return MomentResult(quad_res.value, formula="trunc-normal-limit", mode="corrected")
    return MomentResult(float(quad_res.value), formula="trunc-mixture", mode="corrected",
                        diagnostics={"quad_abs_error": float(quad_res.est_abs_error),
                                     "quad_evaluations": quad_res.evaluations})


def trunc_t_moment_literal(k, r: Rectangle, p: TParamsND, *, tol: float = 1e-9) -> MomentResult:
    """Truncated t moment by the averaged-coefficient recursion (comparison mode).

    The recursion runs at the t level with coefficient nu/(nu-2), boundary
    densities of t-free variance diag(Sigma^(-1)), and the exact gamma-mixture
    mass of every face at order zero. Requires nu > 2. Exact for order zero
    and for full-space order-1 steps; beyond that it deviates from
    :func:`trunc_t_moment` because the boundary density and the 1/t
    coefficient are averaged separately.
    """
    k = _check_box("trunc_t_moment_literal", k, r, p.dim)
    if not p.nu > 2:
        raise DomainError(f"trunc_t_moment_literal: requires nu > 2, got {p.nu!r}")
    if k.total >= p.nu:
        return _undefined("trunc-literal", "literal")

    def mass(a, b, mean, cov):
        value = _t_mixture((0,) * mean.size, a, b, mean, cov, p.nu, tol).value
        return lambda scale: value

    problem = _Recursion(r.lower, r.upper, p.mu, p.precision_inverse(), mass,
                         p.nu / (p.nu - 2.0))
    return MomentResult(float(problem.moment(k.k)), formula="trunc-literal", mode="literal")
