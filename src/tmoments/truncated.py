"""Truncated moments over axis-aligned rectangles.

F_k(a, b) = integral over the rectangle of t^k times the density, left
unnormalized (divide by the order-0 value to condition on the rectangle).

One recursion engine serves every route. Differentiating a normal density
moves one coordinate's exponent down and spawns (n-1)-dimensional moments on
the two faces of that coordinate, with conditional mean and covariance given
by the Schur complement (Kan & Robotti 2017). The engine takes a step
coefficient and an order-zero mass function, and its faces inherit both:

* ``trunc_normal_moment``: coefficient 1, mass the normal rectangle
  probability.
* ``trunc_t_moment`` (``corrected`` mode): the normal engine at each value of
  the gamma mixing variable, averaged by adaptive quadrature over that
  variable. This is exact up to the quadrature error.
* ``trunc_t_moment_literal`` (``literal`` mode): the engine run directly at
  the t level with the averaged coefficient nu/(nu-2) and a t-free boundary
  density; its mass is the gamma-mixture probability of the box or face. It
  is exact only where no averaging is involved and is kept for comparison.

The normal rectangle probability behind every mass is exact in 1-D (erf)
and 2-D (Owen's T function, Owen 1956); in 3-D it is one adaptive integral of
the exact 2-D probability of the conditional pair over the first axis (Genz
2004). Boxes with a finite bound are therefore limited to n <= 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.special import owens_t

from .errors import DomainError
from .normal_moments import GammaParams
from .oracle import DEFAULT_SEED, QuadResult, _run_quad, gamma_pdf, normal_pdf
from .t1d import MomentResult, _undefined
from .tnd import MultiIndex, TParamsND, _check_spd

_SQRT_2PI = math.sqrt(2.0 * math.pi)


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


def _std_normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _owen_term(h: float, num: float, r: float) -> float:
    # T(h, num / (h r)); at h = 0 the argument is +-inf and T(0, +-inf) = +-1/4.
    if h == 0.0:
        return math.copysign(0.25, num)
    return float(owens_t(h, num / (h * r)))


def _bvn_cdf(h: float, k: float, rho: float) -> float:
    """P(Z1 <= h, Z2 <= k) for standard normals at correlation rho (Owen 1956)."""
    if h == -math.inf or k == -math.inf:
        return 0.0
    if h == math.inf:
        return _std_normal_cdf(k)
    if k == math.inf:
        return _std_normal_cdf(h)
    if h == 0.0 and k == 0.0:
        return 0.25 + math.asin(rho) / (2.0 * math.pi)
    r = math.sqrt((1.0 - rho) * (1.0 + rho))
    val = (0.5 * (_std_normal_cdf(h) + _std_normal_cdf(k))
           - _owen_term(h, k - rho * h, r) - _owen_term(k, h - rho * k, r))
    if (h < 0.0) != (k < 0.0):
        val -= 0.5
    return val


def _bvn_box(lo1: float, hi1: float, lo2: float, hi2: float, rho: float) -> float:
    """P(lo < Z < hi) for a standard normal pair at correlation rho."""
    # An axis whose interval lies mostly above the mean is reflected, so the
    # corner values are lower-tail probabilities instead of values near 1.
    if lo1 + hi1 > 0.0:
        lo1, hi1, rho = -hi1, -lo1, -rho
    if lo2 + hi2 > 0.0:
        lo2, hi2, rho = -hi2, -lo2, -rho
    p = ((_bvn_cdf(hi1, hi2, rho) - _bvn_cdf(lo1, hi2, rho))
         - (_bvn_cdf(hi1, lo2, rho) - _bvn_cdf(lo1, lo2, rho)))
    return max(p, 0.0)


def _tvn_box(a: list[float], b: list[float], mean: list[float], cov: list[list[float]],
             tol: float) -> float:
    """Trivariate normal box probability by conditioning on axis 0 (Genz 2004).

    Given z = (x_0 - m_0)/s_0 the other two axes are a bivariate normal whose
    box probability is exact; one adaptive integral over z against the
    standard normal density, on infinite ranges where a bound is infinite,
    gives the rest.
    """
    s0 = math.sqrt(cov[0][0])
    z_lo, z_hi = (a[0] - mean[0]) / s0, (b[0] - mean[0]) / s0
    c1, c2 = cov[0][1] / s0, cov[0][2] / s0
    s1 = math.sqrt(cov[1][1] - c1 * c1)
    s2 = math.sqrt(cov[2][2] - c2 * c2)
    rho = (cov[1][2] - c1 * c2) / (s1 * s2)
    lo1, hi1 = (a[1] - mean[1]) / s1, (b[1] - mean[1]) / s1
    lo2, hi2 = (a[2] - mean[2]) / s2, (b[2] - mean[2]) / s2
    g1, g2 = c1 / s1, c2 / s2

    def conditional(z: float) -> float:
        return (math.exp(-0.5 * z * z) / _SQRT_2PI
                * _bvn_box(lo1 - g1 * z, hi1 - g1 * z, lo2 - g2 * z, hi2 - g2 * z, rho))

    return _run_quad(conditional, z_lo, z_hi, tol).value


def _rect_prob_cov(a: np.ndarray, b: np.ndarray, mean: np.ndarray, cov: np.ndarray,
                   tol: float) -> float:
    """Normal rectangle probability, covariance parameterization.

    Exact in 1-D (erf) and 2-D (Owen's T); in 3-D one conditioning integral
    of the exact 2-D probability, to absolute error ``tol``.
    """
    n = mean.size
    if np.all(np.isneginf(a)) and np.all(np.isposinf(b)):
        return 1.0
    if n == 1:
        s = math.sqrt(cov[0, 0])
        hi = 1.0 if math.isinf(b[0]) else _std_normal_cdf((b[0] - mean[0]) / s)
        lo = 0.0 if math.isinf(a[0]) else _std_normal_cdf((a[0] - mean[0]) / s)
        return max(hi - lo, 0.0)
    a, b, mean, cov = a.tolist(), b.tolist(), mean.tolist(), cov.tolist()
    if n == 3:
        return _tvn_box(a, b, mean, cov, tol)
    s1, s2 = math.sqrt(cov[0][0]), math.sqrt(cov[1][1])
    return _bvn_box((a[0] - mean[0]) / s1, (b[0] - mean[0]) / s1,
                    (a[1] - mean[1]) / s2, (b[1] - mean[1]) / s2, cov[0][1] / (s1 * s2))


class _Recursion:
    """Unnormalized truncated moments of one location and covariance.

    Lowering the first nonzero order i, F_k = mean_i F_(k-e_i) +
    coef * sum_j cov_ij * corner_j, where corner_j holds the exponent-decrement
    term of coordinate j and its two face terms. ``mass(a, b, mean, cov)``
    gives the order-zero value; the faces are Schur complements and inherit
    ``mass`` and ``coef``.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, mean: np.ndarray, cov: np.ndarray,
                 mass, coef: float = 1.0):
        self.a = a
        self.b = b
        self.mean = mean
        self.cov = cov
        self.var = np.diag(cov)
        self.n = mean.size
        self.mass = mass
        self.coef = coef
        self._memo: dict[tuple[int, ...], float] = {}
        self._faces: dict[tuple[int, int], _Recursion] = {}

    def moment(self, k: tuple[int, ...]) -> float:
        val = self._memo.get(k)
        if val is None:
            val = self._step(k) if any(k) else self.mass(self.a, self.b, self.mean, self.cov)
            self._memo[k] = val
        return val

    def _step(self, k: tuple[int, ...]) -> float:
        i = next(pos for pos, ki in enumerate(k) if ki)
        base = k[:i] + (k[i] - 1,) + k[i + 1:]
        val = self.mean[i] * self.moment(base)
        for j in range(self.n):
            cij = self.cov[i, j]
            if cij != 0.0:
                val += self.coef * cij * self._corner(base, j)
        return val

    def _corner(self, base: tuple[int, ...], j: int) -> float:
        # The three-term boundary coefficient: the exponent-decrement term
        # vanishes for exponent 0, the face terms vanish at infinite bounds.
        out = 0.0
        if base[j]:
            out += base[j] * self.moment(base[:j] + (base[j] - 1,) + base[j + 1:])
        reduced = base[:j] + base[j + 1:]
        aj = self.a[j]
        if not math.isinf(aj):
            out += (aj ** base[j] * normal_pdf(aj, self.mean[j], self.var[j])
                    * self._face_moment(j, 0, reduced))
        bj = self.b[j]
        if not math.isinf(bj):
            out -= (bj ** base[j] * normal_pdf(bj, self.mean[j], self.var[j])
                    * self._face_moment(j, 1, reduced))
        return out

    def _face_moment(self, j: int, side: int, reduced: tuple[int, ...]) -> float:
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
                              self.coef)
            self._faces[(j, side)] = face
        return face.moment(reduced)


def _t_mixture(k: tuple[int, ...], a: np.ndarray, b: np.ndarray, mean: np.ndarray,
               cov: np.ndarray, nu: float, tol: float) -> QuadResult:
    """Gamma-mixture integral of the normal recursion over N(mean, cov / t).

    The breakpoint u = 1/2 is t = 1, the mean of the mixing law: without it
    QUADPACK can accept a single 21-point panel whose error estimate is far
    below its true error.
    """
    mixing = GammaParams(nu / 2.0, nu / 2.0)
    mass = partial(_rect_prob_cov, tol=max(tol * 1e-2, 1e-11))

    def mixed(u: float) -> float:
        t = u / (1.0 - u)
        problem = _Recursion(a, b, mean, cov / t, mass)
        return problem.moment(k) * gamma_pdf(t, mixing) / (1.0 - u) ** 2

    return _run_quad(mixed, 0.0, 1.0, tol, points=[0.5])


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
    if method == "mc" or (method == "auto" and mean.size > 3):
        if method == "auto":
            raise DomainError(
                "rectangle_probability: quadrature supports n <= 3; pass method='mc'")
        rng = np.random.default_rng(seed)
        chol = np.linalg.cholesky(prec)
        z = rng.standard_normal((n_samples, mean.size))
        x = mean + solve_triangular(chol, z.T, lower=True, trans="T").T
        inside = np.all((x >= r.lower) & (x <= r.upper), axis=1)
        return float(inside.mean())
    cov = cho_solve(cho_factor(prec, lower=True), np.eye(mean.size))
    return _rect_prob_cov(r.lower, r.upper, mean, cov, tol)


def trunc_normal_moment(k, r: Rectangle, mean, precision_scaled) -> float:
    """Unnormalized truncated normal moment E(1_rect prod X_i^(k_i)).

    ``precision_scaled`` is the precision (inverse covariance) matrix of the
    normal; it is inverted once and the recursion runs in covariance form.
    """
    mean = np.asarray(mean, dtype=float)
    k = _check_box("trunc_normal_moment", k, r, mean.size)
    prec = _check_spd(precision_scaled, "trunc_normal_moment: matrix")
    cov = cho_solve(cho_factor(prec, lower=True), np.eye(mean.size))
    mass = partial(_rect_prob_cov, tol=1e-10)
    return _Recursion(r.lower, r.upper, mean, cov, mass).moment(k.k)


def trunc_t_moment(k, r: Rectangle, p: TParamsND, *, tol: float = 1e-9) -> MomentResult:
    """Unnormalized truncated t moment by gamma-mixture quadrature.

    For each mixing value t the conditional normal problem N(mu, (t Sigma)^(-1))
    is solved by the moment recursion; the results are integrated against
    Gamma(t | nu/2, nu/2), with (0, inf) mapped to (0, 1) by t = u/(1-u).
    """
    k = _check_box("trunc_t_moment", k, r, p.dim)
    if k.total >= p.nu:
        return _undefined("trunc-mixture", "corrected")
    quad_res = _t_mixture(k.k, r.lower, r.upper, p.mu, p.precision_inverse(), p.nu, tol)
    return MomentResult(quad_res.value, formula="trunc-mixture", mode="corrected",
                        diagnostics={"quad_abs_error": quad_res.est_abs_error,
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
        return _t_mixture((0,) * mean.size, a, b, mean, cov, p.nu, tol).value

    problem = _Recursion(r.lower, r.upper, p.mu, p.precision_inverse(), mass,
                         p.nu / (p.nu - 2.0))
    return MomentResult(problem.moment(k.k), formula="trunc-literal", mode="literal")
