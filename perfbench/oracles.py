"""Reference values for the benchmark's output checks.

Each request carries a reference spec (a plain tuple built by
``workloads.py``). ``reference(spec)`` turns it into the value the response
must match and the absolute tolerance allowed, using routes that share no
code with the formula under test:

* Polynomial moments (1-D raw/central, even absolute orders, n-D mixed raw
  moments, normal raw/central moments) use a tensor Gauss-Hermite rule for
  the conditional normal, which is exact for polynomials, and average the
  powers of the mixing scale with ``normal_moments.gamma_moment``.
* Odd absolute orders use the package's ``quad_moment_1d`` (t) or its
  QUADPACK wrapper over ``normal_pdf`` (normal).
* Truncated moments use ``quad_moment_1d`` in 1-D and a tangent-substituted
  ``tensor_quad`` of the density over the rectangle in 2-D and 3-D.

Tolerances follow the tier-1 tests: 1e-9 relative for 1-D closed forms,
1e-10 for n-D and normal moments, 1e-7 for truncated t moments, 1e-8 for
truncated normal moments and 1e-8 absolute for rectangle probabilities. A
Gauss-Hermite reference also allows 1e-12 of the sum of absolute node
contributions, which bounds the rounding of an alternating sum.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from tmoments import oracle
from tmoments.normal_moments import GammaParams, gamma_moment
from tmoments.t1d import TParams1D
from tmoments.tnd import TParamsND, t_pdf_nd

_ROUNDING = 1e-12
_HERMITE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_GRIDS: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}


def _hermite(m: int):
    rule = _HERMITE.get(m)
    if rule is None:
        x, w = hermegauss(m)
        rule = (x, w / math.sqrt(2.0 * math.pi))
        _HERMITE[m] = rule
    return rule


def _grid(degrees: tuple[int, ...]):
    """Tensor Hermite nodes and weights exact to the given degree per axis."""
    grid = _GRIDS.get(degrees)
    if grid is None:
        # m nodes integrate degree 2m - 1 exactly.
        rules = [_hermite(d // 2 + 1) for d in degrees]
        nodes = np.meshgrid(*[r[0] for r in rules], indexing="ij")
        weights = np.meshgrid(*[r[1] for r in rules], indexing="ij")
        grid = (np.stack([g.ravel() for g in nodes], axis=-1),
                np.prod(np.stack([g.ravel() for g in weights], axis=-1), axis=1))
        _GRIDS[degrees] = grid
    return grid


def _scale_poly(k, mu, cov):
    """Coefficients e_j of E_Z[prod (mu_i + s (L Z)_i)^k_i] as a polynomial in s.

    Z is standard normal and L the lower Cholesky factor of ``cov``. Returns
    (coefficients, coefficients of the absolute node contributions).
    """
    if len(k) == 1:
        k0 = int(k[0])
        x, w = _hermite(k0 // 2 + 1)
        powers = (math.sqrt(cov[0][0]) * x)[:, None] ** np.arange(k0 + 1)
        binom = np.array([math.comb(k0, j) * float(mu[0]) ** (k0 - j) for j in range(k0 + 1)])
        return binom * (w @ powers), np.abs(binom) * (w @ np.abs(powers))
    # X_i depends on Z_0..Z_i, so Z_j appears with degree sum_{i >= j} k_i.
    # Putting the largest orders first keeps those suffix sums, and so the
    # grid, small.
    order = sorted(range(len(k)), key=lambda i: -k[i])
    k = tuple(int(k[i]) for i in order)
    mu = np.asarray(mu, dtype=float)[order]
    cov = np.asarray(cov, dtype=float)[np.ix_(order, order)]
    z, w = _grid(tuple(sum(k[j:]) for j in range(len(k))))
    y = z @ np.linalg.cholesky(cov).T
    poly = np.zeros((z.shape[0], sum(k) + 1))
    poly[:, 0] = 1.0
    for i, ki in enumerate(k):
        for _ in range(ki):
            shifted = np.zeros_like(poly)
            shifted[:, 1:] = poly[:, :-1] * y[:, i:i + 1]
            poly = mu[i] * poly + shifted
    return w @ poly, w @ np.abs(poly)


def _mixed(coeffs, abs_coeffs, weights):
    value = math.fsum(c * wj for c, wj in zip(coeffs, weights))
    scale = math.fsum(abs(c) * wj for c, wj in zip(abs_coeffs, weights))
    return value, scale


def gh_moment(k, mu, cov, mixing: str, nu: float | None = None):
    """E prod X_i^k_i for X = mu + s L Z; returns (value, rounding scale).

    ``mixing`` is "t" (s^2 = 1/lambda, lambda ~ Gamma(nu/2, rate nu/2)),
    "literal" (s^2 fixed at nu/(nu-2)) or "normal" (s = 1).
    """
    coeffs, abs_coeffs = _scale_poly(k, mu, cov)
    total = len(coeffs) - 1
    if mixing == "normal":
        weights = [1.0] * (total + 1)
    elif mixing == "literal":
        weights = [(nu / (nu - 2.0)) ** (j / 2.0) for j in range(total + 1)]
    else:
        mix = GammaParams(nu / 2.0, nu / 2.0)
        weights = [gamma_moment(mix, -j / 2.0) if j % 2 == 0 else 0.0
                   for j in range(total + 1)]
    return _mixed(coeffs, abs_coeffs, weights)


def _gh_ref(rtol, k, mu, cov, mixing, nu=None):
    value, scale = gh_moment(k, mu, cov, mixing, nu)
    return {"value": value, "atol": rtol * max(1.0, abs(value)) + _ROUNDING * scale}


def _quad_ref(rtol, res):
    return {"value": res.value, "atol": rtol * max(1.0, abs(res.value))}


def _ref_t1d(kind, k, mu, sigma, nu, rtol=1e-9):
    if k >= nu and k > 0:
        return {"undefined": True}
    polynomial = kind in ("raw", "central") or k % 2 == 0
    if polynomial:
        loc = 0.0 if kind in ("central", "central-abs") else mu
        return _gh_ref(rtol, (k,), [loc], [[1.0 / sigma]], "t", nu)
    res = oracle.quad_moment_1d(kind, k, TParams1D(mu, sigma, nu), tol=1e-10)
    return _quad_ref(rtol, res)


def _ref_normal(kind, k, mean, var):
    if kind == "central":
        return _gh_ref(1e-10, (k,), [0.0], [[var]], "normal")
    if kind == "raw" or k % 2 == 0:
        return _gh_ref(1e-10, (k,), [mean], [[var]], "normal")

    def integrand(x):
        return abs(x) ** k * oracle.normal_pdf(x, mean, var)

    parts = [oracle._run_quad(integrand, lo, hi, 1e-12)
             for lo, hi in ((-math.inf, 0.0), (0.0, math.inf))]
    value = math.fsum(p.value for p in parts)
    return {"value": value, "atol": 1e-10 * max(1.0, abs(value))}


def _ref_nd(mode, k, mu, smat, nu):
    total = sum(k)
    if total >= nu and total > 0:
        return {"undefined": True}
    cov = np.linalg.inv(np.asarray(smat, dtype=float))
    return _gh_ref(1e-10, k, mu, 0.5 * (cov + cov.T),
                   "literal" if mode == "literal" else "t", nu)


def box_moment(k, lower, upper, center, scale, pdf, tol, max_refine):
    """Integral of prod x_i^k_i pdf(x) over a box by ``oracle.tensor_quad``.

    Infinite sides are mapped by x = center + scale tan(theta), finite ones
    integrate in x directly.
    """
    n = len(k)
    tangent = [math.isinf(lower[i]) or math.isinf(upper[i]) for i in range(n)]
    lo, hi = [], []
    for i in range(n):
        if tangent[i]:
            lo.append(math.atan((lower[i] - center[i]) / scale[i]))
            hi.append(math.atan((upper[i] - center[i]) / scale[i]))
        else:
            lo.append(lower[i])
            hi.append(upper[i])
    center = np.asarray(center, dtype=float)
    scale = np.asarray(scale, dtype=float)
    mask = np.array(tangent)
    powers = np.asarray(k, dtype=float)

    def integrand(pts):
        x = pts.copy()
        jac = np.ones(pts.shape[0])
        if mask.any():
            th = pts[:, mask]
            x[:, mask] = center[mask] + scale[mask] * np.tan(th)
            jac = np.prod(scale[mask] / np.cos(th) ** 2, axis=1)
        return np.prod(x ** powers, axis=1) * pdf(x) * jac

    return oracle.tensor_quad(integrand, lo, hi, tol=tol, max_refine=max_refine)


def _box_tol(n):
    # 3-D grids past two refinements need hundreds of MB, so the 3-D rule stops
    # there with a looser (still 100x tighter than checked) tolerance.
    return (1e-11, 5) if n <= 2 else (1e-9, 2)


def _ref_trunc_t(k, lower, upper, mu, smat, nu):
    if sum(k) >= nu and sum(k) > 0:
        return {"undefined": True}
    n = len(k)
    if n == 1:
        res = oracle.quad_moment_1d("raw", k[0], TParams1D(mu[0], smat[0][0], nu),
                                    bounds=(lower[0], upper[0]), tol=1e-11)
        return _quad_ref(1e-7, res)
    p = TParamsND(np.asarray(mu, dtype=float), np.asarray(smat, dtype=float), nu)
    scale = np.sqrt(nu * np.diag(np.linalg.inv(p.sigma_mat)))
    tol, refine = _box_tol(n)
    res = box_moment(k, lower, upper, mu, scale, lambda x: t_pdf_nd(x, p), tol, refine)
    return _quad_ref(1e-7, res)


def _ref_trunc_normal(k, lower, upper, mean, prec, rtol=1e-8, floor=1.0):
    prec = np.asarray(prec, dtype=float)
    mean = np.asarray(mean, dtype=float)
    n = len(k)
    cov = np.linalg.inv(prec)
    _, logdet = np.linalg.slogdet(prec)
    log_norm = 0.5 * logdet - 0.5 * n * math.log(2.0 * math.pi)

    def pdf(x):
        d = x - mean
        return np.exp(log_norm - 0.5 * np.einsum("ij,jk,ik->i", d, prec, d))

    if n == 1:
        sd = math.sqrt(cov[0, 0])

        def integrand(x):
            return x ** k[0] * oracle.normal_pdf(x, mean[0], sd * sd)

        res = oracle._run_quad(integrand, lower[0], upper[0], 1e-13)
    else:
        tol, refine = _box_tol(n)
        res = box_moment(k, lower, upper, mean, np.sqrt(np.diag(cov)), pdf, tol, refine)
    return {"value": res.value, "atol": rtol * max(floor, abs(res.value))}


def reference(spec) -> dict:
    """Reference for one request: {"value", "atol"}, {"undefined"} or {"repeat"}."""
    tag, args = spec[0], spec[1:]
    if tag == "t1d":
        return _ref_t1d(*args)
    if tag == "t1d-oracle":
        return _ref_t1d(*args, rtol=1e-8)
    if tag == "normal":
        return _ref_normal(*args)
    if tag == "nd":
        return _ref_nd(*args)
    if tag == "trunc_t":
        return _ref_trunc_t(*args)
    if tag == "trunc_normal":
        return _ref_trunc_normal(*args)
    if tag == "rect_prob":
        # rectangle_probability promises an absolute error of at most 1e-8.
        return _ref_trunc_normal(*args, floor=0.0, rtol=0.0) | {"atol": 1e-8}
    if tag == "repeat":
        return {"repeat": True}
    raise ValueError(f"unknown reference spec {tag!r}")
