"""Moments of the n-dimensional generalized Student's t distribution.

The density uses the precision convention: for SPD matrix Sigma,

    p(t) ∝ |Sigma|^(1/2) (1 + (t - mu)^T Sigma (t - mu) / nu)^(-(nu+n)/2),

so Sigma plays the role of an inverse scale matrix and the covariance for
nu > 2 is nu/(nu-2) Sigma^(-1). Mixed moments E(prod T_i^(k_i)) of total
degree below nu are produced three ways:

* closed forms for the standardized case mu = 0, Sigma = I;
* a one-step moment recursion in two modes. The ``corrected`` mode carries the
  conditional normal moment E(X^k | t) through the recursion as a polynomial
  in the reciprocal mixing variable 1/t and only then averages each power
  against the Gamma(nu/2, nu/2) mixing law, which is exact. The ``literal``
  mode instead replaces the reciprocal mixing factor by its mean nu/(nu-2)
  before recursing; the two coincide up to total degree 2 but the literal
  variant is biased beyond that (for example it yields 3 nu^2/(nu-2)^2 for
  the standardized 4th moment instead of 3 nu^2/((nu-2)(nu-4))), and is kept
  only for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DomainError, UndefinedMomentError
from .normal_moments import _check_order
from .t1d import MomentResult, _undefined

_SQRT_PI = math.sqrt(math.pi)
_SYMMETRY_TOL = 1e-12


def _check_spd(mat, what: str) -> np.ndarray:
    """The symmetrized copy of a symmetric positive definite matrix.

    ``what`` names the matrix in the error messages.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError(f"{what} must be a square matrix, got shape {mat.shape}")
    scale = max(np.abs(mat).max(), 1.0)
    if np.abs(mat - mat.T).max() > _SYMMETRY_TOL * scale:
        raise DomainError(f"{what} is not symmetric")
    mat = 0.5 * (mat + mat.T)
    eigs = np.linalg.eigvalsh(mat)
    if eigs[0] <= 0:
        raise DomainError(f"{what} is not positive definite (smallest eigenvalue {eigs[0]:.3e})")
    return mat


@dataclass(frozen=True)
class MultiIndex:
    """Multi-index of nonnegative integer orders, one per coordinate."""

    k: tuple[int, ...]

    def __post_init__(self):
        if len(self.k) == 0:
            raise DomainError("MultiIndex: needs at least one coordinate")
        object.__setattr__(self, "k", tuple(_check_order(ki) for ki in self.k))

    @classmethod
    def of(cls, k) -> "MultiIndex":
        if isinstance(k, MultiIndex):
            return k
        if isinstance(k, (int, np.integer)):
            return cls((int(k),))
        return cls(tuple(k))

    @property
    def total(self) -> int:
        return sum(self.k)

    @property
    def dim(self) -> int:
        return len(self.k)

    def incremented(self, i: int) -> "MultiIndex":
        k = list(self.k)
        k[i] += 1
        return MultiIndex(tuple(k))

    def decremented(self, j: int) -> "MultiIndex":
        if self.k[j] == 0:
            raise DomainError(f"MultiIndex: cannot decrement coordinate {j} below zero")
        k = list(self.k)
        k[j] -= 1
        return MultiIndex(tuple(k))


@dataclass(frozen=True, eq=False)
class TParamsND:
    """Location vector mu, SPD precision-convention matrix sigma_mat, nu > 0."""

    mu: np.ndarray
    sigma_mat: np.ndarray
    nu: float

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float)
        sig = np.array(self.sigma_mat, dtype=float)
        if mu.ndim != 1:
            raise DomainError(f"TParamsND: mu must be a vector, got shape {mu.shape}")
        if sig.shape != (mu.size, mu.size):
            raise DomainError(
                f"TParamsND: sigma_mat shape {sig.shape} does not match dimension {mu.size}")
        sig = _check_spd(sig, "TParamsND: sigma_mat")
        if not self.nu > 0:
            raise DomainError(f"TParamsND: nu must be positive, got {self.nu!r}")
        mu.setflags(write=False)
        sig.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma_mat", sig)

    @property
    def dim(self) -> int:
        return self.mu.size

    def precision_inverse(self) -> np.ndarray:
        """Sigma^(-1) through a Cholesky factorization (the covariance up to nu/(nu-2))."""
        factor = cho_factor(self.sigma_mat, lower=True)
        return cho_solve(factor, np.eye(self.dim))


@dataclass(frozen=True, eq=False)
class MixturePoly:
    """Conditional moment E(X^k | mixing value t) as a polynomial in 1/t.

    ``coeffs`` maps the reciprocal power m to its coefficient, so the
    represented function is sum_m coeffs[m] * t^(-m).
    """

    coeffs: dict[int, float]

    def __post_init__(self):
        for m in self.coeffs:
            if m < 0 or not float(m).is_integer():
                raise DomainError(f"MixturePoly: powers must be nonnegative integers, got {m!r}")

    def evaluate(self, t: float) -> float:
        return math.fsum(c * t ** (-m) for m, c in self.coeffs.items())

    def max_power(self) -> int:
        return max(self.coeffs, default=0)

    def mixture_mean(self, nu: float) -> float:
        """Average over t ~ Gamma(nu/2, nu/2), one reciprocal-power moment per term.

        For integer m < nu/2, E(t^(-m)) = prod_{i=1}^{m} (nu/2) / (nu/2 - i).
        The cancellation-free product keeps low-order results exact: the m = 1
        factor is the single correctly rounded quotient nu/(nu-2), so total
        degree <= 2 moments agree bit for bit with the literal recursion.
        """
        half = nu / 2.0
        terms = []
        for m, c in self.coeffs.items():
            w = 1.0
            for i in range(1, int(m) + 1):
                if not half - i > 0:
                    raise UndefinedMomentError(
                        f"mixture_mean: E(t^-{m}) undefined for nu = {nu!r}")
                w *= half / (half - i)
            terms.append(c * w)
        return math.fsum(terms)


def t_pdf_nd(t, p: TParamsND):
    """Density of the n-dimensional distribution; accepts one point or a stack of rows."""
    t = np.asarray(t, dtype=float)
    single = t.ndim == 1
    pts = np.atleast_2d(t)
    if pts.shape[1] != p.dim:
        raise DomainError(f"t_pdf_nd: points have dimension {pts.shape[1]}, expected {p.dim}")
    n = p.dim
    sign, logdet = np.linalg.slogdet(p.sigma_mat)
    d = pts - p.mu
    q = np.einsum("ij,jk,ik->i", d, p.sigma_mat, d)
    log_norm = (math.lgamma((p.nu + n) / 2.0) - math.lgamma(p.nu / 2.0)
                + 0.5 * logdet - 0.5 * n * math.log(p.nu * math.pi))
    out = np.exp(log_norm - 0.5 * (p.nu + n) * np.log1p(q / p.nu))
    return float(out[0]) if single else out


def _gate_nd(k: MultiIndex, nu: float, formula: str, mode: str = "closed-form") -> MomentResult | None:
    if k.total == 0:
        return MomentResult(1.0, formula=formula, mode=mode)
    if k.total >= nu:
        return _undefined(formula, mode)
    return None


def std_raw_moment_nd(k, nu: float) -> MomentResult:
    """E(prod T_i^(k_i)) for mu = 0, Sigma = I: zero unless every order is even."""
    k = MultiIndex.of(k)
    gate = _gate_nd(k, nu, "raw-standard-nd")
    if gate is not None:
        return gate
    if any(ki % 2 for ki in k.k):
        return MomentResult(0.0, formula="raw-standard-nd")
    total = k.total
    coeff = 1.0
    for ki in k.k:
        coeff *= math.factorial(ki) / math.factorial(ki // 2)
    value = (nu ** (total / 2.0) * math.exp(math.lgamma((nu - total) / 2.0)
                                            - math.lgamma(nu / 2.0))
             * coeff / 2.0 ** total)
    return MomentResult(value, formula="raw-standard-nd")


def std_abs_moment_nd(k, nu: float) -> MomentResult:
    """E(prod |T_i|^(k_i)) for mu = 0, Sigma = I."""
    k = MultiIndex.of(k)
    gate = _gate_nd(k, nu, "abs-standard-nd")
    if gate is not None:
        return gate
    total = k.total
    coeff = 1.0
    for ki in k.k:
        coeff *= math.gamma((ki + 1.0) / 2.0) / _SQRT_PI
    value = (nu ** (total / 2.0) * math.exp(math.lgamma((nu - total) / 2.0)
                                            - math.lgamma(nu / 2.0)) * coeff)
    return MomentResult(value, formula="abs-standard-nd")


def _conditional_poly(k: tuple[int, ...], mu: list[float], prec_inv: list[list[float]],
                      memo: dict) -> dict[int, float]:
    # One-step recursion for the conditional normal moment, kept symbolic in
    # the reciprocal mixing power: lowering the first active coordinate i,
    # E(X^(k'+e_i) | t) = mu_i E(X^k' | t) + (1/t) sum_j S_ij k'_j E(X^(k'-e_j) | t)
    # with S = Sigma^(-1); multiplying by 1/t shifts every power up by one.
    poly = memo.get(k)
    if poly is not None:
        return poly
    if not any(k):
        poly = {0: 1.0}
    else:
        i = next(idx for idx, ki in enumerate(k) if ki)
        base = k[:i] + (k[i] - 1,) + k[i + 1:]
        lower = _conditional_poly(base, mu, prec_inv, memo)
        poly = {m: mu[i] * c for m, c in lower.items()} if mu[i] != 0.0 else {}
        for j, kj in enumerate(base):
            w = prec_inv[i][j] * kj
            if w != 0.0:
                sub = _conditional_poly(base[:j] + (kj - 1,) + base[j + 1:], mu, prec_inv, memo)
                for m, c in sub.items():
                    poly[m + 1] = poly.get(m + 1, 0.0) + w * c
    memo[k] = poly
    return poly


def conditional_moment_poly(k, p: TParamsND) -> MixturePoly:
    """E(X^k | mixing value t) for X ~ N(mu, (t Sigma)^(-1)), as a 1/t polynomial.

    The maximum reciprocal power is at most ceil(total/2), reached by the
    pure covariance contributions.
    """
    k = MultiIndex.of(k)
    if k.dim != p.dim:
        raise DomainError(f"order has dimension {k.dim}, parameters have {p.dim}")
    # Python floats overflow to inf silently, where numpy scalars warn.
    prec_inv = p.precision_inverse().tolist()
    return MixturePoly(_conditional_poly(k.k, p.mu.tolist(), prec_inv, {}))


def raw_moment_nd(k, p: TParamsND) -> MomentResult:
    """E(prod T_i^(k_i)) by the corrected recursion: conditional moments are
    carried as 1/t polynomials and averaged against the gamma mixing law last."""
    k = MultiIndex.of(k)
    if k.dim != p.dim:
        raise DomainError(f"order has dimension {k.dim}, parameters have {p.dim}")
    gate = _gate_nd(k, p.nu, "mixture-recursion", "corrected")
    if gate is not None:
        return gate
    poly = conditional_moment_poly(k, p)
    value = poly.mixture_mean(p.nu)
    return MomentResult(value, formula="mixture-recursion", mode="corrected",
                        diagnostics={"reciprocal_powers": poly.max_power()})


def raw_moment_nd_literal(k, p: TParamsND) -> MomentResult:
    """E(prod T_i^(k_i)) by the one-step recursion with the averaged coefficient.

    The reciprocal mixing factor is replaced by its mean nu/(nu-2) before the
    recursion runs, which silently treats the coefficient and the lower-order
    moment as independent. Exact for total degree <= 2; biased above that.
    Requires nu > 2.
    """
    k = MultiIndex.of(k)
    if k.dim != p.dim:
        raise DomainError(f"order has dimension {k.dim}, parameters have {p.dim}")
    if not p.nu > 2:
        raise DomainError(f"raw_moment_nd_literal: requires nu > 2, got {p.nu!r}")
    gate = _gate_nd(k, p.nu, "literal-recursion", "literal")
    if gate is not None:
        return gate
    prec_inv = p.precision_inverse()
    factor = p.nu / (p.nu - 2.0)
    memo: dict[tuple[int, ...], float] = {}

    def rec(idx: tuple[int, ...]) -> float:
        val = memo.get(idx)
        if val is not None:
            return val
        if not any(idx):
            return 1.0
        i = next(pos for pos, ki in enumerate(idx) if ki)
        base = idx[:i] + (idx[i] - 1,) + idx[i + 1:]
        val = p.mu[i] * rec(base)
        for j, kj in enumerate(base):
            if kj:
                val += factor * prec_inv[i, j] * kj * rec(base[:j] + (kj - 1,) + base[j + 1:])
        memo[idx] = val
        return val

    return MomentResult(rec(k.k), formula="literal-recursion", mode="literal")
