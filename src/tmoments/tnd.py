"""Moments of the n-dimensional generalized Student's t distribution.

The density uses the precision convention: for SPD matrix Sigma,

    p(t) ∝ |Sigma|^(1/2) (1 + (t - mu)^T Sigma (t - mu) / nu)^(-(nu+n)/2),

so Sigma plays the role of an inverse scale matrix and the covariance for
nu > 2 is nu/(nu-2) Sigma^(-1). Mixed moments E(prod T_i^(k_i)) of total
degree K below nu are produced three ways:

* closed forms for the standardized case mu = 0, Sigma = I: the mixing
  moment E(lambda^(-K/2)) times one standard-normal moment per coordinate,
  both from ``normal_moments``;
* one moment recursion in two modes. It carries the conditional normal
  moment E(X^k | t) as a polynomial in the reciprocal mixing variable 1/t.
  The ``corrected`` mode averages each power t^(-m) against the
  Gamma(nu/2, nu/2) mixing law, which is exact. The ``literal`` mode weights
  it by (nu/(nu-2))^m instead, which is what replacing the reciprocal mixing
  factor by its mean nu/(nu-2) at every recursion step amounts to; the two
  coincide up to total degree 2 but the literal variant is biased beyond that
  (for example it yields 3 nu^2/(nu-2)^2 for the standardized 4th moment
  instead of 3 nu^2/((nu-2)(nu-4))), and is kept only for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .normal_moments import GammaParams, _check_order, _gamma_moment, _normal_scale, gamma_moment
from .t1d import MomentResult, _order_gate

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


def _spd_inverse(mat: np.ndarray) -> np.ndarray:
    """Inverse of an SPD matrix from its Cholesky factor L, as L^(-T) L^(-1)."""
    linv = np.linalg.inv(np.linalg.cholesky(mat))
    return linv.T @ linv


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
    """Location vector mu, SPD precision-convention matrix sigma_mat, finite nu > 0."""

    mu: np.ndarray
    sigma_mat: np.ndarray
    nu: float

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float)
        sig = np.array(self.sigma_mat, dtype=float)
        if mu.ndim != 1:
            raise DomainError(f"TParamsND: mu must be a vector, got shape {mu.shape}")
        if np.isnan(mu).any():
            raise DomainError(f"TParamsND: mu must not contain NaN, got {mu.tolist()!r}")
        if sig.shape != (mu.size, mu.size):
            raise DomainError(
                f"TParamsND: sigma_mat shape {sig.shape} does not match dimension {mu.size}")
        sig = _check_spd(sig, "TParamsND: sigma_mat")
        if not 0 < self.nu < math.inf:
            raise DomainError(f"TParamsND: nu must be positive and finite, got {self.nu!r}")
        mu.setflags(write=False)
        sig.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma_mat", sig)

    @property
    def dim(self) -> int:
        return self.mu.size

    def precision_inverse(self) -> np.ndarray:
        """Sigma^(-1) through a Cholesky factorization (the covariance up to nu/(nu-2))."""
        return _spd_inverse(self.sigma_mat)


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

        For integer m < nu/2, E(t^(-m)) = prod_{i=1}^{m} (nu/2) / (nu/2 - i);
        otherwise it is undefined. The m = 1 factor is the single correctly
        rounded quotient nu/(nu-2), so total degree <= 2 moments agree bit for
        bit with the literal recursion.
        """
        mixing = GammaParams(nu / 2.0, nu / 2.0)
        return math.fsum(c * gamma_moment(mixing, -m) for m, c in self.coeffs.items())


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


def _std_moment_nd(k, nu: float, formula: str, raw: bool) -> MomentResult:
    # E(lambda^(-K/2)) prod E|Z_i|^(k_i) for Z ~ N(0, I), lambda ~ Gamma(nu/2, nu/2)
    k = MultiIndex.of(k)
    gate = _order_gate(k.total, nu, formula)
    if gate is not None:
        return gate
    if raw and any(ki % 2 for ki in k.k):
        return MomentResult(0.0, formula=formula)
    normal = math.prod(_normal_scale(ki, 1.0) for ki in k.k)
    return MomentResult(normal * _gamma_moment(nu / 2.0, nu / 2.0, -k.total / 2.0),
                        formula=formula)


def std_raw_moment_nd(k, nu: float) -> MomentResult:
    """E(prod T_i^(k_i)) for mu = 0, Sigma = I: zero unless every order is even."""
    return _std_moment_nd(k, nu, "raw-standard-nd", raw=True)


def std_abs_moment_nd(k, nu: float) -> MomentResult:
    """E(prod |T_i|^(k_i)) for mu = 0, Sigma = I."""
    return _std_moment_nd(k, nu, "abs-standard-nd", raw=False)


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
    gate = _order_gate(k.total, p.nu, "mixture-recursion", "corrected")
    if gate is not None:
        return gate
    poly = conditional_moment_poly(k, p)
    value = poly.mixture_mean(p.nu)
    return MomentResult(value, formula="mixture-recursion", mode="corrected",
                        diagnostics={"reciprocal_powers": poly.max_power()})


def raw_moment_nd_literal(k, p: TParamsND) -> MomentResult:
    """E(prod T_i^(k_i)) by the one-step recursion with the averaged coefficient.

    The reciprocal mixing factor is replaced by its mean nu/(nu-2) at every
    step, which silently treats the coefficient and the lower-order moment as
    independent. That is the corrected recursion's 1/t polynomial with each
    power m weighted by (nu/(nu-2))^m instead of E(t^(-m)). Exact (bit for
    bit equal to :func:`raw_moment_nd`) for total degree <= 2; biased above
    that. Requires nu > 2.
    """
    k = MultiIndex.of(k)
    if k.dim != p.dim:
        raise DomainError(f"order has dimension {k.dim}, parameters have {p.dim}")
    if not p.nu > 2:
        raise DomainError(f"raw_moment_nd_literal: requires nu > 2, got {p.nu!r}")
    gate = _order_gate(k.total, p.nu, "literal-recursion", "literal")
    if gate is not None:
        return gate
    factor = p.nu / (p.nu - 2.0)
    coeffs = conditional_moment_poly(k, p).coeffs
    value = math.fsum(c * factor ** m for m, c in coeffs.items())
    return MomentResult(value, formula="literal-recursion", mode="literal")
