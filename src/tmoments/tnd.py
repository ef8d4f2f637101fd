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

The polynomial comes from the one-step normal recursion (Kan & Robotti
2017), run as a numpy sweep over the lattice of multi-indices below k, one
coordinate stage at a time: about sum_i k_i (n - i) array operations over
at most prod(k_i + 1) (|k|//2 + 1) entries, where a memoised scalar
recursion took a Python operation per entry, coordinate and power. It keeps
the lattice of the coordinates after the first and three arrays of its size,
and refuses a lattice of more than ``_MAX_LATTICE`` entries with
``DomainError`` before allocating it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .normal_moments import GammaParams, _check_order, _gamma_moment, _normal_scale, gamma_moment
from .t1d import MomentResult, _order_gate

_SYMMETRY_TOL = 1e-12

#: Largest lattice prod(k_i + 1) (|k|//2 + 1) the conditional polynomial is
#: swept over: at most 16 bytes of work space an entry (32 MB), and at most
#: about 0.1 s on a 2-core x86 container. The largest orders of the benchmark
#: decks, 5-D of total 20, span about 34 000 entries.
_MAX_LATTICE = 2_000_000


def _check_spd(mat, what: str) -> np.ndarray:
    """The symmetrized copy of a symmetric positive definite matrix.

    ``what`` names the matrix in the error messages.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError(f"{what} must be a square matrix, got shape {mat.shape}")
    top = np.abs(mat).max()
    if not math.isfinite(top):
        raise DomainError(f"{what} must have finite entries")
    scale = max(top, 1.0)
    # halves first: the sum of two entries near the double limit overflows
    half = 0.5 * mat
    if np.abs(half - half.T).max() > 0.5 * _SYMMETRY_TOL * scale:
        raise DomainError(f"{what} is not symmetric")
    mat = half + half.T
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


def _conditional_poly(k: list[int], mu: list[float], prec_inv: list[list[float]]) -> np.ndarray:
    """Coefficients of E(X^k | t) in the powers t^0, ..., t^(-|k|//2), for
    orders k that are all positive.

    The one-step recursion for the conditional normal moment, kept symbolic
    in the reciprocal mixing power, lowers the first active coordinate i:

        E(X^(k'+e_i) | t) = mu_i E(X^k' | t) + (1/t) sum_j S_ij k'_j E(X^(k'-e_j) | t)

    with S = Sigma^(-1); multiplying by 1/t shifts every power up by one, and
    a term whose weight mu_i or S_ij k'_j is zero is skipped. The recursion
    visits every multi-index below k, so it is run as a sweep over that
    lattice, one coordinate stage at a time from the last to the first.
    Stage i holds an array over (k_i, the later coordinates, power). Its
    slab at k_i = 0 is the whole of stage i+1, and its slab at k_i = q is, in
    this order, mu_i times slab q-1, plus S_ii (q-1) times slab q-2, plus,
    for each later j, S_ij k'_j times slab q-1 shifted one down along axis j,
    the last two one power up. Each term is one array operation over the
    slab, and the terms are added in the order of the scalar recursion, so
    every coefficient is the same rounded sum. A power no term reaches holds
    a zero, which enters those sums; only the sign of a sum that is zero
    (an underflow) can tell. Stage 0 is needed only at its last slab, so it
    cycles through three.
    """
    n = len(k)
    lattice = np.zeros(sum(k) // 2 + 1)
    lattice[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in reversed(range(n)):
            # slab axes: coordinates i+1, ..., n-1, then power
            cross = []
            for j in range(i + 1, n):
                if prec_inv[i][j] != 0.0:
                    axis = (slice(None),) * (j - i - 1)
                    weight = prec_inv[i][j] * np.arange(1, k[j] + 1)
                    cross.append((axis + (slice(1, None), Ellipsis, slice(1, None)),
                                  axis + (slice(None, -1), Ellipsis, slice(None, -1)),
                                  weight.reshape((k[j],) + (1,) * (n - j))))
            depth = k[i] + 1 if i else min(k[i] + 1, 3)
            stage = np.empty((depth,) + lattice.shape)
            stage[0] = lattice
            for q in range(1, k[i] + 1):
                below, slab = stage[(q - 1) % depth], stage[q % depth]
                if mu[i] != 0.0:
                    np.multiply(below, mu[i], out=slab)
                else:
                    slab.fill(0.0)
                if q > 1 and prec_inv[i][i] != 0.0:
                    shifted = slab[..., 1:]
                    shifted += stage[(q - 2) % depth][..., :-1] * (prec_inv[i][i] * (q - 1))
                for out, src, weight in cross:
                    shifted = slab[out]
                    shifted += below[src] * weight
            lattice = stage if i else stage[k[i] % depth]
    # the corner of the last slab, every later coordinate at its full order
    return lattice.reshape(-1, lattice.shape[-1])[-1]


def conditional_moment_poly(k, p: TParamsND) -> MixturePoly:
    """E(X^k | mixing value t) for X ~ N(mu, (t Sigma)^(-1)), as a 1/t polynomial.

    The maximum reciprocal power is at most ceil(total/2), reached by the
    pure covariance contributions. The polynomial comes from one sweep over
    the lattice of multi-indices below k (see :func:`_conditional_poly`):
    about sum_i k_i (n - i) array operations over at most
    prod(k_i + 1) (|k|//2 + 1) entries, holding the lattice of the
    coordinates after the first and three arrays of its size.
    Coordinates of order zero are left out first: they are never lowered and
    their weights S_ij k'_j are zero. A lattice of more than ``_MAX_LATTICE``
    entries raises ``DomainError`` before anything is allocated.

    The polynomial holds the powers some term of the recursion reached. With
    no zero among the weights mu_i and S_ij of the coordinates left, that is
    every power up to |k|//2; otherwise it is where the sweep of the
    weights' zero pattern (1 for a nonzero weight) is positive.
    """
    k = MultiIndex.of(k)
    if k.dim != p.dim:
        raise DomainError(f"order has dimension {k.dim}, parameters have {p.dim}")
    entries = math.prod(ki + 1 for ki in k.k) * (k.total // 2 + 1)
    if entries > _MAX_LATTICE:
        raise DomainError(
            f"order {k.k} spans a recursion lattice of {entries} entries, more than the "
            f"{_MAX_LATTICE} supported")
    mu, prec_inv = p.mu.tolist(), p.precision_inverse().tolist()
    active = [i for i, ki in enumerate(k.k) if ki]
    orders = [k.k[i] for i in active]
    mu = [mu[i] for i in active]
    prec_inv = [[prec_inv[i][j] for j in active] for i in active]
    coeffs = _conditional_poly(orders, mu, prec_inv).tolist()
    if all(mu) and all(map(all, prec_inv)):
        reached = range(len(coeffs))
    else:
        pattern = _conditional_poly(orders, [float(v != 0.0) for v in mu],
                                    [[float(v != 0.0) for v in row] for row in prec_inv])
        reached = np.flatnonzero(pattern).tolist()
    return MixturePoly({m: coeffs[m] for m in reached})


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
