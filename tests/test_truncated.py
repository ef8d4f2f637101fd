"""Truncated moments: normal recursion, closed 1-D and gamma-mixture t moments, literal mode."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.special import ndtr

from conftest import mp_incomplete_beta
from tmoments.errors import DomainError
from tmoments.normal_moments import NormalParams, normal_raw_moment
from tmoments.oracle import mc_moment_nd, normal_pdf, quad_moment_1d, tensor_quad
from tmoments.t1d import TParams1D, t_pdf
from tmoments.tnd import TParamsND, raw_moment_nd, raw_moment_nd_literal, t_pdf_nd
from tmoments.truncated import (Rectangle, _bvn_box, _rect_prob, _t_mixture,
                                rectangle_probability, trunc_normal_moment, trunc_t_moment,
                                trunc_t_moment_literal)

INF = math.inf


def _tangent_box(lower, upper, center, scale):
    """Integration limits and point map for ``tensor_quad``: axes with an
    infinite bound use x = center + scale tan(theta), finite ones x itself."""
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    tan = np.isinf(lower) | np.isinf(upper)
    lo = np.where(tan, np.arctan((lower - center) / scale), lower)
    hi = np.where(tan, np.arctan((upper - center) / scale), upper)

    def to_x(pts):
        x = pts.copy()
        x[:, tan] = center[tan] + scale[tan] * np.tan(pts[:, tan])
        return x, np.prod(scale[tan] / np.cos(pts[:, tan]) ** 2, axis=1)

    return lo, hi, to_x


def _normal_box_oracle(k, lower, upper, mean, cov, tol=1e-13):
    """Integral of x^k times the N(mean, cov) density over a 2-D or 3-D box.

    ``tensor_quad`` covers axes 0 and 1; in 3-D the last axis, which must
    carry order 0, is integrated exactly by erf given the first two.
    """
    mean, cov = np.asarray(mean, dtype=float), np.asarray(cov, dtype=float)
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    s = cov[:2, :2]
    prec = np.linalg.inv(s)
    log_norm = -math.log(2.0 * math.pi) - 0.5 * math.log(np.linalg.det(s))
    lo, hi, to_x = _tangent_box(lower[:2], upper[:2], mean[:2], np.sqrt(np.diag(s)))
    if mean.size == 3:
        assert k[2] == 0
        w = np.linalg.solve(s, cov[:2, 2])
        cond_sd = math.sqrt(cov[2, 2] - cov[:2, 2] @ w)

    def f(pts):
        x, jac = to_x(pts)
        d = x - mean[:2]
        val = np.exp(log_norm - 0.5 * np.einsum("ij,jk,ik->i", d, prec, d)) * jac
        val *= x[:, 0] ** k[0] * x[:, 1] ** k[1]
        if mean.size == 3:
            m = mean[2] + d @ w
            val *= ndtr((upper[2] - m) / cond_sd) - ndtr((lower[2] - m) / cond_sd)
        return val

    return tensor_quad(f, lo, hi, tol=tol).value


def _tvn_box_quadpack(a, b, mean, cov, root):
    """The scalar conditioning integral the vectorized one replaced, as its
    oracle: the box probability of N(mean, cov / root^2) as one QUADPACK
    integral over z, the standardized axis 0, of the standard normal density
    times the exact 2-D probability of the conditional pair (Genz 2004). The
    range is cut 40 sd out and split at z = 0, so that QUADPACK cannot step
    over the peak of a large ``root``.
    """
    # floats, so that an axis open both ways sums -inf + inf without a numpy warning
    a, b, mean, cov, root = (np.asarray(v, dtype=float).tolist() for v in (a, b, mean, cov, root))
    s0 = math.sqrt(cov[0][0])
    z_lo, z_hi = (a[0] - mean[0]) / s0 * root, (b[0] - mean[0]) / s0 * root
    c1, c2 = cov[0][1] / s0, cov[0][2] / s0
    s1, s2 = math.sqrt(cov[1][1] - c1 * c1), math.sqrt(cov[2][2] - c2 * c2)
    rho = (cov[1][2] - c1 * c2) / (s1 * s2)
    lo1, hi1 = (a[1] - mean[1]) / s1 * root, (b[1] - mean[1]) / s1 * root
    lo2, hi2 = (a[2] - mean[2]) / s2 * root, (b[2] - mean[2]) / s2 * root
    g1, g2 = c1 / s1, c2 / s2

    def conditional(z):
        return (math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
                * _bvn_box(lo1 - g1 * z, hi1 - g1 * z, lo2 - g2 * z, hi2 - g2 * z, rho))

    lo, hi = max(z_lo, -40.0), min(z_hi, 40.0)
    if lo >= hi:
        return 0.0
    return quad(conditional, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=500,
                points=[0.0] if lo < 0.0 < hi else None)[0]


def _cov(sd, corr):
    sd = np.asarray(sd, dtype=float)
    return np.asarray(corr, dtype=float) * np.outer(sd, sd)


class TestRectangle:
    def test_basic(self):
        r = Rectangle([-1.0, 0.0], [2.0, INF])
        assert r.dim == 2
        assert r.dropped(0).lower.tolist() == [0.0]
        full = Rectangle.full_space(3)
        assert np.all(np.isneginf(full.lower)) and np.all(np.isposinf(full.upper))

    def test_validation(self):
        with pytest.raises(DomainError):
            Rectangle([0.0], [0.0])
        with pytest.raises(DomainError):
            Rectangle([1.0], [-1.0])
        with pytest.raises(DomainError):
            Rectangle([0.0, 0.0], [1.0])

    def test_arrays_are_frozen(self):
        r = Rectangle([0.0], [1.0])
        with pytest.raises(ValueError):
            r.lower[0] = -5.0


class TestRectangleProbability:
    def test_univariate_matches_erf(self):
        mean, var = 0.4, 2.5
        got = rectangle_probability(Rectangle([-1.0], [2.0]), [mean], [[1.0 / var]])
        s = math.sqrt(var)
        ref = 0.5 * (math.erf((2.0 - mean) / (s * math.sqrt(2)))
                     - math.erf((-1.0 - mean) / (s * math.sqrt(2))))
        assert abs(got - ref) < 1e-14

    def test_diagonal_bivariate_factorizes(self):
        prec = np.diag([1.0, 4.0])
        got = rectangle_probability(Rectangle([-1.0, 0.0], [1.0, 0.5]),
                                    [0.0, 0.0], prec, tol=1e-10)
        ref = math.erf(1.0 / math.sqrt(2)) * 0.5 * math.erf(0.5 * 2.0 / math.sqrt(2))
        assert abs(got - ref) < 1e-9

    def test_full_space_is_one(self):
        assert rectangle_probability(Rectangle.full_space(2), [3.0, -1.0],
                                     [[1.0, 0.2], [0.2, 1.0]]) == 1.0

    def test_distant_rectangle_is_zero(self):
        got = rectangle_probability(Rectangle([100.0], [101.0]), [0.0], [[1.0]])
        assert got < 1e-300
        got2 = rectangle_probability(Rectangle([100.0, 100.0], [101.0, 101.0]),
                                     [0.0, 0.0], np.eye(2))
        assert got2 == 0.0

    def test_correlated_against_mc(self):
        prec = np.array([[1.0, -0.4], [-0.4, 0.8]])
        r = Rectangle([-0.5, -1.0], [1.5, 0.7])
        pq = rectangle_probability(r, [0.1, 0.2], prec, tol=1e-9)
        pmc = rectangle_probability(r, [0.1, 0.2], prec, method="mc",
                                    n_samples=400_000, seed=17)
        se = math.sqrt(pq * (1.0 - pq) / 400_000)
        assert abs(pq - pmc) <= 4.0 * se

    @pytest.mark.parametrize("lower, upper, rho", [
        ([0.4, -0.3], [2.0, 1.0], 0.35),            # a bound at the mean on both axes
        ([-INF, -1.0], [1.2, 0.5], -0.6),           # one infinite side
        ([-INF, -0.5], [0.9, INF], 0.45),           # two infinite sides
        ([-INF, -INF], [1.0, -0.2], 0.0),
        ([-1.0, -2.0], [1.5, 0.3], 0.99),
        ([0.0, -INF], [INF, 0.7], -0.99),
        ([4.0, -2.6], [5.8, 1.0], 0.5),             # 8 to 12 sd out on axis 0
        ([4.0, 3.0], [5.8, INF], -0.3),             # far out on both axes
    ])
    def test_bivariate_against_tensor_quadrature(self, lower, upper, rho):
        mean = np.array([0.4, -0.3])
        cov = _cov([0.45, 1.1], [[1.0, rho], [rho, 1.0]])
        got = rectangle_probability(Rectangle(lower, upper), mean, np.linalg.inv(cov))
        ref = _normal_box_oracle((0, 0), lower, upper, mean, cov)
        assert abs(got - ref) <= 1e-12

    @pytest.mark.parametrize("rho", [-0.8, 0.0, 0.5])
    def test_bivariate_orthant_at_the_mean(self, rho):
        # P(X > m1, Y > m2) = 1/4 + asin(rho) / (2 pi)
        prec = np.linalg.inv(_cov([2.0, 0.5], [[1.0, rho], [rho, 1.0]]))
        got = rectangle_probability(Rectangle([1.0, -2.0], [INF, INF]), [1.0, -2.0], prec)
        assert abs(got - (0.25 + math.asin(rho) / (2.0 * math.pi))) <= 1e-15

    @pytest.mark.parametrize("lower, upper", [
        ([0.2, -0.1, 0.3], [1.5, 1.4, 2.0]),        # a bound at the mean on every axis
        ([-INF, -1.0, -0.5], [1.0, 0.8, 1.6]),      # one infinite side
        ([-0.6, -INF, -0.5], [INF, 0.8, 1.1]),      # two infinite sides
        ([-INF, -INF, -1.0], [0.5, 0.0, INF]),
        ([2.6, -INF, 3.3], [3.8, 1.0, 4.5]),        # 8 to 12 sd out on two axes
    ])
    @pytest.mark.parametrize("rho", [0.3, 0.99, -0.99])
    def test_trivariate_against_tensor_quadrature(self, lower, upper, rho):
        mean = np.array([0.2, -0.1, 0.3])
        r12 = math.copysign(0.1, rho)
        cov = _cov([0.3, 0.8, 0.35], [[1.0, rho, 0.2], [rho, 1.0, r12], [0.2, r12, 1.0]])
        got = rectangle_probability(Rectangle(lower, upper), mean, np.linalg.inv(cov),
                                    tol=1e-13)
        ref = _normal_box_oracle((0, 0, 0), lower, upper, mean, cov)
        assert abs(got - ref) <= 1e-12

    @pytest.mark.parametrize("lower, upper", [
        ([0.2, -0.1, 0.3], [1.5, 1.4, 2.0]),        # finite
        ([-INF, -1.0, -0.5], [1.0, 0.8, 1.6]),      # one side of axis 0 infinite
        ([-INF, -0.3, -0.2], [INF, 0.5, 1.0]),      # both sides of axis 0 infinite
        ([-0.6, -INF, -INF], [INF, 0.8, 1.1]),
        ([2.6, -INF, 3.3], [3.8, 1.0, 4.5]),        # 8 to 12 sd out on two axes
    ])
    @pytest.mark.parametrize("rho", [0.3, 0.99, -0.99])
    def test_trivariate_scales_against_quadpack(self, lower, upper, rho):
        # the mixture asks for the 3-D mass at covariance scale * cov for a
        # whole array of scales in one conditioning integral
        mean = np.array([0.2, -0.1, 0.3])
        r12 = math.copysign(0.1, rho)
        cov = _cov([0.3, 0.8, 0.35], [[1.0, rho, 0.2], [rho, 1.0, r12], [0.2, r12, 1.0]])
        scales = np.logspace(-8.0, 3.0, 12)
        got = _rect_prob(np.array(lower), np.array(upper), mean, cov, 1e-13)(scales)
        ref = [_tvn_box_quadpack(lower, upper, mean, cov, s ** -0.5) for s in scales]
        assert np.all(np.abs(got - ref) <= 1e-12), np.abs(got - ref)

    def test_high_dimension_needs_mc(self):
        r = Rectangle([-1.0] * 4, [1.0] * 4)
        prec = np.diag([1.0, 2.0, 0.5, 1.5])
        with pytest.raises(DomainError, match="method='mc'"):
            rectangle_probability(r, np.zeros(4), prec)
        # quadrature has no 4-D rule either: it must not fall back to 2-D
        with pytest.raises(DomainError, match="method='mc'"):
            rectangle_probability(r, np.zeros(4), prec, method="quad")
        got = rectangle_probability(r, np.zeros(4), prec, method="mc",
                                    n_samples=400_000, seed=11)
        ref = 1.0
        for d in np.diag(prec):
            ref *= math.erf(math.sqrt(d) / math.sqrt(2.0))
        assert abs(got - ref) <= 4.0 * math.sqrt(ref * (1.0 - ref) / 400_000)

    def test_input_validation(self):
        with pytest.raises(DomainError, match="method"):
            rectangle_probability(Rectangle([0.0], [1.0]), [0.0], [[1.0]],
                                  method="bogus")
        with pytest.raises(DomainError, match="not symmetric"):
            rectangle_probability(Rectangle([0.0] * 2, [1.0] * 2), [0.0, 0.0],
                                  [[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(DomainError, match="positive definite"):
            rectangle_probability(Rectangle([0.0] * 2, [1.0] * 2), [0.0, 0.0],
                                  [[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(DomainError, match="does not match"):
            rectangle_probability(Rectangle([0.0], [1.0]), [0.0, 0.0], np.eye(2))


class TestTruncNormal:
    def test_half_line_first_moment(self):
        # int_0^inf x phi(x) dx = phi(0) = 1/sqrt(2 pi)
        got = trunc_normal_moment((1,), Rectangle([0.0], [INF]), [0.0], [[1.0]])
        assert math.isclose(got, 1.0 / math.sqrt(2.0 * math.pi), rel_tol=1e-13)

    def test_full_space_reduces_to_plain_moments(self):
        mean = np.array([0.7, -0.4])
        prec = np.diag([2.0, 0.5])
        got = trunc_normal_moment((2, 1), Rectangle.full_space(2), mean, prec)
        ref = (normal_raw_moment(NormalParams(mean[0], 1.0 / prec[0, 0]), 2)
               * normal_raw_moment(NormalParams(mean[1], 1.0 / prec[1, 1]), 1))
        assert math.isclose(got, ref, rel_tol=1e-12)

    @pytest.mark.parametrize("bounds", [(-1.0, 2.0), (0.3, INF), (-INF, 1.1)])
    @pytest.mark.parametrize("k", range(0, 5))
    def test_univariate_against_quadrature(self, bounds, k):
        mean, var = 0.5, 1.8
        lo, hi = bounds
        got = trunc_normal_moment((k,), Rectangle([lo], [hi]), [mean], [[1.0 / var]])

        def integrand(x):
            return x ** k * normal_pdf(x, mean, var)

        s = math.sqrt(var)
        ref = quad(integrand, max(lo, mean - 13 * s), min(hi, mean + 13 * s),
                   epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))

    def test_bivariate_against_tensor_quadrature(self):
        mean = np.array([0.2, -0.3])
        prec = np.array([[1.4, 0.5], [0.5, 1.1]])
        cov = np.linalg.inv(prec)
        r = Rectangle([-1.0, -2.0], [1.5, 0.8])
        log_norm = -math.log(2.0 * math.pi) + 0.5 * math.log(np.linalg.det(prec))

        def make_f(k):
            def f(pts):
                d = pts - mean
                q = np.einsum("ij,jk,ik->i", d, prec, d)
                dens = np.exp(log_norm - 0.5 * q)
                return pts[:, 0] ** k[0] * pts[:, 1] ** k[1] * dens
            return f

        for k in [(0, 0), (1, 0), (1, 1), (2, 0), (2, 2)]:
            got = trunc_normal_moment(k, r, mean, prec)
            ref = tensor_quad(make_f(k), r.lower, r.upper, tol=1e-11).value
            assert abs(got - ref) <= 1e-8 * max(1.0, abs(ref)), k

    def test_trivariate_against_tensor_quadrature(self):
        mean = np.array([0.2, -0.3, 0.1])
        cov = _cov([0.9, 1.2, 0.7], [[1.0, 0.4, -0.3], [0.4, 1.0, 0.25], [-0.3, 0.25, 1.0]])
        lower, upper = np.array([-1.0, -INF, -0.5]), np.array([1.2, 0.8, INF])
        prec = np.linalg.inv(cov)
        r = Rectangle(lower, upper)
        # the oracle integrates the last axis exactly, so the axis that carries
        # the order is moved to the front
        for k, perm in [((0, 0, 0), [0, 1, 2]), ((1, 0, 0), [0, 1, 2]),
                        ((0, 1, 0), [0, 1, 2]), ((0, 0, 1), [2, 0, 1])]:
            got = trunc_normal_moment(k, r, mean, prec)
            ref = _normal_box_oracle([k[i] for i in perm], lower[perm], upper[perm],
                                     mean[perm], cov[np.ix_(perm, perm)], tol=1e-12)
            assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref)), k

    def test_symmetric_box_kills_odd_moments(self):
        got = trunc_normal_moment((1, 0), Rectangle([-2.0, -1.0], [2.0, 1.0]),
                                  [0.0, 0.0], np.eye(2))
        assert abs(got) < 1e-15

    def test_dimension_check(self):
        with pytest.raises(DomainError, match="dimensions"):
            trunc_normal_moment((1, 1), Rectangle([0.0], [1.0]), [0.0], [[1.0]])


def _t_box_oracle(k, r: Rectangle, p: TParamsND, tol: float, max_refine: int) -> float:
    """Integral of x^k times the t density over a box by ``tensor_quad``."""
    lo, hi, to_x = _tangent_box(r.lower, r.upper, p.mu,
                                np.sqrt(np.diag(p.precision_inverse())))

    def f(pts):
        x, jac = to_x(pts)
        return np.prod(x ** np.asarray(k, dtype=float), axis=1) * t_pdf_nd(x, p) * jac

    return tensor_quad(f, lo, hi, tol=tol, max_refine=max_refine).value


def _conditional_box_oracle(k, r: Rectangle, p: TParamsND) -> tuple[float, float]:
    """Integral of x1^k1 x2^k2 times the 2-D t density over a box and its
    reported error: QUADPACK over x1 (tangent-substituted) of the marginal
    density times the closed 1-D truncated moment of X2 given x1.

    Given X1 = x1, X2 is a 1-D t with nu + 1 degrees of freedom, location
    m2 + c12 (x1 - m1)/c11 and precision-like (nu + 1)/((nu + d) c22.1), with
    c = Sigma^(-1), d = (x1 - m1)^2/c11 and c22.1 = c22 - c12^2/c11.
    """
    c, m, nu = p.precision_inverse(), p.mu, p.nu
    c221 = c[1, 1] - c[0, 1] ** 2 / c[0, 0]
    marginal = TParams1D(m[0], 1.0 / c[0, 0], nu)
    inner = Rectangle([r.lower[1]], [r.upper[1]])
    scale = math.sqrt(nu * c[0, 0])

    def f(theta):
        x1 = m[0] + scale * math.tan(theta)
        cond = TParamsND([m[1] + c[0, 1] / c[0, 0] * (x1 - m[0])],
                         [[(nu + 1.0) / ((nu + (x1 - m[0]) ** 2 / c[0, 0]) * c221)]], nu + 1.0)
        return (x1 ** k[0] * t_pdf(x1, marginal) * trunc_t_moment((k[1],), inner, cond).value
                * scale / math.cos(theta) ** 2)

    lo, hi = (math.atan((v - m[0]) / scale) for v in (r.lower[0], r.upper[0]))
    # the integrand behaves like cos(theta)^(nu - 1 - |k|) at an open end, so
    # QUADPACK may stop short of 1e-13 with a warning; its error goes along
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, error = quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[:2]
    return value, error


class TestTruncT:
    def test_half_line_first_moment_two_dof(self):
        # int_0^inf t f(t) dt = sqrt(2)/2 for the standard density at nu = 2
        p = TParamsND([0.0], [[1.0]], 2.0)
        got = trunc_t_moment((1,), Rectangle([0.0], [INF]), p)
        assert abs(got.value - math.sqrt(2.0) / 2.0) < 1e-10

    def test_interval_probability_two_dof(self):
        # P(0 < T < 1) = 1/(2 sqrt(3)) at nu = 2
        p = TParamsND([0.0], [[1.0]], 2.0)
        got = trunc_t_moment((0,), Rectangle([0.0], [1.0]), p)
        assert abs(got.value - 1.0 / (2.0 * math.sqrt(3.0))) < 1e-10

    def test_full_space_mass_is_one(self):
        p = TParamsND([0.3, -0.2], [[1.5, 0.3], [0.3, 1.0]], 5.0)
        got = trunc_t_moment((0, 0), Rectangle.full_space(2), p)
        assert abs(got.value - 1.0) < 1e-7

    @pytest.mark.parametrize("bounds", [(-1.0, 2.0), (0.0, INF), (-INF, 1.5), (-INF, INF)])
    @pytest.mark.parametrize("k", range(0, 5))
    def test_univariate_against_quadrature(self, bounds, k):
        p1 = TParams1D(0.5, 2.0, 7.0)
        pn = TParamsND([0.5], [[2.0]], 7.0)
        got = trunc_t_moment((k,), Rectangle([bounds[0]], [bounds[1]]), pn)
        ref = quad_moment_1d("raw", k, p1, bounds=bounds, tol=1e-11)
        assert abs(got.value - ref.value) <= 1e-7 * max(1.0, abs(ref.value))

    def test_full_space_matches_recursion_route(self):
        p = TParamsND([0.4, -0.3], [[1.5, 0.4], [0.4, 1.1]], 9.0)
        for k in [(1, 0), (1, 1), (2, 1), (2, 2)]:
            got = trunc_t_moment(k, Rectangle.full_space(2), p)
            ref = raw_moment_nd(k, p)
            assert abs(got.value - ref.value) <= 1e-8 * max(1.0, abs(ref.value))

    def test_bivariate_against_mc(self):
        p = TParamsND([0.2, -0.1], [[1.2, 0.4], [0.4, 0.9]], 9.0)
        r = Rectangle([-1.0, -INF], [2.0, 1.0])
        for k in [(0, 0), (1, 0), (1, 1), (2, 1)]:
            got = trunc_t_moment(k, r, p)
            est = mc_moment_nd(k, p, rect=r, n_samples=400_000, seed=5)
            assert abs(got.value - est.value) <= 4.0 * est.std_error, k

    def test_bivariate_error_bound_holds(self):
        # the reported quad_abs_error bounds the whole error: the rectangle
        # probabilities inside the mixture are exact in 2-D
        p = TParamsND([0.3, -0.2], [[1.3, 0.5], [0.5, 0.9]], 9.0)
        r = Rectangle([-0.4, -1.0], [INF, 1.2])
        for k in [(0, 0), (1, 1), (2, 1)]:
            got = trunc_t_moment(k, r, p)
            ref = _t_box_oracle(k, r, p, tol=1e-13, max_refine=6)
            assert abs(got.value - ref) <= got.diagnostics["quad_abs_error"] + 1e-12, k

    def test_trivariate_against_tensor_quadrature(self):
        p = TParamsND([0.2, -0.1, 0.3], [[1.2, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 0.9]],
                      8.0)
        r = Rectangle([-1.0, -0.5, -1.2], [1.5, 1.0, 0.8])
        for k in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            got = trunc_t_moment(k, r, p)
            ref = _t_box_oracle(k, r, p, tol=1e-10, max_refine=2)
            assert abs(got.value - ref) <= 1e-9 * max(1.0, abs(ref)), k

    def test_trivariate_open_box_against_tensor_quadrature(self):
        # axis 0, the axis the 3-D mass conditions on, is open below
        p = TParamsND([0.2, -0.1, 0.3], [[1.2, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 0.9]],
                      8.0)
        r = Rectangle([-INF, -0.5, -1.2], [1.5, 1.0, 0.8])
        for k in [(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1)]:
            got = trunc_t_moment(k, r, p)
            ref = _t_box_oracle(k, r, p, tol=1e-10, max_refine=2)
            assert abs(got.value - ref) <= got.diagnostics["quad_abs_error"] + 1e-10, k
            assert abs(got.value - ref) <= 1e-9 * max(1.0, abs(ref)), k

    def test_undefined_order(self):
        p = TParamsND([0.0], [[1.0]], 3.0)
        res = trunc_t_moment((3,), Rectangle([0.0], [INF]), p)
        assert not res.defined
        assert math.isnan(res.value)
        assert res.reason == "order ≥ degrees of freedom"
        p2 = TParamsND([0.0, 0.0], np.eye(2), 3.0)
        assert not trunc_t_moment((2, 1), Rectangle([0.0, -1.0], [1.0, INF]), p2).defined

    def test_bounded_box_has_every_order(self):
        p = TParamsND([0.0], [[1.0]], 3.0)
        ref = quad_moment_1d("raw", 3, TParams1D(0.0, 1.0, 3.0), bounds=(0.0, 1.0), tol=1e-13)
        res = trunc_t_moment((3,), Rectangle([0.0], [1.0]), p)
        assert res.defined and res.diagnostics["quadrature_panels"] > 0
        assert math.isclose(res.value, ref.value, rel_tol=1e-14)
        assert math.isclose(res.value, 0.062325646146132965, rel_tol=1e-14)
        for k, nu in [(5, 0.7), (8, 3.5)]:
            q = TParamsND([0.4], [[1.3]], nu)
            got = trunc_t_moment((k,), Rectangle([-1.2], [2.5]), q).value
            ref = quad_moment_1d("raw", k, TParams1D(0.4, 1.3, nu), bounds=(-1.2, 2.5), tol=1e-13)
            assert math.isclose(got, ref.value, rel_tol=1e-13), (k, nu)
        # 2-D and 3-D bounded boxes go through the mixture
        p2 = TParamsND([0.2, -0.1], [[1.2, 0.4], [0.4, 0.9]], 1.5)
        r2 = Rectangle([-1.0, -0.5], [1.5, 2.0])
        for k in [(2, 0), (1, 1), (1, 2)]:
            got = trunc_t_moment(k, r2, p2)
            ref = _t_box_oracle(k, r2, p2, tol=1e-13, max_refine=6)
            assert abs(got.value - ref) <= got.diagnostics["quad_abs_error"] + 1e-13, k
            assert abs(got.value - ref) <= 1e-9, k

    def test_result_metadata(self):
        p = TParamsND([0.0], [[1.0]], 5.0)
        res = trunc_t_moment((1,), Rectangle([0.0], [2.0]), p)
        assert res.formula == "trunc-recurrence"
        assert res.mode == "corrected"
        assert res.diagnostics["beta_terms"] > 0
        assert 0 < res.diagnostics["beta_error"] < 1e-15
        assert 0 < res.diagnostics["recurrence_error"] < 1e-15
        assert "quadrature_panels" not in res.diagnostics
        p2 = TParamsND([0.0, 0.0], np.eye(2), 5.0)
        res = trunc_t_moment((1, 0), Rectangle([0.0, -1.0], [2.0, 1.0]), p2)
        assert res.formula == "trunc-mixture"
        assert res.mode == "corrected"
        assert res.diagnostics["quad_abs_error"] < 1e-9
        assert res.diagnostics["quad_evaluations"] > 0

    def test_single_panel_error_bound_regression(self):
        # QUADPACK once accepted one 21-point panel here with a reported error
        # of 9.1e-10 while the true error was 2.4e-7; the mixture route is the
        # 1-D oracle and the 2-D and 3-D route
        mu, sigma, nu = -0.2519651044839989, 1.4103820777639569, 19.01795762817592
        bounds = (-1.1988787579428704, 0.4695423072698557)
        ref = quad_moment_1d("raw", 2, TParams1D(mu, sigma, nu), bounds=bounds, tol=1e-12)
        mixed = _t_mixture((2,), np.array([bounds[0]]), np.array([bounds[1]]), np.array([mu]),
                           np.array([[1.0 / sigma]]), nu, 1e-9)
        assert abs(mixed.value - ref.value) <= 1e-10
        assert abs(mixed.value - ref.value) <= mixed.est_abs_error + 1e-12
        got = trunc_t_moment((2,), Rectangle([bounds[0]], [bounds[1]]),
                             TParamsND([mu], [[sigma]], nu))
        assert abs(got.value - ref.value) <= 1e-12

    def test_dimension_check(self):
        p = TParamsND([0.0, 0.0], np.eye(2), 5.0)
        with pytest.raises(DomainError, match="dimensions"):
            trunc_t_moment((1,), Rectangle.full_space(2), p)
        with pytest.raises(DomainError, match="dimensions"):
            trunc_t_moment((1, 1), Rectangle([0.0], [1.0]), p)


def _mp_box_moments(kmax, boxes, mu, sigma, nu):
    """{(a, b): [F_0 .. F_kmax]} over the 1-D t at 50 digits.

    The box's standardized moments integral x^j f(x) are incomplete betas,
    int_0^z x^j f = E|X|^j I_(z^2/(nu+z^2))((j+1)/2, (nu-j)/2) / 2 and
    int_z^inf x^j f = E|X|^j I_(nu/(nu+z^2))((nu-j)/2, (j+1)/2) / 2, taken
    as centres or as tails so no small value is a difference; the binomial
    expansion of t^k = (mu + x/sqrt(sigma))^k then cancels harmlessly at 50
    digits.
    """
    with mpmath.workdps(50):
        nu, mu, sd = mpmath.mpf(nu), mpmath.mpf(mu), 1 / mpmath.sqrt(mpmath.mpf(sigma))
        scale = [nu ** (mpmath.mpf(j) / 2) * mpmath.gamma(mpmath.mpf(j + 1) / 2)
                 * mpmath.gamma((nu - j) / 2) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(nu / 2))
                 for j in range(kmax + 1)]
        halves = {}

        def half(j, z, tail):
            # integral of x^j f over [z, inf) (tail) or [0, z], for z >= 0
            key = (j, z, tail)
            if key not in halves:
                if mpmath.isinf(z) or z == 0:
                    val = scale[j] / 2 if (z == 0) == tail else mpmath.mpf(0)
                elif tail:
                    val = scale[j] * mp_incomplete_beta((nu - j) / 2, mpmath.mpf(j + 1) / 2,
                                                        nu / (nu + z * z)) / 2
                else:
                    val = scale[j] * mp_incomplete_beta(mpmath.mpf(j + 1) / 2, (nu - j) / 2,
                                                        z * z / (nu + z * z)) / 2
                halves[key] = val
            return halves[key]

        def box(j, za, zb):
            if za >= 0:
                return half(j, za, True) - half(j, zb, True)
            if zb <= 0:
                return (-1) ** j * (half(j, -zb, True) - half(j, -za, True))
            if j % 2:
                return half(j, -za, True) - half(j, zb, True)
            return half(j, zb, False) + half(j, -za, False)

        out = {}
        for a, b in boxes:
            za = -mpmath.inf if a == -INF else (mpmath.mpf(a) - mu) / sd
            zb = mpmath.inf if b == INF else (mpmath.mpf(b) - mu) / sd
            m = [box(j, za, zb) for j in range(kmax + 1)]
            out[(a, b)] = [float(mpmath.fsum(mpmath.binomial(k, j) * mu ** (k - j) * sd ** j * m[j]
                                             for j in range(k + 1))) for k in range(kmax + 1)]
        return out


class TestMixtureRule:
    """The Gauss-Kronrod mixing rule of the 2-D route."""

    @pytest.mark.parametrize("rho", [0.3, 0.99, -0.99])
    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.7, 2.5, 7.0, 30.0])
    def test_grid(self, nu, rho):
        # asked for 1e-12, the rule must deliver it and bound its error
        cov = _cov([1.2, 0.8], [[1.0, rho], [rho, 1.0]])
        p = TParamsND([0.3, -0.2], np.linalg.inv(cov), nu)
        marginal = TParamsND([0.3], [[1.0 / cov[0, 0]]], nu)
        boxes = {"finite": Rectangle([-0.7, -1.2], [1.3, 0.4]),
                 "quadrant": Rectangle([0.0, 0.0], [INF, INF]),
                 "half-plane": Rectangle([0.0, -INF], [INF, INF])}
        orders = [(i, j) for i in range(3) for j in range(3 - i) if i + j < nu]
        for name, r in boxes.items():
            for k in orders:
                got = trunc_t_moment(k, r, p, tol=1e-12)
                bound = got.diagnostics["quad_abs_error"]
                if name == "finite":
                    ref, ref_error = _t_box_oracle(k, r, p, tol=1e-12, max_refine=6), 1e-12
                else:
                    ref, ref_error = _conditional_box_oracle(k, r, p)
                where = (name, k)
                assert abs(got.value - ref) <= bound + ref_error, where
                assert abs(got.value - ref) <= 1e-12 * max(1.0, abs(ref)) + ref_error, where
                if name == "half-plane" and k[1] == 0:
                    exact = trunc_t_moment(k[:1], Rectangle([0.0], [INF]), marginal).value
                    assert abs(got.value - exact) <= bound + 1e-14, where

    def test_large_nu(self):
        # the mixing law is a peak of width sqrt(2/nu) at t = 1, which the
        # starting nodes missed (0.0 with a reported error of 0.0 at 1e8 and
        # up); the moment is the normal one up to O(1/nu)
        r = Rectangle([-1.0, -1.5], [2.0, 1.0])
        sigma = [[1.5, 0.4], [0.4, 1.1]]
        normal = trunc_normal_moment((1, 1), r, [0.4, -0.3], sigma)
        for nu in (1e10, 1e12):
            got = trunc_t_moment((1, 1), r, TParamsND([0.4, -0.3], sigma, nu))
            assert abs(got.value - normal) <= 1e-9, nu
        # at 1e15 the peak is too narrow for the rule's error estimate (see
        # test_error_bound_up_to_the_normal_limit), and the normal moment answers
        got = trunc_t_moment((1, 1), r, TParamsND([0.4, -0.3], sigma, 1e15))
        assert got.formula == "trunc-normal-limit"
        assert got.value == normal

    def test_error_bound_up_to_the_normal_limit(self):
        # nu from 1e7 to 1e18: every mixture result lies within its reported
        # error of the t moment, which is g(1) + g''(1)/nu + O(nu^-2) for the
        # normal moment g(t) at precision t Sigma (the gamma law has variance
        # 2/nu), and above the switch the normal moment answers. With the
        # switch at 3e17 the error estimate fell short of the error from 3e12
        # (half-plane) and 3e13 (bounded box) on.
        mu, sigma = [0.4, -0.3], np.array([[1.5, 0.4], [0.4, 1.1]])
        boxes = {"bounded": Rectangle([-1.0, -1.5], [2.0, 1.0]),
                 "half-plane": Rectangle([-1.0, -INF], [2.0, 1.0]),
                 "quadrant": Rectangle([0.0, 0.0], [INF, INF]),
                 "far": Rectangle([1.5, -3.0], [4.0, -1.0])}
        for name, r in boxes.items():
            for k in [(0, 0), (1, 0), (1, 1), (2, 1), (0, 2)]:
                g0 = trunc_normal_moment(k, r, mu, sigma)
                h = 1e-3
                g2 = (trunc_normal_moment(k, r, mu, (1.0 + h) * sigma) - 2.0 * g0
                      + trunc_normal_moment(k, r, mu, (1.0 - h) * sigma)) / h ** 2
                formulas = []
                for nu in 10.0 ** np.arange(7.0, 18.01, 0.5):
                    got = trunc_t_moment(k, r, TParamsND(mu, sigma, nu))
                    formulas.append(got.formula)
                    where = (name, k, nu)
                    if got.formula == "trunc-mixture":
                        bound = got.diagnostics["quad_abs_error"]
                        assert abs(got.value - (g0 + g2 / nu)) <= bound + 1e-13, where
                    else:
                        assert got.formula == "trunc-normal-limit", where
                        assert got.value == g0, where
                # the switch: 3.2e11 on an open box, 1.3e12 on a bounded one
                bounded = np.isfinite(r.lower).all() and np.isfinite(r.upper).all()
                assert formulas.count("trunc-mixture") == (11 if bounded else 10), name

    @pytest.mark.parametrize("nu", [1e20, 1e300])
    def test_normal_limit(self, nu):
        # beyond the resolution of the mixing rule, which raised NonConvergenceError here,
        # the normal moment answers: it is the t moment up to O(1/nu)
        r = Rectangle([-1.0, -1.5], [2.0, 1.0])
        sigma = [[1.5, 0.4], [0.4, 1.1]]
        p = TParamsND([0.4, -0.3], sigma, nu)
        got = trunc_t_moment((1, 1), r, p)
        assert got.formula == "trunc-normal-limit"
        assert got.value == trunc_normal_moment((1, 1), r, [0.4, -0.3], sigma)
        assert got.value == -0.1425612355349587
        half_plane = Rectangle([-1.0, -INF], [2.0, 1.0])
        assert (trunc_t_moment((2, 1), half_plane, p).value
                == trunc_normal_moment((2, 1), half_plane, [0.4, -0.3], sigma))
        assert trunc_t_moment_literal((1, 1), r, p).value == got.value
        r3 = Rectangle([-1.0, -0.5, -1.2], [1.5, 1.0, 0.8])
        sigma3 = np.eye(3) + 0.2
        got3 = trunc_t_moment((1, 0, 1), r3, TParamsND([0.1, 0.2, -0.1], sigma3, nu))
        assert got3.formula == "trunc-normal-limit"
        ref3 = trunc_normal_moment((1, 0, 1), r3, [0.1, 0.2, -0.1], sigma3)
        assert abs(got3.value - ref3) <= 1e-12 * abs(ref3)


class TestTruncT1D:
    """The closed 1-D route: incomplete-beta mass, t-level recurrence, and
    Gauss-Legendre panels where the recurrence's rounding bound is too large."""

    @pytest.mark.parametrize("sigma", [1.0, 2.5])
    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0, 3.5, 7.0, 38.0, 1e3, 1e6])
    def test_grid_against_mpmath(self, nu, sigma):
        # bounds at 0, +-0.5, +-sqrt(nu/sigma), +-10 sqrt(nu/sigma) and +-inf,
        # every order k < nu up to 12
        s = math.sqrt(nu / sigma)
        points = sorted({0.0, 0.5, -0.5, s, -s, 10.0 * s, -10.0 * s, -INF, INF})
        kmax = min(12, math.ceil(nu) - 1)
        atol = 1e-11 if nu <= 1e3 else 1e-9
        boxes = [(a, b) for i, a in enumerate(points) for b in points[i + 1:]]
        for mu in (0.0, -1.98, 3.0):
            p = TParamsND([mu], [[sigma]], nu)
            for (a, b), refs in _mp_box_moments(kmax, boxes, mu, sigma, nu).items():
                one_sided = (a >= mu and a >= 0.0) or (b <= mu and b <= 0.0)
                for k, ref in enumerate(refs):
                    got = trunc_t_moment((k,), Rectangle([a], [b]), p).value
                    where = (k, a, b, mu)
                    assert abs(got - ref) <= atol * max(1.0, abs(ref)), where
                    if nu <= 1e3 and one_sided and k % 2 == 0:
                        assert abs(got - ref) <= 1e-8 * abs(ref), where

    def test_far_box(self):
        # the binomial expansion about mu was 6.9e-9 off here
        p = TParamsND([-1.98], [[1.0]], 38.0)
        got = trunc_t_moment((6,), Rectangle([1.77], [4.6]), p).value
        ref = _mp_box_moments(6, [(1.77, 4.6)], -1.98, 1.0, 38.0)[(1.77, 4.6)][6]
        assert abs(got - ref) <= 1e-14 * ref

    def test_far_bounds(self):
        # z^2 overflows past about 1.3e154; such a bound must not act as an
        # infinite one (the moment was 0.0 with zero reported errors)
        c = math.gamma(2.0) / (math.gamma(1.5) * math.sqrt(3.0 * math.pi))
        p = TParamsND([0.0], [[1.0]], 3.0)
        res = trunc_t_moment((2,), Rectangle([1e200], [INF]), p)
        assert math.isclose(res.value, 9.0 * c / 1e200, rel_tol=1e-12)
        assert res.diagnostics["recurrence_error"] <= 1e-12 * res.value
        # k = nu on a bounded box: t^3 f ~ 9c/t, so the panels past the
        # underflow of f carry most of the integral 4.5c (ln(1 + x^2/3) + 1/(1 + x^2/3) - 1)
        got = trunc_t_moment((3,), Rectangle([0.0], [1e200]), p).value
        ref = 4.5 * c * (2.0 * math.log(1e200) - math.log(3.0) - 1.0)
        assert math.isclose(got, ref, rel_tol=1e-12)

    def test_short_reach_uses_panels(self):
        # [-0.5, 0] lies 3 to 3.5 scale units below mu: the moments shrink with
        # k while the recurrence's solutions grow, and it kept 2 digits at k = 12
        p = TParamsND([3.0], [[1.0]], 38.0)
        res = trunc_t_moment((12,), Rectangle([-0.5], [0.0]), p)
        assert res.diagnostics["recurrence_error"] > 1e-12 * res.value
        assert res.diagnostics["quadrature_panels"] > 0
        ref = _mp_box_moments(12, [(-0.5, 0.0)], 3.0, 1.0, 38.0)[(-0.5, 0.0)][12]
        assert abs(res.value - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("k, bounds, mu, sigma, nu", [
        (2, (-1.0, 2.0), 0.2, 1.3, 7.0),
        (3, (0.4, INF), -0.7, 0.6, 9.5),
        (4, (-INF, -0.2), 1.1, 2.0, 12.0),
        (1, (-2.5, 3.0), -0.4, 0.8, 4.0),
        (0, (0.3, 0.9), 0.0, 1.0, 0.7),
    ])
    def test_against_mixture_route(self, k, bounds, mu, sigma, nu):
        lo, hi = bounds
        got = trunc_t_moment((k,), Rectangle([lo], [hi]), TParamsND([mu], [[sigma]], nu)).value
        mixed = _t_mixture((k,), np.array([lo]), np.array([hi]), np.array([mu]),
                           np.array([[1.0 / sigma]]), nu, 1e-11).value
        assert abs(got - mixed) <= 1e-9 * max(1.0, abs(mixed))


class TestTruncTLiteral:
    def test_requires_more_than_two_dof(self):
        p = TParamsND([0.0], [[1.0]], 2.0)
        with pytest.raises(DomainError, match="nu > 2"):
            trunc_t_moment_literal((1,), Rectangle([0.0], [1.0]), p)

    def test_full_space_first_moment_is_location(self):
        p = TParamsND([1.7], [[2.0]], 5.0)
        got = trunc_t_moment_literal((1,), Rectangle.full_space(1), p)
        assert abs(got.value - 1.7) < 1e-9

    def test_full_space_agrees_up_to_total_degree_two(self):
        p = TParamsND([0.4, -0.3], [[1.5, 0.4], [0.4, 1.1]], 7.0)
        full = Rectangle.full_space(2)
        for k in [(1, 0), (0, 1), (1, 1), (2, 0)]:
            a = trunc_t_moment(k, full, p).value
            b = trunc_t_moment_literal(k, full, p).value
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))

    @pytest.mark.parametrize("nu", [4.0, 6.0, 9.0])
    def test_half_line_first_moment_is_biased(self, nu):
        # the averaged coefficient overweights the tail: the deviation from the
        # exact mixture route is large and shrinks as nu grows
        p = TParamsND([0.0], [[1.0]], nu)
        r = Rectangle([0.0], [INF])
        exact = trunc_t_moment((1,), r, p).value
        lit = trunc_t_moment_literal((1,), r, p).value
        assert (lit - exact) / exact > 0.05

    def test_truncated_cross_moment_deviates(self):
        p = TParamsND([0.4, -0.3], [[1.5, 0.4], [0.4, 1.1]], 7.0)
        r = Rectangle([-1.0, -INF], [2.0, 1.0])
        exact = trunc_t_moment((1, 1), r, p).value
        lit = trunc_t_moment_literal((1, 1), r, p).value
        assert abs(lit - exact) / abs(exact) > 0.01

    def test_metadata_and_gate(self):
        p = TParamsND([0.0], [[1.0]], 5.0)
        res = trunc_t_moment_literal((1,), Rectangle([0.0], [2.0]), p)
        assert res.formula == "trunc-literal"
        assert res.mode == "literal"
        assert not trunc_t_moment_literal((5,), Rectangle([0.0], [2.0]), p).defined

    def test_dimension_check(self):
        p = TParamsND([0.0, 0.0], np.eye(2), 5.0)
        with pytest.raises(DomainError, match="dimensions"):
            trunc_t_moment_literal((1,), Rectangle.full_space(2), p)

    def test_pinned_values(self):
        # the comparison mode has no oracle, so a change to the recursion must
        # leave these values in place to relative 1e-12; they are the masses'
        # converged values (QUADPACK at tol 1e-14), not those of a rule at 1e-9
        p1 = TParamsND([0.3], [[1.7]], 6.5)
        p2 = TParamsND([0.4, -0.3], [[1.5, 0.4], [0.4, 1.1]], 7.0)
        cases = [((3,), Rectangle([-0.8], [1.9]), p1, 0.7288794877358197),
                 ((2, 1), Rectangle([-1.0, -1.5], [2.0, 1.0]), p2, -0.23011617728654102),
                 ((1, 2), Rectangle([-0.5, -INF], [1.5, 0.7]), p2, 0.510066711706079)]
        for k, r, p, ref in cases:
            got = trunc_t_moment_literal(k, r, p).value
            assert math.isclose(got, ref, rel_tol=1e-12), k

    def test_full_space_matches_untruncated_literal(self):
        # degree 3-4: the averaged coefficient multiplies exponent-decrement terms
        p = TParamsND([0.4, -0.3], [[1.5, 0.4], [0.4, 1.1]], 9.0)
        for k in [(2, 1), (2, 2)]:
            got = trunc_t_moment_literal(k, Rectangle.full_space(2), p).value
            ref = raw_moment_nd_literal(k, p).value
            assert abs(got - ref) <= 1e-8 * max(1.0, abs(ref)), k


class TestDimensionGuard:
    def test_bounded_four_dimensional_box_is_rejected(self):
        r = Rectangle([0.0, -INF, -INF, -INF], [INF] * 4)
        p = TParamsND(np.zeros(4), np.eye(4), 10.0)
        with pytest.raises(DomainError, match="n <= 3"):
            trunc_t_moment((1, 0, 0, 0), r, p)
        with pytest.raises(DomainError, match="n <= 3"):
            trunc_t_moment_literal((1, 0, 0, 0), r, p)
        with pytest.raises(DomainError, match="n <= 3"):
            trunc_normal_moment((1, 0, 0, 0), r, np.zeros(4), np.eye(4))

    def test_four_dimensional_full_space_still_works(self):
        p = TParamsND([0.2, 0.0, -0.1, 0.3], np.eye(4), 10.0)
        got = trunc_t_moment((1, 1, 0, 2), Rectangle.full_space(4), p)
        ref = raw_moment_nd((1, 1, 0, 2), p)
        assert abs(got.value - ref.value) <= 1e-8 * max(1.0, abs(ref.value))
