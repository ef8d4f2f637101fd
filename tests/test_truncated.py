"""Truncated moments: normal recursion, gamma-mixture t moments, literal mode."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from tmoments.errors import DomainError
from tmoments.normal_moments import NormalParams, normal_raw_moment
from tmoments.oracle import mc_moment_nd, normal_pdf, quad_moment_1d, tensor_quad
from tmoments.t1d import TParams1D
from tmoments.tnd import TParamsND, raw_moment_nd, raw_moment_nd_literal, t_pdf_nd
from tmoments.truncated import (Rectangle, rectangle_probability, trunc_normal_moment,
                                trunc_t_moment, trunc_t_moment_literal)

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

    def test_high_dimension_needs_mc(self):
        r = Rectangle([-1.0] * 4, [1.0] * 4)
        prec = np.diag([1.0, 2.0, 0.5, 1.5])
        with pytest.raises(DomainError, match="method='mc'"):
            rectangle_probability(r, np.zeros(4), prec)
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

    def test_undefined_order(self):
        p = TParamsND([0.0], [[1.0]], 3.0)
        res = trunc_t_moment((3,), Rectangle([0.0], [1.0]), p)
        assert not res.defined
        assert math.isnan(res.value)
        assert res.reason == "order ≥ degrees of freedom"

    def test_result_metadata(self):
        p = TParamsND([0.0], [[1.0]], 5.0)
        res = trunc_t_moment((1,), Rectangle([0.0], [2.0]), p)
        assert res.formula == "trunc-mixture"
        assert res.mode == "corrected"
        assert res.diagnostics["quad_abs_error"] < 1e-9
        assert res.diagnostics["quad_evaluations"] > 0

    def test_single_panel_error_bound_regression(self):
        # QUADPACK once accepted one 21-point panel here with a reported error
        # of 9.1e-10 while the true error was 2.4e-7
        mu, sigma, nu = -0.2519651044839989, 1.4103820777639569, 19.01795762817592
        bounds = (-1.1988787579428704, 0.4695423072698557)
        got = trunc_t_moment((2,), Rectangle([bounds[0]], [bounds[1]]),
                             TParamsND([mu], [[sigma]], nu))
        ref = quad_moment_1d("raw", 2, TParams1D(mu, sigma, nu), bounds=bounds, tol=1e-12)
        assert abs(got.value - ref.value) <= 1e-10
        assert abs(got.value - ref.value) <= got.diagnostics["quad_abs_error"] + 1e-12

    def test_dimension_check(self):
        p = TParamsND([0.0, 0.0], np.eye(2), 5.0)
        with pytest.raises(DomainError, match="dimensions"):
            trunc_t_moment((1,), Rectangle.full_space(2), p)
        with pytest.raises(DomainError, match="dimensions"):
            trunc_t_moment((1, 1), Rectangle([0.0], [1.0]), p)


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
        # leave these values in place to relative 1e-12
        p1 = TParamsND([0.3], [[1.7]], 6.5)
        p2 = TParamsND([0.4, -0.3], [[1.5, 0.4], [0.4, 1.1]], 7.0)
        cases = [((3,), Rectangle([-0.8], [1.9]), p1, 0.7288794877354302),
                 ((2, 1), Rectangle([-1.0, -1.5], [2.0, 1.0]), p2, -0.2301161772724794),
                 ((1, 2), Rectangle([-0.5, -INF], [1.5, 0.7]), p2, 0.5100667117061999)]
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
