"""Sampler reproducibility and quadrature/Monte Carlo helper behavior.

The 1-D quadrature runs on the package's Gauss-Kronrod rule; QUADPACK
(``scipy.integrate.quad``) stays here as its independent check.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad as quadpack

from tmoments.errors import DomainError, EstimationError, NonConvergenceError
from tmoments.normal_moments import GammaParams
from tmoments.oracle import (DEFAULT_SEED, KINDS, McEstimate, QuadResult, _run_quad,
                             gamma_pdf, mc_moment_nd, mixture_pdf_1d, normal_pdf,
                             quad_mass_nd, quad_moment_1d, sample_t_1d, sample_t_nd,
                             tensor_quad)
from tmoments.t1d import TParams1D, central_abs_moment, raw_moment, t_pdf
from tmoments.tnd import TParamsND
from tmoments.truncated import Rectangle


class TestDensities:
    def test_normal_pdf_value(self):
        ref = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
        assert math.isclose(normal_pdf(1.0, 0.0, 1.0), ref, rel_tol=1e-15)
        arr = normal_pdf(np.array([0.0, 1.0]), 0.0, 1.0)
        assert arr.shape == (2,)

    def test_gamma_pdf_value(self):
        # shape 2, rate 3 at x = 1: 9 x exp(-3x)
        assert math.isclose(gamma_pdf(1.0, GammaParams(2.0, 3.0)),
                            9.0 * math.exp(-3.0), rel_tol=1e-14)

    def test_gamma_pdf_vanishes_at_nonpositive(self):
        p = GammaParams(2.0, 3.0)
        assert gamma_pdf(0.0, p) == 0.0
        assert gamma_pdf(-1.0, p) == 0.0
        out = gamma_pdf(np.array([-1.0, 0.0, 0.5]), p)
        assert out[0] == out[1] == 0.0 and out[2] > 0.0


class TestSamplers:
    def test_fixed_seed_reproduces_bits_1d(self):
        p = TParams1D(0.5, 2.0, 7.0)
        a = sample_t_1d(p, 1000, seed=42)
        b = sample_t_1d(p, 1000, seed=42)
        assert np.array_equal(a, b)
        c = sample_t_1d(p, 1000, seed=43)
        assert not np.array_equal(a, c)

    def test_fixed_seed_reproduces_bits_nd(self):
        p = TParamsND([0.1, -0.2], [[1.3, 0.2], [0.2, 0.9]], 12.0)
        a = sample_t_nd(p, 500, seed=7)
        b = sample_t_nd(p, 500, seed=7)
        assert a.shape == (500, 2)
        assert np.array_equal(a, b)

    def test_sample_moments_match_distribution_1d(self):
        p = TParams1D(1.5, 0.5, 10.0)
        x = sample_t_1d(p, 200_000, seed=101)
        se_mean = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - p.mu) < 4.0 * se_mean
        target_var = p.nu / (p.sigma * (p.nu - 2.0))
        sq = (x - p.mu) ** 2
        se_var = sq.std(ddof=1) / math.sqrt(x.size)
        assert abs(sq.mean() - target_var) < 4.0 * se_var

    def test_sample_covariance_matches_distribution_nd(self):
        sigma = np.array([[1.2, 0.4], [0.4, 0.9]])
        p = TParamsND([0.2, -0.1], sigma, 25.0)
        x = sample_t_nd(p, 200_000, seed=55)
        target = p.nu / (p.nu - 2.0) * np.linalg.inv(sigma)
        emp = np.cov(x.T)
        assert np.abs(emp - target).max() < 0.05


class TestQuadMoment1D:
    def test_mass_and_symmetry(self):
        p = TParams1D(0.7, 1.3, 4.0)
        full = quad_moment_1d("raw", 0, p, tol=1e-12)
        assert abs(full.value - 1.0) < 1e-11
        upper_half = quad_moment_1d("raw", 0, p, bounds=(p.mu, math.inf), tol=1e-12)
        assert abs(upper_half.value - 0.5) < 1e-11

    def test_central_first_moment_is_zero(self):
        p = TParams1D(-2.0, 0.6, 5.0)
        res = quad_moment_1d("central", 1, p, tol=1e-12)
        assert abs(res.value) < 1e-11

    def test_all_kinds_accepted(self):
        p = TParams1D(0.4, 1.0, 8.0)
        for kind in KINDS:
            res = quad_moment_1d(kind, 2, p, tol=1e-10)
            assert isinstance(res, QuadResult)
            assert res.value > 0.0
            assert res.est_abs_error <= max(1e-10, 1e-10 * abs(res.value))
            assert res.evaluations > 0

    def test_input_validation(self):
        p = TParams1D(0.0, 1.0, 5.0)
        with pytest.raises(DomainError, match="unknown kind"):
            quad_moment_1d("bogus", 2, p)
        with pytest.raises(DomainError, match="nonnegative"):
            quad_moment_1d("raw", -1, p)
        with pytest.raises(DomainError, match="empty integration range"):
            quad_moment_1d("raw", 2, p, bounds=(2.0, 2.0))

    def test_reports_nonconvergence(self):
        with pytest.raises(NonConvergenceError) as exc:
            _run_quad(lambda x: np.sin(1e6 * x), 0.0, 1.0, 1e-10)
        assert exc.value.iterations > 0
        assert exc.value.est_error > 1e-10


def quadpack_moment(kind, k, p, bounds):
    """QUADPACK on the tangent form t = mu + c tan(theta), c = sqrt(nu/sigma),
    which maps the line onto a finite interval: (value, abserr).

    Each side of mu is written from its end at theta = +-pi/2, as
    t = mu +- c cot(phi), so the nodes near that end, where a heavy tail piles
    up against an algebraic singularity, keep their full precision.
    """
    c = math.sqrt(p.nu / p.sigma)
    shift = p.mu if kind in ("central", "central-abs") else 0.0
    lo, hi = bounds
    value = abserr = 0.0
    for side in (1.0, -1.0):
        # distances from mu of the part of the range on this side
        near, far = ((max(lo - p.mu, 0.0), hi - p.mu) if side > 0
                     else (max(p.mu - hi, 0.0), p.mu - lo))
        if far <= near:
            continue

        def integrand(phi, side=side):
            t = p.mu + side * c / math.tan(phi)
            d = t - shift
            weight = d ** k if kind in ("raw", "central") else abs(d) ** k
            return weight * t_pdf(t, p) * c / math.sin(phi) ** 2

        kink = -side * p.mu
        points = [math.atan2(c, kink)] if kind == "abs" and near < kink < far else None
        part = quadpack_value(integrand, math.atan2(c, far), math.atan2(c, near), points)
        value, abserr = value + part[0], abserr + part[1]
    return value, abserr


def quadpack_value(f, lo, hi, points=None):
    with warnings.catch_warnings():
        # an IntegrationWarning still comes with QUADPACK's error estimate
        warnings.simplefilter("ignore")
        value, abserr = quadpack(f, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=500,
                                 points=points)[:2]
    return value, abserr


def assert_matches_quadpack(res, ref, tol):
    value, abserr = ref
    assert abs(res.value - value) <= max(tol, 1e-12 * abs(res.value)) + abserr, (res, ref)


def _quadpack_grid():
    """Seeded (kind, k, p, bounds): every kind with k up to 8, half of them
    with nu - k in (0.2, 1), the two far-kink cases, and finite, one-sided
    and full-line ranges."""
    rng = np.random.default_rng(20261019)
    params = [TParams1D(-2.0, 0.5, 2.5), TParams1D(161.6, 1.758, 8.36),
              TParams1D(26.9, 0.49, 4.38)]
    cases = [("raw", 2, params[0], (-math.inf, math.inf)),
             ("abs", 5, params[1], (-math.inf, math.inf)),
             ("abs", 3, params[2], (-math.inf, math.inf))]
    for kind in KINDS:
        for k in range(9):
            for heavy in (False, True):
                nu = k + (rng.uniform(0.2, 1.0) if heavy else rng.uniform(1.0, 30.0))
                p = TParams1D(float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-2, 2.5)),
                              float(10 ** rng.uniform(-1, 1)), float(nu))
                a, b = sorted(p.mu + rng.normal(0.0, 3.0, 2) / math.sqrt(p.sigma))
                bounds = [(-math.inf, math.inf), (a, math.inf), (-math.inf, b), (a, b)]
                cases.append((kind, k, p, bounds[int(rng.integers(4))]))
    return cases


class TestAgainstQuadpack:
    @pytest.mark.parametrize("kind, k, p, bounds", _quadpack_grid())
    def test_quad_moment_1d(self, kind, k, p, bounds):
        res = quad_moment_1d(kind, k, p, bounds=bounds, tol=1e-11)
        assert_matches_quadpack(res, quadpack_moment(kind, k, p, bounds), 1e-11)

    @pytest.mark.parametrize("p", [TParams1D(-2.0, 0.5, 2.5), TParams1D(0.7, 3.0, 0.8),
                                   TParams1D(1.3, 4.0, 8.0), TParams1D(-0.7, 0.8, 30.0)])
    def test_mixture_pdf_1d(self, p):
        mixing = GammaParams(p.nu / 2.0, p.nu / 2.0)
        for t in p.mu + np.array([-6.0, -1.0, 0.0, 0.5, 4.0]) / math.sqrt(p.sigma):
            res = mixture_pdf_1d(float(t), p, tol=1e-12)
            ref = quadpack_value(lambda lam: normal_pdf(t, p.mu, 1.0 / (p.sigma * lam))
                                 * gamma_pdf(lam, mixing), 0.0, math.inf)
            assert_matches_quadpack(res, ref, 1e-12)

    @pytest.mark.parametrize("tol", [1e-12, 1e-13])
    @pytest.mark.parametrize("lo, hi", [(-math.inf, 0.0), (0.0, math.inf), (-0.4, math.inf),
                                        (-math.inf, 0.9), (-1.1, 0.6)])
    @pytest.mark.parametrize("absolute", [True, False])
    def test_run_quad_on_normal_integrands(self, absolute, lo, hi, tol):
        # called the way the benchmark's reference values call it
        for k, mean, var in ((1, 0.4, 1.7), (3, -1.2, 0.3), (6, 2.5, 4.0)):
            def integrand(x):
                return (abs(x) ** k if absolute else x ** k) * normal_pdf(x, mean, var)

            assert_matches_quadpack(_run_quad(integrand, lo, hi, tol),
                                    quadpack_value(integrand, lo, hi), tol)


class TestHardRanges:
    @pytest.mark.parametrize("kind, k, p, expected", [
        # a location far beyond the scale: the density is evaluated in t - mu
        ("raw", 1, TParams1D(1e6, 1.0, 4.0), lambda p: raw_moment(1, p).value),
        # a normal-like peak 5500 scales from the kink at 0
        ("abs", 3, TParams1D(-1000.0, 30.0, 100.0), lambda p: -raw_moment(3, p).value),
        # nu - k = 0.107: the tail beyond where the density underflows
        # (about 1e75) still holds 1e-8 of the moment
        ("central-abs", 3, TParams1D(0.3, 3.2, 3.107), lambda p: central_abs_moment(3, p).value),
        # a mixing law so narrow that the t is normal to 1e-12
        ("raw", 4, TParams1D(3.0, 1.0, 1e12), lambda p: raw_moment(4, p).value),
    ])
    def test_matches_closed_form(self, kind, k, p, expected):
        res = quad_moment_1d(kind, k, p, tol=1e-11)
        ref = expected(p)
        assert abs(res.value - ref) <= 1e-12 * abs(ref) + res.est_abs_error, (res, ref)

    def test_order_above_nu_on_a_long_box(self):
        # the integrand grows like t^(k - nu - 1) = t^-0.5 up to 1e10, where
        # QUADPACK on the tangent form returns -6.09 with an error of 1.5e-9
        with mpmath.workdps(30):
            nu = mpmath.mpf(2.5)
            norm = mpmath.gamma((nu + 1) / 2) / (mpmath.gamma(nu / 2) * mpmath.sqrt(nu * mpmath.pi))
            ref = float(mpmath.quad(lambda t: t ** 3 * norm * (1 + t * t / nu) ** (-(nu + 1) / 2),
                                    [10.0 ** j for j in range(11)]))
        res = quad_moment_1d("raw", 3, TParams1D(0.0, 1.0, 2.5), bounds=(1.0, 1e10), tol=1e-11)
        assert abs(res.value - ref) <= 1e-12 * abs(ref) + res.est_abs_error, (res, ref)


class TestMixturePdf:
    def test_matches_cauchy_density(self):
        # nu = 1, mu = 0, sigma = 1 is the standard Cauchy: 1/(pi (1 + t^2))
        p = TParams1D(0.0, 1.0, 1.0)
        for t in (0.0, 0.8, -2.5):
            res = mixture_pdf_1d(t, p, tol=1e-11)
            assert abs(res.value - 1.0 / (math.pi * (1.0 + t * t))) < 1e-10


class TestMcMomentNd:
    def test_fixed_seed_is_deterministic(self):
        p = TParamsND([0.1, -0.2], [[1.3, 0.2], [0.2, 0.9]], 12.0)
        a = mc_moment_nd((2, 1), p, n_samples=50_000, seed=3)
        b = mc_moment_nd((2, 1), p, n_samples=50_000, seed=3)
        assert a.value == b.value
        assert a.std_error == b.std_error
        assert a.seed == 3 and a.n_samples == 50_000

    def test_default_seed_recorded(self):
        p = TParamsND([0.0], [[1.0]], 9.0)
        est = mc_moment_nd((1,), p, n_samples=1_000)
        assert est.seed == DEFAULT_SEED
        assert isinstance(est, McEstimate)

    def test_standard_error_scales_with_samples(self):
        p = TParamsND([0.1, -0.2], [[1.3, 0.2], [0.2, 0.9]], 12.0)
        small = mc_moment_nd((2, 0), p, n_samples=50_000, seed=3)
        large = mc_moment_nd((2, 0), p, n_samples=200_000, seed=3)
        ratio = small.std_error / large.std_error
        assert 1.6 < ratio < 2.4  # expect ~sqrt(4) = 2

    def test_rectangle_as_pair(self):
        p = TParamsND([0.0, 0.0], np.eye(2), 10.0)
        r = Rectangle([-1.0, -1.0], [1.0, 1.0])
        a = mc_moment_nd((1, 1), p, rect=r, n_samples=20_000, seed=9)
        b = mc_moment_nd((1, 1), p, rect=(r.lower, r.upper), n_samples=20_000, seed=9)
        assert a.value == b.value

    def test_empty_rectangle_raises(self):
        p = TParamsND([0.0, 0.0], np.eye(2), 10.0)
        far = Rectangle([500.0, 500.0], [501.0, 501.0])
        with pytest.raises(EstimationError, match="none of the"):
            mc_moment_nd((0, 0), p, rect=far, n_samples=10_000, seed=1)

    def test_warns_on_infinite_sampling_variance(self):
        p = TParamsND([0.0, 0.0], np.eye(2), 5.0)
        with pytest.warns(UserWarning, match="infinite sampling variance"):
            mc_moment_nd((3, 0), p, n_samples=1_000, seed=2)

    def test_dimension_check(self):
        p = TParamsND([0.0, 0.0], np.eye(2), 10.0)
        with pytest.raises(DomainError, match="dimension"):
            mc_moment_nd((1,), p, n_samples=100)


class TestTensorQuad:
    def test_polynomial_is_exact(self):
        # int_0^2 int_-1^1 x^2 y^4 dy dx = (8/3)(2/5)
        def f(pts):
            return pts[:, 0] ** 2 * pts[:, 1] ** 4

        res = tensor_quad(f, [0.0, -1.0], [2.0, 1.0], tol=1e-12)
        assert abs(res.value - (8.0 / 3.0) * (2.0 / 5.0)) < 1e-12

    def test_gaussian_mass(self):
        def f(pts):
            return np.exp(-0.5 * np.sum(pts ** 2, axis=1)) / (2.0 * math.pi)

        res = tensor_quad(f, [-8.0, -8.0], [8.0, 8.0], tol=1e-10)
        assert abs(res.value - 1.0) < 1e-9

    def test_input_validation(self):
        f = lambda pts: np.ones(pts.shape[0])
        with pytest.raises(DomainError, match="finite"):
            tensor_quad(f, [0.0], [math.inf])
        with pytest.raises(DomainError, match="lower < upper"):
            tensor_quad(f, [1.0], [0.0])
        with pytest.raises(DomainError, match="equal-length"):
            tensor_quad(f, [0.0, 0.0], [1.0])

    def test_cusp_exhausts_refinement(self):
        f = lambda pts: np.abs(pts[:, 0]) ** 0.1
        with pytest.raises(NonConvergenceError) as exc:
            tensor_quad(f, [-1.0], [1.0], tol=1e-12)
        # the partial value is still reported for diagnosis
        assert abs(exc.value.value - 2.0 / 1.1) < 1e-2


class TestQuadMassNd:
    @pytest.mark.parametrize("p", [
        TParamsND([0.3, -1.0], [[2.0, 0.5], [0.5, 1.0]], 4.0),
        TParamsND([0.0, 0.0], np.eye(2) * 0.3, 2.5),
    ])
    def test_bivariate_mass(self, p):
        res = quad_mass_nd(p, tol=1e-8)
        assert abs(res.value - 1.0) < 1e-7

    def test_trivariate_mass(self):
        p = TParamsND([0.1, 0.0, -0.4], np.eye(3) * 1.5, 6.0)
        res = quad_mass_nd(p, tol=1e-7)
        assert abs(res.value - 1.0) < 1e-6
