"""Multivariate t moments: standardized closed forms and the two recursions."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmoments.errors import DomainError
from tmoments.normal_moments import NormalParams, normal_raw_moment
from tmoments.oracle import mc_moment_nd, quad_mass_nd
from tmoments.t1d import TParams1D, abs_moment_standard, raw_moment, raw_moment_standard, t_pdf
from tmoments.tnd import (MixturePoly, MultiIndex, TParamsND, conditional_moment_poly,
                          raw_moment_nd, raw_moment_nd_literal, std_abs_moment_nd,
                          std_raw_moment_nd, t_pdf_nd)


def all_indices(n, max_total):
    """All multi-indices of dimension n with total degree <= max_total."""
    if n == 1:
        return [(k,) for k in range(max_total + 1)]
    out = []
    for head in range(max_total + 1):
        for tail in all_indices(n - 1, max_total - head):
            out.append((head,) + tail)
    return out


class TestMultiIndex:
    def test_construction(self):
        k = MultiIndex.of([1, 2, 0])
        assert k.total == 3
        assert k.dim == 3
        assert MultiIndex.of(4).k == (4,)
        assert MultiIndex.of(k) is k

    def test_increment_decrement(self):
        k = MultiIndex.of([1, 2])
        assert k.incremented(0).k == (2, 2)
        assert k.decremented(1).k == (1, 1)
        with pytest.raises(DomainError):
            MultiIndex.of([0, 2]).decremented(0)

    def test_validation(self):
        with pytest.raises(DomainError):
            MultiIndex.of([])
        with pytest.raises(DomainError):
            MultiIndex.of([-1, 2])
        with pytest.raises(DomainError):
            MultiIndex.of([1.5])
        with pytest.raises(DomainError):
            MultiIndex.of([True])


class TestTParamsND:
    def test_validation(self):
        with pytest.raises(DomainError, match="not symmetric"):
            TParamsND([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]], 5.0)
        with pytest.raises(DomainError, match="positive definite"):
            TParamsND([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], 5.0)
        with pytest.raises(DomainError, match="does not match"):
            TParamsND([0.0, 0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], 5.0)
        with pytest.raises(DomainError, match="nu"):
            TParamsND([0.0], [[1.0]], 0.0)
        with pytest.raises(DomainError, match="mu must be a vector"):
            TParamsND([[0.0]], [[1.0]], 5.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_entries_are_rejected(self, bad):
        with pytest.raises(DomainError, match="finite entries"):
            TParamsND([0.0], [[bad]], 5.0)
        with pytest.raises(DomainError, match="finite entries"):
            TParamsND([0.0, 0.0], [[1.0, bad], [bad, 1.0]], 5.0)

    def test_huge_entries_symmetrize_without_overflow(self):
        # 0.5 (m + m^T) would be inf at 1e308
        mat = [[1e308, 2e307], [2e307, 1.5e308]]
        assert np.array_equal(TParamsND([0.0, 0.0], mat, 5.0).sigma_mat, mat)
        assert TParamsND([0.0], [[1e308]], 5.0).sigma_mat[0, 0] == 1e308

    def test_symmetrization_averages_within_tolerance(self):
        p = TParamsND([0.0, 0.0], [[2.0, 0.3 + 1e-15], [0.3 - 1e-15, 1.0]], 5.0)
        assert p.sigma_mat[0, 1] == p.sigma_mat[1, 0] == 0.3

    def test_arrays_are_frozen(self):
        p = TParamsND([0.0, 1.0], [[2.0, 0.3], [0.3, 1.0]], 5.0)
        with pytest.raises(ValueError):
            p.mu[0] = 7.0
        with pytest.raises(ValueError):
            p.sigma_mat[0, 1] = 9.0

    def test_precision_inverse(self):
        p = TParamsND([0.0, 1.0], [[2.0, 0.3], [0.3, 1.0]], 5.0)
        prod = p.precision_inverse() @ p.sigma_mat
        assert np.abs(prod - np.eye(2)).max() < 1e-13


class TestStandardizedForms:
    def test_frozen_raw_value(self):
        # nu = 9, k = (2, 2): nu^2 / ((nu-2)(nu-4)) = 81/35
        got = std_raw_moment_nd((2, 2), 9.0)
        assert math.isclose(got.value, 81.0 / 35.0, rel_tol=1e-13)

    def test_frozen_abs_value(self):
        # nu = 5, k = (1, 1): nu Gamma((nu-2)/2) / Gamma(nu/2) / pi = 10/(3 pi)
        got = std_abs_moment_nd((1, 1), 5.0)
        assert math.isclose(got.value, 10.0 / (3.0 * math.pi), rel_tol=1e-13)

    def test_any_odd_entry_gives_zero_raw(self):
        assert std_raw_moment_nd((1, 2), 9.0).value == 0.0
        assert std_raw_moment_nd((3, 0, 2), 11.0).value == 0.0

    @pytest.mark.parametrize("k", range(0, 6))
    def test_one_dimensional_reduction(self, k):
        nu = 8.0
        raw_nd = std_raw_moment_nd((k,), nu)
        raw_1d = raw_moment_standard(k, nu)
        assert abs(raw_nd.value - raw_1d.value) <= 1e-13 * max(1.0, abs(raw_1d.value))
        abs_nd = std_abs_moment_nd((k,), nu)
        abs_1d = abs_moment_standard(k, nu)
        assert abs(abs_nd.value - abs_1d.value) <= 1e-13 * max(1.0, abs(abs_1d.value))

    def test_abs_bounds_raw(self):
        # |E(prod T^k)| <= E(prod |T|^k), with equality at all-even orders
        for k in [(2, 2), (4, 0), (2, 1), (3, 1)]:
            nu = 12.0
            raw = std_raw_moment_nd(k, nu).value
            ab = std_abs_moment_nd(k, nu).value
            assert abs(raw) <= ab + 1e-15
            if all(ki % 2 == 0 for ki in k):
                assert math.isclose(raw, ab, rel_tol=1e-13)

    def test_existence_gate(self):
        assert std_raw_moment_nd((0, 0), 1.5).value == 1.0
        res = std_raw_moment_nd((2, 2), 4.0)
        assert not res.defined
        assert res.reason == "order ≥ degrees of freedom"
        assert not std_abs_moment_nd((3, 2), 5.0).defined

    def test_against_monte_carlo(self):
        nu = 12.0
        p = TParamsND(np.zeros(2), np.eye(2), nu)
        for k in [(2, 0), (2, 2), (4, 0)]:
            est = mc_moment_nd(k, p, n_samples=400_000, seed=99)
            ref = std_raw_moment_nd(k, nu).value
            assert abs(est.value - ref) <= 4.0 * est.std_error


class TestConditionalPoly:
    def test_diagonal_factorizes_into_normal_moments(self):
        # given the mixing value t, coordinates are independent normals when
        # Sigma is diagonal, so the polynomial must factor accordingly
        mu = np.array([0.5, -1.2])
        d = np.array([2.0, 0.7])
        p = TParamsND(mu, np.diag(d), 9.0)
        poly = conditional_moment_poly((3, 2), p)
        for t in (0.5, 1.0, 2.7):
            ref = 1.0
            for i in range(2):
                ref *= normal_raw_moment(NormalParams(mu[i], 1.0 / (t * d[i])), [3, 2][i])
            assert math.isclose(poly.evaluate(t), ref, rel_tol=1e-12)

    def test_second_order_cross_term(self):
        # E(X_i X_j | t) = mu_i mu_j + S_ij / t
        p = TParamsND([0.4, -0.3], [[1.5, 0.4], [0.4, 1.1]], 7.0)
        s = p.precision_inverse()
        poly = conditional_moment_poly((1, 1), p)
        assert math.isclose(poly.coeffs[0], 0.4 * -0.3, rel_tol=1e-14)
        assert math.isclose(poly.coeffs[1], s[0, 1], rel_tol=1e-13)

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_max_reciprocal_power(self, k):
        n = len(k)
        p = TParamsND(0.3 * np.arange(n), np.eye(n) + 0.1, 30.0)
        poly = conditional_moment_poly(tuple(k), p)
        assert poly.max_power() <= math.ceil(sum(k) / 2)

    def test_dimension_mismatch(self):
        p = TParamsND([0.0, 0.0], np.eye(2), 9.0)
        with pytest.raises(DomainError, match="dimension"):
            conditional_moment_poly((1, 1, 1), p)


def _dict_recursion(k, mu, prec_inv, memo):
    """The scalar recursion the lattice sweep replaced, as its oracle: one dict
    of reciprocal powers per multi-index, memoised, lowering the first active
    coordinate i by
    E(X^(k'+e_i) | t) = mu_i E(X^k' | t) + (1/t) sum_j S_ij k'_j E(X^(k'-e_j) | t)
    and skipping a term whose weight is zero."""
    poly = memo.get(k)
    if poly is not None:
        return poly
    if not any(k):
        poly = {0: 1.0}
    else:
        i = next(idx for idx, ki in enumerate(k) if ki)
        base = k[:i] + (k[i] - 1,) + k[i + 1:]
        lower = _dict_recursion(base, mu, prec_inv, memo)
        poly = {m: mu[i] * c for m, c in lower.items()} if mu[i] != 0.0 else {}
        for j, kj in enumerate(base):
            w = prec_inv[i][j] * kj
            if w != 0.0:
                sub = _dict_recursion(base[:j] + (kj - 1,) + base[j + 1:], mu, prec_inv, memo)
                for m, c in sub.items():
                    poly[m + 1] = poly.get(m + 1, 0.0) + w * c
    memo[k] = poly
    return poly


def _reference_poly(k, p):
    return _dict_recursion(tuple(k), p.mu.tolist(), p.precision_inverse().tolist(), {})


def _bits(coeffs):
    """Each coefficient's bits; a zero one by value. A coefficient that
    underflows to zero can carry the other sign of zero than in the scalar
    recursion, where a zero the sweep holds for a power no term reached
    enters its sum; no moment value sees that sign, as fsum of zeros is +0."""
    return {m: float(c).hex() if c else 0.0 for m, c in coeffs.items()}


@st.composite
def _sweep_cases(draw):
    """An order of dimension 1-5 and total at most 20, with mu entries that
    may be exactly 0 and a block-diagonal matrix: Sigma^(-1) is zero between
    blocks and diagonal when every block is one coordinate, and negative
    factor entries give negative correlations."""
    n = draw(st.integers(1, 5))
    total = draw(st.integers(0, 20))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    k = tuple(hi - lo for lo, hi in zip([0] + cuts, cuts + [total]))
    mu = draw(st.lists(st.just(0.0) | st.floats(-2.0, 2.0), min_size=n, max_size=n))
    sigma = np.zeros((n, n))
    start = 0
    while start < n:
        size = draw(st.integers(1, n - start))
        factor = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=size * size,
                                        max_size=size * size))).reshape(size, size)
        block = slice(start, start + size)
        sigma[block, block] = factor @ factor.T + 0.5 * np.eye(size)
        start += size
    return k, TParamsND(mu, sigma, total + 3.0)


class TestLatticeSweep:
    """The numpy lattice sweep against the scalar dict recursion it replaced."""

    @given(_sweep_cases())
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_dict_recursion(self, case):
        k, p = case
        ref = _reference_poly(k, p)
        assert _bits(conditional_moment_poly(k, p).coeffs) == _bits(ref)
        res = raw_moment_nd(k, p)
        assert res.value == MixturePoly(ref).mixture_mean(p.nu)
        if sum(k):
            assert res.diagnostics["reciprocal_powers"] == max(ref, default=0)

    def test_diagonal_matrix_reaches_no_cross_power(self):
        # with S_01 = 0 no term of E(X_0 X_1 | t) carries 1/t, so the
        # polynomial has no power 1 at all, not a zero coefficient there
        p = TParamsND([0.5, -1.5], np.diag([2.0, 0.5]), 9.0)
        assert conditional_moment_poly((1, 1), p).coeffs == {0: 0.5 * -1.5}
        assert raw_moment_nd((1, 1), p).diagnostics["reciprocal_powers"] == 0
        centred = TParamsND([0.0, 0.0], np.diag([2.0, 0.5]), 9.0)
        assert conditional_moment_poly((1, 1), centred).coeffs == {}
        res = raw_moment_nd((1, 1), centred)
        assert res.value == 0.0 and res.diagnostics["reciprocal_powers"] == 0

    def test_huge_lattice_is_refused(self):
        # (600, 600) spans 601 * 601 * 601 entries; the scalar recursion
        # raised RecursionError here
        p = TParamsND([0.1, 0.2], [[1.0, 0.3], [0.3, 1.0]], 1e6)
        for fn in (raw_moment_nd, raw_moment_nd_literal, conditional_moment_poly):
            with pytest.raises(DomainError, match="lattice"):
                fn((600, 600), p)

    def test_high_order_matches_dict_recursion(self):
        p = TParamsND([0.1, 0.2], [[400.0, 100.0], [100.0, 300.0]], 1e6)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 5000))
        try:
            ref = _reference_poly((300, 2), p)
        finally:
            sys.setrecursionlimit(limit)
        assert _bits(conditional_moment_poly((300, 2), p).coeffs) == _bits(ref)
        res = raw_moment_nd((300, 2), p)
        assert res.value == MixturePoly(ref).mixture_mean(p.nu)
        assert 0.0 < res.value < math.inf
        assert res.diagnostics["reciprocal_powers"] == 151


class TestCorrectedRecursion:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_standardized_forms(self, n):
        nu = 8.0
        p = TParamsND(np.zeros(n), np.eye(n), nu)
        for k in all_indices(n, 6):
            if 0 < sum(k) and sum(k) >= nu:
                continue
            got = raw_moment_nd(k, p).value
            ref = std_raw_moment_nd(k, nu).value
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_matches_univariate_route(self):
        mu, sigma, nu = 1.3, 0.5, 8.0
        p1 = TParams1D(mu, sigma, nu)
        pn = TParamsND([mu], [[sigma]], nu)
        for k in range(0, 6):
            a = raw_moment_nd((k,), pn).value
            b = raw_moment(k, p1).value
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    def test_mean_vector(self):
        p = TParamsND([0.7, -2.0, 0.1], np.diag([1.0, 2.0, 0.5]), 3.0)
        for i in range(3):
            k = tuple(1 if j == i else 0 for j in range(3))
            assert math.isclose(raw_moment_nd(k, p).value, p.mu[i], rel_tol=1e-14)

    def test_covariance_matrix(self):
        sigma = np.array([[1.2, 0.4], [0.4, 0.9]])
        p = TParamsND([0.2, -0.1], sigma, 9.0)
        ref_cov = p.nu / (p.nu - 2.0) * np.linalg.inv(sigma)
        for i in range(2):
            for j in range(2):
                k = [0, 0]
                k[i] += 1
                k[j] += 1
                second = raw_moment_nd(tuple(k), p).value
                cov = second - p.mu[i] * p.mu[j]
                assert abs(cov - ref_cov[i, j]) <= 1e-12 * max(1.0, abs(ref_cov[i, j]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 3))
        sigma = a @ a.T + 3.0 * np.eye(3)
        mu = np.array([0.3, -1.0, 0.8])
        k = (2, 1, 1)
        perm = [2, 0, 1]
        p = TParamsND(mu, sigma, 11.0)
        pp = TParamsND(mu[perm], sigma[np.ix_(perm, perm)], 11.0)
        kp = tuple(k[i] for i in perm)
        a_val = raw_moment_nd(k, p).value
        b_val = raw_moment_nd(kp, pp).value
        assert math.isclose(a_val, b_val, rel_tol=1e-12)

    def test_against_monte_carlo_full_matrix(self):
        p = TParamsND([0.3, -0.5], [[2.0, 0.6], [0.6, 1.4]], 12.0)
        for k in [(1, 1), (2, 1), (3, 0)]:
            est = mc_moment_nd(k, p, n_samples=400_000, seed=31)
            got = raw_moment_nd(k, p).value
            assert abs(est.value - got) <= 4.0 * est.std_error

    def test_gate_and_diagnostics(self):
        p = TParamsND([0.0, 0.0], np.eye(2), 3.0)
        assert raw_moment_nd((0, 0), p).value == 1.0
        res = raw_moment_nd((2, 1), p)
        assert not res.defined
        assert math.isnan(res.value)
        ok = raw_moment_nd((2, 0), p)
        assert ok.mode == "corrected"
        assert ok.formula == "mixture-recursion"
        assert ok.diagnostics["reciprocal_powers"] == 1

    def test_dimension_mismatch(self):
        p = TParamsND([0.0, 0.0], np.eye(2), 9.0)
        with pytest.raises(DomainError, match="dimension"):
            raw_moment_nd((1,), p)


class TestLiteralRecursion:
    def test_agrees_exactly_up_to_total_degree_two(self):
        # both routes reduce to the same correctly rounded arithmetic here,
        # so the agreement is bit for bit
        p = TParamsND([0.4, -0.3], [[1.5, 0.4], [0.4, 1.1]], 7.0)
        for k in all_indices(2, 2):
            a = raw_moment_nd(k, p).value
            b = raw_moment_nd_literal(k, p).value
            assert a == b

    @pytest.mark.parametrize("nu", [5.0, 7.0, 10.0])
    def test_fourth_moment_bias_ratio(self, nu):
        # replacing 1/t by its mean loses the factor (nu-2)/(nu-4) on pure
        # fourth moments at mu = 0
        p = TParamsND(np.zeros(2), np.eye(2), nu)
        for k in [(4, 0), (2, 2)]:
            corrected = raw_moment_nd(k, p).value
            literal = raw_moment_nd_literal(k, p).value
            ratio = corrected / literal
            expected = (nu - 2.0) / (nu - 4.0)
            assert abs(ratio - expected) <= 1e-9 * expected

    @pytest.mark.parametrize("k, p, expected", [
        ((4, 3, 3), TParamsND([0.4, -0.3, 0.2],
                              [[2.0, 0.3, -0.2], [0.3, 1.5, 0.1], [-0.2, 0.1, 1.0]], 25.0),
         -5.99985641758638),
        ((3, 3, 3, 3, 3), TParamsND([0.5, -0.2, 0.1, 0.3, -0.4], np.eye(5) * 1.5 + 0.2, 40.0),
         0.21151256373986949),
    ])
    def test_high_order_values(self, k, p, expected):
        # recorded from a scalar recursion that multiplied by nu/(nu-2) at
        # every step, before the literal mode reused the 1/t polynomial
        assert math.isclose(raw_moment_nd_literal(k, p).value, expected, rel_tol=1e-12)

    def test_literal_underestimates_heavy_tails(self):
        p = TParamsND(np.zeros(2), np.eye(2), 6.0)
        assert raw_moment_nd_literal((4, 0), p).value < raw_moment_nd((4, 0), p).value

    def test_requires_more_than_two_dof(self):
        p = TParamsND([0.0], [[1.0]], 2.0)
        with pytest.raises(DomainError, match="nu > 2"):
            raw_moment_nd_literal((1,), p)

    def test_result_tags(self):
        p = TParamsND([0.1], [[1.0]], 9.0)
        res = raw_moment_nd_literal((2,), p)
        assert res.mode == "literal"
        assert res.formula == "literal-recursion"
        assert not raw_moment_nd_literal((9,), p).defined


class TestDensity:
    def test_reduces_to_univariate(self):
        p1 = TParams1D(0.7, 2.0, 5.0)
        pn = TParamsND([0.7], [[2.0]], 5.0)
        for t in (-1.0, 0.7, 3.2):
            assert math.isclose(t_pdf_nd([t], pn), t_pdf(t, p1), rel_tol=1e-14)

    def test_peak_value(self):
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        nu = 4.0
        p = TParamsND([0.3, -1.0], sigma, nu)
        ref = (math.gamma((nu + 2) / 2) / (math.gamma(nu / 2) * (nu * math.pi))
               * math.sqrt(np.linalg.det(sigma)))
        assert math.isclose(t_pdf_nd(p.mu, p), ref, rel_tol=1e-13)

    def test_stacked_points(self):
        p = TParamsND([0.0, 0.0], np.eye(2), 6.0)
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, -1.0]])
        vals = t_pdf_nd(pts, p)
        assert vals.shape == (3,)
        assert vals[0] > vals[1] > vals[2]

    def test_dimension_check(self):
        p = TParamsND([0.0, 0.0], np.eye(2), 6.0)
        with pytest.raises(DomainError, match="dimension"):
            t_pdf_nd([0.0, 0.0, 0.0], p)

    def test_total_mass(self):
        p = TParamsND([0.3, -1.0], [[2.0, 0.5], [0.5, 1.0]], 4.0)
        mass = quad_mass_nd(p, tol=1e-8)
        assert abs(mass.value - 1.0) < 1e-7
