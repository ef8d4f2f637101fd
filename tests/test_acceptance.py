"""Acceptance gate: one test per shipped guarantee, one pass/fail line each.

Tolerances here are contractual; do not loosen them. Each test prints
"PASS criterion N: ..." (or FAIL) so a test log shows the gate at a glance.
"""

import contextlib
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import run_cli
from tmoments.oracle import mixture_pdf_1d, quad_moment_1d, sample_t_nd
from tmoments.specfun import MAX_SERIES_TERMS, _series, hyp2f1
from tmoments.t1d import (TParams1D, abs_moment, abs_moment_standard, central_abs_moment,
                          central_moment, raw_from_central, raw_moment,
                          raw_moment_standard, t_pdf)
from tmoments.tnd import TParamsND, raw_moment_nd, raw_moment_nd_literal, std_abs_moment_nd, std_raw_moment_nd
from tmoments.truncated import Rectangle, trunc_t_moment

NU_GRID = [2.5, 3.0, 5.0, 8.0, 30.0]
MU_GRID = [-2.0, 0.0, 1.3]
SIGMA_GRID = [0.5, 1.0, 4.0]

SCHEMA = json.loads((Path(__file__).resolve().parent.parent
                     / "schemas" / "response-v1.json").read_text())


def k_range(nu):
    return range(0, min(6, math.ceil(nu) - 1) + 1)


def rel_err(got, ref):
    return abs(got - ref) / max(1.0, abs(ref))


def all_indices(n, max_total):
    if n == 1:
        return [(k,) for k in range(max_total + 1)]
    return [(h,) + t for h in range(max_total + 1) for t in all_indices(n - 1, max_total - h)]


@contextlib.contextmanager
def criterion(capsys, number, description):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {number}: {description}")
        raise
    with capsys.disabled():
        print(f"PASS criterion {number}: {description}")


def test_criterion_1_closed_forms_match_quadrature(capsys):
    with criterion(capsys, 1, "six 1-D closed forms vs quadrature, rel err <= 1e-9, <= 60 s"):
        start = time.perf_counter()
        worst = 0.0
        checks = 0
        for nu in NU_GRID:
            std = TParams1D(0.0, 1.0, nu)
            for k in k_range(nu):
                worst = max(worst, rel_err(raw_moment_standard(k, nu).value,
                                           quad_moment_1d("raw", k, std, tol=1e-10).value))
                worst = max(worst, rel_err(abs_moment_standard(k, nu).value,
                                           quad_moment_1d("abs", k, std, tol=1e-10).value))
                checks += 2
                for mu in MU_GRID:
                    for sigma in SIGMA_GRID:
                        p = TParams1D(mu, sigma, nu)
                        for fn, kind in ((raw_moment, "raw"), (central_moment, "central"),
                                         (abs_moment, "abs"), (central_abs_moment, "central-abs")):
                            ref = quad_moment_1d(kind, k, p, tol=1e-10).value
                            worst = max(worst, rel_err(fn(k, p).value, ref))
                            checks += 1
        elapsed = time.perf_counter() - start
        assert checks == 950
        assert worst <= 1e-9, f"worst relative error {worst:.3e}"
        assert elapsed <= 60.0, f"grid took {elapsed:.1f} s"


def test_criterion_2_general_forms_reduce_to_standard(capsys):
    with criterion(capsys, 2, "mu=0, sigma=1 reduction to standard forms, rel err <= 1e-12"):
        for nu in NU_GRID:
            p = TParams1D(0.0, 1.0, nu)
            for k in k_range(nu):
                assert rel_err(raw_moment(k, p).value,
                               raw_moment_standard(k, nu).value) <= 1e-12
                assert rel_err(abs_moment(k, p).value,
                               abs_moment_standard(k, nu).value) <= 1e-12


def test_criterion_3_binomial_recombination(capsys):
    with criterion(capsys, 3, "raw_from_central equals raw_moment, rel err <= 1e-10"):
        for nu in NU_GRID:
            for k in k_range(nu):
                for mu in MU_GRID:
                    for sigma in SIGMA_GRID:
                        p = TParams1D(mu, sigma, nu)
                        assert rel_err(raw_from_central(k, p).value,
                                       raw_moment(k, p).value) <= 1e-10


def test_criterion_4_scale_mixture_identity(capsys):
    with criterion(capsys, 4, "gamma-mixture integral reproduces t_pdf, abs err <= 1e-8"):
        triples = [(-2.0, 0.5, 2.5), (0.0, 1.0, 5.0), (1.3, 4.0, 8.0),
                   (1.0, 2.0, 3.0), (-0.7, 0.8, 30.0)]
        for mu, sigma, nu in triples:
            p = TParams1D(mu, sigma, nu)
            ts = mu + np.linspace(-6.0, 6.0, 20) / math.sqrt(sigma)
            for t in ts:
                ref = mixture_pdf_1d(float(t), p, tol=1e-12)
                assert abs(t_pdf(float(t), p) - ref.value) <= 1e-8


def test_criterion_5_standardized_multivariate_forms(capsys):
    with criterion(capsys, 5, "standardized n-D forms vs 1e6-sample MC (4 SE) and spot values"):
        assert rel_err(std_raw_moment_nd((2, 2), 9.0).value, 81.0 / 35.0) <= 1e-9
        assert rel_err(std_abs_moment_nd((1, 1), 5.0).value,
                       10.0 / (3.0 * math.pi)) <= 1e-9
        nu = 12.0
        n_samples = 1_000_000
        for n in (2, 3):
            p = TParamsND(np.zeros(n), np.eye(n), nu)
            x = sample_t_nd(p, n_samples, seed=2025)
            for k in all_indices(n, 4):
                raw_vals = np.ones(n_samples)
                abs_vals = np.ones(n_samples)
                for i, ki in enumerate(k):
                    if ki:
                        raw_vals *= x[:, i] ** ki
                        abs_vals *= np.abs(x[:, i]) ** ki
                for vals, closed in ((raw_vals, std_raw_moment_nd(k, nu).value),
                                     (abs_vals, std_abs_moment_nd(k, nu).value)):
                    est = float(vals.mean())
                    se = float(vals.std(ddof=1) / math.sqrt(n_samples))
                    assert abs(est - closed) <= 4.0 * se, (n, k)


def test_criterion_6_corrected_recursion_matches_closed_forms(capsys):
    with criterion(capsys, 6, "corrected recursion vs 1-D and standardized forms, rel err <= 1e-10"):
        nu = 8.0
        for mu, sigma in ((1.3, 0.5), (0.0, 1.0), (-2.0, 4.0)):
            p1 = TParams1D(mu, sigma, nu)
            pn = TParamsND([mu], [[sigma]], nu)
            for k in range(0, 6):
                assert rel_err(raw_moment_nd((k,), pn).value,
                               raw_moment(k, p1).value) <= 1e-10
        for n in (2, 3):
            p = TParamsND(np.zeros(n), np.eye(n), nu)
            for k in all_indices(n, 6):
                if 0 < sum(k) and sum(k) >= nu:
                    continue
                assert rel_err(raw_moment_nd(k, p).value,
                               std_raw_moment_nd(k, nu).value) <= 1e-10


def test_criterion_7_literal_recursion_divergence(capsys):
    with criterion(capsys, 7, "corrected/literal ratio (nu-2)/(nu-4) at k=4; exact match, total <= 2"):
        for nu in (5.0, 7.0, 10.0):
            p = TParamsND([0.0], [[1.0]], nu)
            ratio = raw_moment_nd((4,), p).value / raw_moment_nd_literal((4,), p).value
            assert abs(ratio - (nu - 2.0) / (nu - 4.0)) <= 1e-9
            for k in (0, 1, 2):
                assert raw_moment_nd((k,), p).value == raw_moment_nd_literal((k,), p).value


def test_criterion_8_truncated_moments(capsys):
    with criterion(capsys, 8, "truncated moments: 1-D quad <= 1e-7, 2-D MC 4 SE, full mass 1 +- 1e-7"):
        p1 = TParams1D(0.5, 2.0, 7.0)
        pn = TParamsND([0.5], [[2.0]], 7.0)
        intervals = [(-1.0, 2.0), (0.0, math.inf), (-math.inf, 1.5), (-math.inf, math.inf)]
        for lo, hi in intervals:
            for k in range(0, 5):
                got = trunc_t_moment((k,), Rectangle([lo], [hi]), pn).value
                ref = quad_moment_1d("raw", k, p1, bounds=(lo, hi), tol=1e-11).value
                assert abs(got - ref) <= 1e-7 * max(1.0, abs(ref))

        p2 = TParamsND([0.2, -0.1], [[1.2, 0.4], [0.4, 0.9]], 9.0)
        rect = Rectangle([-1.0, -math.inf], [2.0, 1.0])
        n_samples = 1_000_000
        x = sample_t_nd(p2, n_samples, seed=5)
        inside = np.all((x >= rect.lower) & (x <= rect.upper), axis=1)
        for k in [(0, 0), (1, 0), (1, 1), (2, 1)]:
            vals = np.where(inside, x[:, 0] ** k[0] * x[:, 1] ** k[1], 0.0)
            est = float(vals.mean())
            se = float(vals.std(ddof=1) / math.sqrt(n_samples))
            got = trunc_t_moment(k, rect, p2).value
            assert abs(got - est) <= 4.0 * se, k

        for p_full in (pn, p2):
            zero = (0,) * p_full.dim
            mass = trunc_t_moment(zero, Rectangle.full_space(p_full.dim), p_full).value
            assert abs(mass - 1.0) <= 1e-7


def exact_2f1(n, b, c, z):
    total = Fraction(0)
    term = Fraction(1)
    for i in range(n + 1):
        total += term
        term *= Fraction(-n + i) * (b + i) * z / ((c + i) * (i + 1))
    return total


def test_criterion_9_hypergeometric_evaluations(capsys):
    with criterion(capsys, 9, "terminating 2F1 vs rational sums <= 1e-13; Pfaff vs direct <= 1e-10"):
        for nu in (2.5, 5.0, 8.0, 13.5, 30.0):
            for mu in (-2.0, 1.3):
                for sigma in (0.5, 4.0):
                    z = -mu * mu * sigma / nu
                    for k in range(1, 13):
                        if k >= nu:
                            continue
                        if k % 2 == 0:
                            a, b, c = -k / 2.0, nu / 2.0 - k / 2.0, 0.5
                        else:
                            a, b, c = (1.0 - k) / 2.0, nu / 2.0 - (k - 1.0) / 2.0, 1.5
                        res = hyp2f1(a, b, c, z)
                        assert res.terminating
                        ref = float(exact_2f1(int(-a), Fraction(b), Fraction(c), Fraction(z)))
                        assert abs(res.value - ref) <= 1e-13 * max(1.0, abs(ref))
        for a, b, c in [(0.3, 1.7, 0.5), (-1.5, 2.5, 0.5), (-2.5, 4.75, 1.5)]:
            for z in np.linspace(-0.89, -0.01, 23):
                direct = _series(a, b, c, float(z), MAX_SERIES_TERMS)[0]
                val = hyp2f1(a, b, c, float(z)).value
                assert abs(val - direct) <= 1e-10 * max(1.0, abs(direct))


def test_criterion_10_cli_contract(capsys):
    with criterion(capsys, 10, "CLI schema, exit codes 0/1/2/3/4, null undefined, seeded byte-identity"):
        ok = run_cli("one-d", "--kind", "central", "--k", "2", "--mu", "7",
                     "--sigma", "1", "--nu", "5")
        assert ok.returncode == 0
        jsonschema.validate(json.loads(ok.stdout), SCHEMA)

        for argv in (("multi", "--k", "2,2", "--nu", "9"),
                     ("truncated", "--k", "1", "--lower", "0", "--nu", "2"),
                     ("oracle", "--k", "2", "--nu", "5", "--method", "quad"),
                     ("verify", "--k", "3", "--mu", "1.3", "--sigma", "0.5",
                      "--nu", "8", "--tol", "1e-9")):
            proc = run_cli(*argv)
            assert proc.returncode == 0, (argv, proc.stderr)
            jsonschema.validate(json.loads(proc.stdout), SCHEMA)

        fail = run_cli("verify", "--k", "4,0", "--nu", "12", "--mode", "literal",
                       "--method", "mc", "--samples", "100000", "--seed", "1")
        assert fail.returncode == 1

        usage = run_cli("multi", "--k", "2,2", "--nu", "9", "--sigma-mat", "[[1,0],[0,1]")
        assert usage.returncode == 2

        undefined = run_cli("one-d", "--k", "5", "--nu", "5")
        assert undefined.returncode == 3
        payload = json.loads(undefined.stdout)
        jsonschema.validate(payload, SCHEMA)
        assert payload["value"] is None and payload["defined"] is False

        estimation = run_cli("oracle", "--k", "1", "--nu", "5", "--method", "mc",
                             "--samples", "1000", "--lower", "500", "--upper", "501")
        assert estimation.returncode == 4
        assert json.loads(estimation.stdout)["value"] is None

        mc_args = ("oracle", "--k", "2,1", "--nu", "12",
                   "--sigma-mat", "[[1.3,0.2],[0.2,0.9]]", "--samples", "200000",
                   "--seed", "777")
        first, second = run_cli(*mc_args), run_cli(*mc_args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
