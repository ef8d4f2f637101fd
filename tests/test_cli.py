"""End-to-end CLI tests: JSON schema, exit codes, seeding, conventions."""

import contextlib
import io
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import run_cli
from tmoments.cli import _answer, _to_json, main
from tmoments.t1d import TParams1D, central_moment
from tmoments.tnd import TParamsND, raw_moment_nd
from tmoments.truncated import Rectangle, trunc_t_moment

SCHEMA = json.loads((Path(__file__).resolve().parent.parent
                     / "schemas" / "response-v1.json").read_text())

RESPONSE_KEYS = ["schema", "value", "defined", "reason", "formula", "mode", "diagnostics"]


def run_json(*argv, expect_code=0, env_extra=None):
    proc = run_cli(*argv, env_extra=env_extra)
    assert proc.returncode == expect_code, proc.stderr
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, SCHEMA)
    assert list(payload.keys()) == RESPONSE_KEYS
    return payload


class TestSchema:
    def test_one_d(self):
        payload = run_json("one-d", "--kind", "central", "--k", "2", "--mu", "7",
                           "--sigma", "1", "--nu", "5")
        assert payload["schema"] == "response-v1"
        assert payload["defined"] is True
        ref = central_moment(2, TParams1D(7.0, 1.0, 5.0)).value
        assert payload["value"] == ref

    def test_multi(self):
        payload = run_json("multi", "--k", "2,2", "--nu", "9")
        assert math.isclose(payload["value"], 81.0 / 35.0, rel_tol=1e-13)
        assert payload["mode"] == "corrected"

    def test_truncated(self):
        payload = run_json("truncated", "--k", "1", "--lower", "0", "--nu", "2")
        assert abs(payload["value"] - math.sqrt(2.0) / 2.0) < 1e-15
        assert payload["formula"] == "trunc-recurrence"
        assert payload["diagnostics"]["recurrence_error"] < 1e-15

    def test_oracle(self):
        payload = run_json("oracle", "--kind", "raw", "--k", "2", "--nu", "5",
                           "--method", "quad")
        assert payload["mode"] == "oracle"
        assert payload["formula"] == "oracle-quad"
        assert math.isclose(payload["value"], 5.0 / 3.0, rel_tol=1e-8)

    def test_verify(self):
        payload = run_json("verify", "--kind", "raw", "--k", "3", "--mu", "1.3",
                           "--sigma", "0.5", "--nu", "8", "--tol", "1e-9")
        assert payload["diagnostics"]["passed"] is True
        assert "oracle_value" in payload["diagnostics"]


class TestExitCodes:
    def test_success_is_zero(self):
        assert run_cli("one-d", "--k", "2", "--nu", "5").returncode == 0

    def test_undefined_moment_is_three(self):
        proc = run_cli("one-d", "--k", "5", "--nu", "5")
        assert proc.returncode == 3
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, SCHEMA)
        assert payload["value"] is None
        assert payload["defined"] is False
        assert payload["reason"] == "order ≥ degrees of freedom"

    def test_undefined_multi_and_truncated(self):
        assert run_cli("multi", "--k", "2,2", "--nu", "4").returncode == 3
        proc = run_cli("truncated", "--k", "3", "--lower", "0", "--nu", "3")
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["value"] is None

    def test_bounded_box_has_every_order(self):
        proc = run_cli("truncated", "--k", "3", "--lower", "0", "--upper", "1", "--nu", "3")
        assert proc.returncode == 0
        assert math.isclose(json.loads(proc.stdout)["value"], 0.062325646146132965,
                            rel_tol=1e-14)

    @pytest.mark.parametrize("argv", [
        ("truncated", "--k", "1", "--lower", "0", "--nu", "inf"),
        ("truncated", "--k", "1,0", "--lower", "0,0", "--nu", "inf"),
        ("multi", "--k", "1,1", "--nu", "inf"),
        ("one-d", "--k", "2", "--nu", "inf"),
        ("oracle", "--k", "2", "--nu", "inf", "--method", "quad"),
        ("verify", "--k", "2", "--nu", "inf"),
    ])
    def test_infinite_nu_is_two(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert "nu must be positive and finite" in proc.stderr

    def test_usage_errors_are_two(self):
        assert run_cli("one-d", "--k", "2").returncode == 2  # missing --nu
        assert run_cli("one-d", "--kind", "bogus", "--k", "2", "--nu", "5").returncode == 2
        assert run_cli("one-d", "--k", "2", "--nu", "5", "--sigma", "2",
                       "--scale", "2").returncode == 2
        assert run_cli("one-d", "--k", "2", "--nu", "5", "--sigma", "-1").returncode == 2
        proc = run_cli("multi", "--k", "1,1", "--nu", "9", "--mu", "1,0",
                       "--kind", "abs")
        assert proc.returncode == 2
        assert "mu = 0" in proc.stderr

    def test_malformed_matrix_reports_position(self):
        proc = run_cli("multi", "--k", "2,2", "--nu", "9",
                       "--sigma-mat", "[[1,0],[0,1]")
        assert proc.returncode == 2
        assert "position" in proc.stderr

    def test_wrong_matrix_shape(self):
        proc = run_cli("multi", "--k", "2,2", "--nu", "9",
                       "--sigma-mat", "[[1,0,0],[0,1,0],[0,0,1]]")
        assert proc.returncode == 2
        assert "expected (2, 2)" in proc.stderr

    def test_quad_oracle_rejects_multivariate(self):
        proc = run_cli("oracle", "--k", "1,1", "--nu", "9", "--method", "quad")
        assert proc.returncode == 2
        assert "one-dimensional" in proc.stderr

    @pytest.mark.parametrize("bound", ["--lower=abc", "--lower=0,1", "--upper=x",
                                       "--upper=1,2"])
    def test_bad_quad_oracle_bound_is_two(self, bound):
        proc = run_cli("oracle", "--k", "2", "--nu", "10", bound)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    def test_mc_oracle_rejects_non_raw_kind(self):
        proc = run_cli("oracle", "--kind", "central", "--k", "2", "--nu", "9",
                       "--method", "mc")
        assert proc.returncode == 2

    @pytest.mark.parametrize("argv", [
        ("--k", "5,5", "--kind", "central", "--nu", "9"),
        ("--k", "2,1", "--kind", "abs", "--mu", "1,2", "--nu", "9"),
        ("--k", "1", "--kind", "central", "--lower", "0", "--nu", "9"),
    ])
    def test_verify_non_raw_multivariate_or_truncated_is_two(self, argv):
        # these moments exist only as raw moments; --kind must not be ignored
        proc = run_cli("verify", *argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "--kind raw" in proc.stderr

    def test_estimation_failure_is_four(self):
        proc = run_cli("oracle", "--k", "1", "--nu", "5", "--method", "mc",
                       "--samples", "1000", "--lower", "500", "--upper", "501")
        assert proc.returncode == 4
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, SCHEMA)
        assert payload["value"] is None
        assert payload["reason"].startswith("numerical non-convergence")

    @pytest.mark.parametrize("argv", [
        ("one-d", "--k", "30", "--mu", "1e20", "--nu", "100"),
        ("multi", "--k", "30,0", "--mu", "1e20,0", "--nu", "100"),
        ("one-d", "--kind", "abs", "--k", "31", "--mu", "1e20", "--nu", "100"),
        ("one-d", "--kind", "central", "--k", "30", "--sigma", "1e-300", "--nu", "100"),
    ])
    def test_overflow_is_four(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == 4, proc.stderr
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, SCHEMA)
        assert list(payload.keys()) == RESPONSE_KEYS
        assert payload["value"] is None
        assert payload["defined"] is False
        assert payload["reason"].startswith("numerical overflow")
        assert proc.stderr.splitlines() == [f"error: {payload['reason']}"]

    def test_huge_recursion_lattice_is_two(self):
        # the scalar recursion raised RecursionError here (a traceback, exit 1)
        proc = run_cli("multi", "--k", "600,600", "--mu", "0.1,0.2", "--nu", "1e6")
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "lattice" in lines[0]
        p = TParamsND([0.1, 0.2], [[400.0, 100.0], [100.0, 300.0]], 1e6)
        payload = run_json("multi", "--k", "300,2", "--mu", "0.1,0.2", "--nu", "1e6",
                           "--sigma-mat", "[[400,100],[100,300]]")
        assert payload["value"] == raw_moment_nd((300, 2), p).value
        assert payload["diagnostics"]["reciprocal_powers"] == 151

    def test_bounded_four_dimensional_truncation_is_two(self):
        proc = run_cli("truncated", "--k", "1,0,0,0", "--lower=0,0,0,0", "--nu", "10")
        assert proc.returncode == 2
        assert "n <= 3" in proc.stderr
        assert run_cli("truncated", "--k", "1,1,0,2", "--nu", "10").returncode == 0

    def test_verify_failure_is_one(self):
        # the literal recursion is biased at total degree 4: it gives
        # 3 nu^2/(nu-2)^2 = 4.32 where the moment is 3 nu^2/((nu-2)(nu-4)) = 5.4,
        # far outside four Monte Carlo standard errors
        proc = run_cli("verify", "--k", "4,0", "--nu", "12", "--mode", "literal",
                       "--method", "mc", "--samples", "100000", "--seed", "1")
        assert proc.returncode == 1
        assert "FAIL" in proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["diagnostics"]["passed"] is False

    def test_nan_location_is_two(self):
        proc = run_cli("one-d", "--k", "2", "--mu", "nan", "--nu", "9")
        assert proc.returncode == 2
        assert "mu must not be NaN" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv", [
        ["truncated", "--k", "2", "--lower=-1", "--nu", "5", "--sigma-mat", "[[Infinity]]"],
        ["truncated", "--k", "2", "--lower=-1", "--nu", "5", "--sigma-mat", "[[NaN]]"],
        ["multi", "--k", "2,0", "--nu", "5", "--sigma-mat", "[[Infinity,0],[0,1]]"],
    ])
    def test_non_finite_matrix_is_two(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert "finite entries" in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr

    def test_huge_matrix_matches_the_scalar_route(self):
        # the symmetrized [[1e308]] once overflowed to inf and divided by zero
        argv = ("truncated", "--k", "2", "--lower=-1", "--nu", "5")
        by_matrix = run_json(*argv, "--sigma-mat", "[[1e308]]")
        by_scalar = run_json(*argv, "--sigma", "1e308")
        assert by_matrix["value"] == by_scalar["value"] == 1.6666666666666667e-308

    def test_invalid_env_seed_is_two(self):
        proc = run_cli("oracle", "--k", "1", "--nu", "9", "--method", "mc",
                       "--samples", "1000", env_extra={"TMOMENT_SEED": "abc"})
        assert proc.returncode == 2


class TestSeeding:
    MC_ARGS = ("oracle", "--k", "2,1", "--nu", "12",
               "--sigma-mat", "[[1.3,0.2],[0.2,0.9]]", "--samples", "50000")

    def test_fixed_seed_runs_are_byte_identical(self):
        a = run_cli(*self.MC_ARGS, "--seed", "777")
        b = run_cli(*self.MC_ARGS, "--seed", "777")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_env_seed_matches_flag_seed(self):
        via_flag = run_cli(*self.MC_ARGS, "--seed", "777")
        via_env = run_cli(*self.MC_ARGS, env_extra={"TMOMENT_SEED": "777"})
        assert via_flag.stdout == via_env.stdout

    def test_flag_overrides_env(self):
        flagged = run_cli(*self.MC_ARGS, "--seed", "777",
                          env_extra={"TMOMENT_SEED": "1"})
        plain = run_cli(*self.MC_ARGS, "--seed", "777")
        assert flagged.stdout == plain.stdout

    def test_default_seed_is_12345(self):
        default = run_cli(*self.MC_ARGS)
        explicit = run_cli(*self.MC_ARGS, "--seed", "12345")
        assert default.stdout == explicit.stdout
        assert json.loads(default.stdout)["diagnostics"]["seed"] == 12345

    def test_different_seeds_differ(self):
        a = run_cli(*self.MC_ARGS, "--seed", "1")
        b = run_cli(*self.MC_ARGS, "--seed", "2")
        assert a.stdout != b.stdout


class TestFormats:
    def test_plain_and_json_share_float_text(self):
        args = ("one-d", "--kind", "central", "--k", "2", "--mu", "7",
                "--sigma", "1", "--nu", "5")
        as_json = run_cli(*args)
        as_plain = run_cli(*args, "--format", "plain")
        value_text = None
        for line in as_plain.stdout.splitlines():
            if line.startswith("value "):
                value_text = line.split(" ", 1)[1]
        assert value_text is not None
        assert value_text in as_json.stdout
        assert json.loads(as_json.stdout)["value"] == float(value_text)

    def test_float_text_round_trips_exactly(self):
        payload = run_json("one-d", "--kind", "central", "--k", "2", "--mu", "7",
                           "--sigma", "1", "--nu", "5")
        ref = central_moment(2, TParams1D(7.0, 1.0, 5.0)).value
        # 17 significant digits reproduce the double exactly
        assert payload["value"] == ref


class TestConventionsAndFiles:
    def test_scale_convention_matches_inverted_precision(self):
        scale_mat = "[[0.5,0.1],[0.1,2.0]]"
        prec = np.linalg.inv(np.array([[0.5, 0.1], [0.1, 2.0]]))
        prec_mat = json.dumps(prec.tolist())
        a = run_json("multi", "--k", "2,1", "--mu", "0.3,-0.5", "--nu", "10",
                     "--sigma-mat", scale_mat, "--matrix-convention", "scale")
        b = run_json("multi", "--k", "2,1", "--mu", "0.3,-0.5", "--nu", "10",
                     "--sigma-mat", prec_mat)
        assert abs(a["value"] - b["value"]) <= 1e-12 * max(1.0, abs(b["value"]))

    def test_sigma_file(self, tmp_path):
        mat = "[[2.0, 0.6], [0.6, 1.4]]"
        path = tmp_path / "sigma.json"
        path.write_text(mat)
        inline = run_json("multi", "--k", "1,1", "--mu", "0.3,-0.5", "--nu", "12",
                          "--sigma-mat", mat)
        from_file = run_json("multi", "--k", "1,1", "--mu", "0.3,-0.5", "--nu", "12",
                             "--sigma-file", str(path))
        assert inline["value"] == from_file["value"]

    def test_sigma_file_conflicts_with_inline(self, tmp_path):
        path = tmp_path / "sigma.json"
        path.write_text("[[1.0]]")
        proc = run_cli("multi", "--k", "2", "--nu", "9", "--sigma-file", str(path),
                       "--sigma-mat", "[[1.0]]")
        assert proc.returncode == 2

    def test_missing_sigma_file(self):
        proc = run_cli("multi", "--k", "2", "--nu", "9",
                       "--sigma-file", "/nonexistent/sigma.json")
        assert proc.returncode == 2
        assert "could not read" in proc.stderr

    def test_scale_flag_on_one_d(self):
        # --scale s is --sigma 1/s^2
        a = run_json("one-d", "--kind", "central", "--k", "2", "--nu", "6",
                     "--scale", "2")
        b = run_json("one-d", "--kind", "central", "--k", "2", "--nu", "6",
                     "--sigma", "0.25")
        assert a["value"] == b["value"]

    def test_scale_flag_on_truncated_verify(self):
        # the formula once ignored --scale here and compared sigma = 1 with
        # the oracle's sigma = 0.25 (FAIL, exit 1)
        payload = run_json("verify", "--k", "2", "--scale", "2", "--lower", "0", "--nu", "9",
                           "--method", "mc", "--samples", "20000")
        assert payload["diagnostics"]["passed"] is True
        direct = run_json("truncated", "--k", "2", "--sigma", "0.25", "--lower", "0", "--nu", "9")
        assert payload["value"] == direct["value"]

    @pytest.mark.parametrize("argv", [
        ("--k", "2", "--scale", "2", "--sigma", "1", "--lower", "0", "--nu", "9"),
        ("--k", "1,0", "--scale", "2", "--nu", "9"),
    ])
    def test_scale_conflicts_on_verify_are_two(self, argv):
        proc = run_cli("verify", *argv)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "--scale" in proc.stderr


class TestComputedValues:
    def test_via_central_matches_direct(self):
        direct = run_json("one-d", "--k", "3", "--mu", "1.3", "--sigma", "0.5",
                          "--nu", "8")
        recombined = run_json("one-d", "--k", "3", "--mu", "1.3", "--sigma", "0.5",
                              "--nu", "8", "--via-central")
        assert abs(direct["value"] - recombined["value"]) \
            <= 1e-10 * max(1.0, abs(direct["value"]))
        assert recombined["formula"] == "raw-from-central"

    def test_multi_matches_module(self):
        p = TParamsND([0.3, -0.5], [[2.0, 0.6], [0.6, 1.4]], 12.0)
        payload = run_json("multi", "--k", "2,1", "--mu", "0.3,-0.5", "--nu", "12",
                           "--sigma-mat", "[[2.0,0.6],[0.6,1.4]]")
        assert payload["value"] == raw_moment_nd((2, 1), p).value

    def test_literal_mode(self):
        corrected = run_json("multi", "--k", "4,0", "--nu", "10")
        literal = run_json("multi", "--k", "4,0", "--nu", "10", "--mode", "literal")
        assert literal["mode"] == "literal"
        ratio = corrected["value"] / literal["value"]
        assert abs(ratio - 8.0 / 6.0) < 1e-9

    def test_truncated_bivariate_matches_module(self):
        p = TParamsND([0.2, -0.1], [[1.2, 0.4], [0.4, 0.9]], 9.0)
        r = Rectangle([-1.0, -math.inf], [2.0, 1.0])
        # bounds with a leading minus need the --opt=value spelling, as usual
        # for argparse-style interfaces
        payload = run_json("truncated", "--k", "1,1", "--mu", "0.2,-0.1", "--nu", "9",
                           "--sigma-mat", "[[1.2,0.4],[0.4,0.9]]",
                           "--lower=-1,-inf", "--upper", "2,1")
        assert payload["value"] == trunc_t_moment((1, 1), r, p).value

    def test_verify_mc_multivariate_passes(self):
        payload = run_json("verify", "--k", "2,1", "--mu", "0.3,-0.5", "--nu", "12",
                           "--sigma-mat", "[[2.0,0.3],[0.3,1.5]]", "--samples",
                           "200000", "--seed", "4", "--tol", "1e-6")
        assert payload["diagnostics"]["method"] == "mc"
        assert payload["diagnostics"]["passed"] is True

    def test_verify_literal_mode_passes(self):
        # Literal values are numpy floats; the pass flag must still serialize.
        payload = run_json("verify", "--k", "1,1", "--mode", "literal", "--nu", "9",
                           "--samples", "20000", "--seed", "5")
        assert payload["mode"] == "literal"
        assert payload["diagnostics"]["passed"] is True

    def test_verify_truncated_quad(self):
        proc = run_cli("verify", "--k", "2", "--mu", "0.5", "--sigma", "2",
                       "--nu", "7", "--lower", "-1", "--upper", "2", "--tol", "1e-7")
        assert proc.returncode == 0, proc.stderr
        assert "pass" in proc.stderr


def run_in_process(*argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of the CLI's ``main`` on ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _one_d_boxes():
    """A seeded grid of 1-D requests: (k, lower, upper, mu, sigma, nu), None for an open side."""
    rng = np.random.default_rng(20240611)
    cases = []
    for i in range(48):
        side = ("bounded", "lower", "upper", "full")[i % 4]
        lower = float(rng.uniform(-8.0, 4.0))
        upper = lower + float(rng.uniform(0.05, 8.0))
        cases.append((int(rng.integers(0, 7)),
                      lower if side in ("bounded", "lower") else None,
                      upper if side in ("bounded", "upper") else None,
                      float(rng.uniform(-5.0, 5.0)), float(10.0 ** rng.uniform(-1.0, 1.0)),
                      1.5 + 58.5 * float(rng.uniform()) ** 3))
    # a box far from mu, where the recurrence hands over to the panels
    cases.append((6, -1.0, 1.0, 5.0, 1.0, 30.0))
    return cases


class TestOneDimensionalTruncatedRoute:
    """A 1-D corrected ``truncated`` request given by scalars is served by
    t1d without the n-D parameter and box types; its output must be that of
    the library route ``trunc_t_moment(k, Rectangle, TParamsND)``."""

    def test_stdout_matches_the_library_route(self):
        seen = set()
        for k, lower, upper, mu, sigma, nu in _one_d_boxes():
            argv = ["truncated", f"--k={k}", f"--mu={mu!r}", f"--sigma={sigma!r}", f"--nu={nu!r}"]
            argv += [f"--lower={lower!r}"] if lower is not None else []
            argv += [f"--upper={upper!r}"] if upper is not None else []
            r = trunc_t_moment(k, Rectangle([-math.inf if lower is None else lower],
                                            [math.inf if upper is None else upper]),
                               TParamsND([mu], [[sigma]], nu))
            response, code = _answer(r)
            assert run_in_process(*argv)[:2] == (code, _to_json(response) + "\n"), argv
            bounded = lower is not None and upper is not None
            seen.add(("open", "bounded")[bounded] + (" k >= nu" if k >= nu else ""))
            if "quadrature_panels" in r.diagnostics:
                seen.add("panels" if k < nu else "panels k >= nu")
        assert seen >= {"open", "bounded", "open k >= nu", "bounded k >= nu", "panels",
                        "panels k >= nu"}, seen

    @pytest.mark.parametrize("route", [(), ("--sigma-mat", "[[1]]"), ("--mode", "literal")])
    @pytest.mark.parametrize("bad", [("--lower", "1", "--upper", "1"),
                                     ("--lower", "2", "--upper", "1"),
                                     ("--lower", "nan"), ("--upper", "nan"),
                                     ("--lower=-1", "--nu", "inf")])
    def test_bad_box_or_nu_is_two_on_both_routes(self, route, bad):
        code, out, err = run_in_process("truncated", "--k", "2", "--nu", "5", *route, *bad)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_numpy_scalars_serialize_as_before(self):
        payload = {"flag": np.bool_(True), "count": np.int64(7), "single": np.float32(0.1),
                   "list": [np.float64(2.5), np.bool_(False), np.int32(-3)]}
        assert _to_json(payload) == ('{"flag": true, "count": 7, "single": 0.10000000149011612, '
                                     '"list": [2.5, false, -3]}')
