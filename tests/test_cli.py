"""End-to-end CLI tests: JSON schema, exit codes, seeding, conventions."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from tmoments.t1d import TParams1D, central_moment
from tmoments.tnd import TParamsND, raw_moment_nd
from tmoments.truncated import Rectangle, trunc_t_moment

SCHEMA = json.loads((Path(__file__).resolve().parent.parent
                     / "schemas" / "response-v1.json").read_text())

RESPONSE_KEYS = ["schema", "value", "defined", "reason", "formula", "mode", "diagnostics"]


def run_cli(*argv, env_extra=None):
    env = os.environ.copy()
    env.pop("TMOMENT_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "tmoments", *argv],
                          capture_output=True, text=True, env=env)


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
        assert abs(payload["value"] - math.sqrt(2.0) / 2.0) < 1e-9
        assert payload["formula"] == "trunc-mixture"
        assert payload["diagnostics"]["quad_abs_error"] < 1e-8

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

    def test_mc_oracle_rejects_non_raw_kind(self):
        proc = run_cli("oracle", "--kind", "central", "--k", "2", "--nu", "9",
                       "--method", "mc")
        assert proc.returncode == 2

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

    def test_bounded_four_dimensional_truncation_is_two(self):
        proc = run_cli("truncated", "--k", "1,0,0,0", "--lower=0,0,0,0", "--nu", "10")
        assert proc.returncode == 2
        assert "n <= 3" in proc.stderr
        assert run_cli("truncated", "--k", "1,1,0,2", "--nu", "10").returncode == 0

    def test_verify_failure_is_one(self):
        # zero tolerance: the formula and quadrature values differ in the last
        # few ulps, so the check must report a mismatch
        proc = run_cli("verify", "--kind", "raw", "--k", "3", "--mu", "1.3",
                       "--sigma", "0.5", "--nu", "8", "--tol", "0")
        assert proc.returncode == 1
        assert "FAIL" in proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["diagnostics"]["passed"] is False

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

    def test_verify_truncated_quad(self):
        proc = run_cli("verify", "--k", "2", "--mu", "0.5", "--sigma", "2",
                       "--nu", "7", "--lower", "-1", "--upper", "2", "--tol", "1e-7")
        assert proc.returncode == 0, proc.stderr
        assert "pass" in proc.stderr
