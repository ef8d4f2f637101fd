"""Command line interface.

Subcommands: one-d, multi, truncated, oracle, verify. Results go to stdout as
a single JSON object (see schemas/response-v1.json); human-readable
diagnostics go to stderr. Floats are serialized with 17 significant digits so
parsing the output reproduces the doubles bit for bit.

Exit codes: 0 success, 1 verification mismatch, 2 usage or malformed input,
3 undefined moment (value is null in the response), 4 numerical
non-convergence, overflow (a value beyond the double range) or failed
estimation. The oracle seed is taken from --seed, else the TMOMENT_SEED
environment variable, else 12345.

Each subcommand imports only the modules it needs, when its request
arrives: one-d requests and 1-D corrected truncated requests given by
scalars (no --sigma-mat or --sigma-file) run on the pure-Python closed forms
in ``t1d`` and load no numpy; multi and the other truncated requests load
numpy, and 2-D and 3-D truncated requests also ``scipy.special`` (Owen's T,
through the truncated module) and nothing else from SciPy; oracle and verify
load numpy and the oracle module, which needs no SciPy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cached_property
from typing import TYPE_CHECKING

from . import t1d
from .errors import DomainError, EstimationError, NonConvergenceError, UndefinedMomentError
from .t1d import DEFAULT_SEED, KINDS, MomentResult, TParams1D

if TYPE_CHECKING:
    import numpy as np

    from .tnd import TParamsND
    from .truncated import Rectangle

SCHEMA_VERSION = "response-v1"


class _UsageError(Exception):
    pass


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    return format(x, ".17g")


def _scalar(obj):
    """``obj``, or the Python scalar a numpy scalar holds.

    numpy is looked up, not imported: if no module has imported it, no numpy
    object can exist, and a numpy-free request does not load it here.
    """
    np = sys.modules.get("numpy")
    return obj.item() if np is not None and isinstance(obj, np.generic) else obj


def _to_json(obj) -> str:
    obj = _scalar(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        return _format_float(float(obj))
    if isinstance(obj, dict):
        items = ", ".join(f"{_to_json(str(k))}: {_to_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(response: dict, fmt: str) -> None:
    if fmt == "json":
        print(_to_json(response))
        return
    for key, val in response.items():
        val = _scalar(val)
        if isinstance(val, dict):
            print(f"{key} {_to_json(val)}")
        elif isinstance(val, float):
            print(f"{key} {_format_float(float(val))}")
        else:
            print(f"{key} {val}")


def _response(value, *, defined=True, reason="", formula="", mode="", diagnostics=None) -> dict:
    if defined and not math.isfinite(value):
        raise OverflowError(f"the value {value!r} is not a finite double")
    return {
        "schema": SCHEMA_VERSION,
        "value": float(value) if defined else None,
        "defined": bool(defined),
        "reason": reason,
        "formula": formula,
        "mode": mode,
        "diagnostics": diagnostics or {},
    }


def _from_result(r: MomentResult) -> dict:
    return _response(r.value if r.defined else None, defined=r.defined, reason=r.reason,
                     formula=r.formula, mode=r.mode, diagnostics=dict(r.diagnostics))


def _answer(r: MomentResult) -> tuple[dict, int]:
    return _from_result(r), (0 if r.defined else 3)


def _parse_floats(text, what: str) -> list[float]:
    if isinstance(text, (int, float)):
        return [float(text)]
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as e:
        raise _UsageError(f"could not parse {what} {text!r}: {e}") from None


def _parse_scalar(text, what: str) -> float:
    vals = _parse_floats(text, what)
    if len(vals) != 1:
        raise _UsageError(f"expected a single {what} entry for a one-dimensional request")
    return vals[0]


def _parse_orders(text: str) -> list[int]:
    vals = _parse_floats(text, "order list")
    orders = []
    for v in vals:
        if not v.is_integer() or v < 0:
            raise _UsageError(f"orders must be nonnegative integers, got {v!r}")
        orders.append(int(v))
    if not orders:
        raise _UsageError("order list is empty")
    return orders


def _parse_matrix(args, dim: int) -> np.ndarray:
    import numpy as np

    source = "command line"
    text = args.sigma_mat
    if getattr(args, "sigma_file", None):
        if text not in (None, "identity"):
            raise _UsageError("give either --sigma-mat or --sigma-file, not both")
        source = args.sigma_file
        try:
            with open(args.sigma_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise _UsageError(f"could not read matrix file: {e}") from None
    if text is None or text == "identity":
        mat = np.eye(dim)
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise _UsageError(
                f"failed to parse matrix from {source}: {e.msg} at position {e.pos} "
                f"(line {e.lineno}, column {e.colno})") from None
        try:
            mat = np.array(data, dtype=float)
        except (TypeError, ValueError) as e:
            raise _UsageError(f"matrix from {source} is not numeric: {e}") from None
        if mat.shape != (dim, dim):
            raise _UsageError(
                f"matrix from {source} has shape {mat.shape}, expected ({dim}, {dim})")
    if getattr(args, "matrix_convention", "precision") == "scale":
        # A scale-convention matrix S parameterizes the same distribution as
        # the precision-convention S^(-1).
        try:
            mat = np.linalg.inv(np.asarray(mat, dtype=float))
        except np.linalg.LinAlgError as e:
            raise _UsageError(f"scale-convention matrix is singular: {e}") from None
    return mat


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("TMOMENT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"TMOMENT_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _sigma_arg(args) -> float | None:
    """The 1-D sigma from --sigma or --scale (sigma = 1/s^2), None if neither."""
    sigma = getattr(args, "sigma", None)
    if getattr(args, "scale", None) is not None:
        if sigma is not None:
            raise _UsageError("give either --sigma or --scale, not both")
        sigma = t1d.precision_from_scale(args.scale)
    return sigma


def _params_1d(args) -> TParams1D:
    sigma = _sigma_arg(args)
    if sigma is None:
        sigma = 1.0
    mu = _parse_scalar(args.mu, "--mu") if args.mu is not None else 0.0
    try:
        return TParams1D(mu, sigma, args.nu)
    except DomainError as e:
        raise _UsageError(str(e)) from None


def _params_nd(args, dim: int) -> TParamsND:
    from .tnd import TParamsND

    mu = _parse_floats(args.mu, "--mu") if args.mu is not None else [0.0] * dim
    if len(mu) != dim:
        raise _UsageError(f"--mu has {len(mu)} entries, expected {dim}")
    sigma = _sigma_arg(args)
    if sigma is not None:
        if dim != 1 or args.sigma_mat is not None or getattr(args, "sigma_file", None):
            raise _UsageError("--sigma and --scale apply only to one-dimensional requests")
        mat = [[sigma]]
    else:
        mat = _parse_matrix(args, dim)
    try:
        return TParamsND(mu, mat, args.nu)
    except DomainError as e:
        raise _UsageError(str(e)) from None


def _bounds_1d(args) -> tuple[float, float]:
    """The 1-D interval of --lower and --upper; a side not given is infinite."""
    return (_parse_scalar(args.lower, "--lower") if args.lower is not None else -math.inf,
            _parse_scalar(args.upper, "--upper") if args.upper is not None else math.inf)


def _parse_rectangle(args, dim: int) -> Rectangle | None:
    if args.lower is None and args.upper is None:
        return None
    from .truncated import Rectangle

    lower = _parse_floats(args.lower, "--lower") if args.lower is not None else [-math.inf] * dim
    upper = _parse_floats(args.upper, "--upper") if args.upper is not None else [math.inf] * dim
    if len(lower) != dim or len(upper) != dim:
        raise _UsageError(f"--lower/--upper must each have {dim} entries")
    try:
        return Rectangle(lower, upper)
    except DomainError as e:
        raise _UsageError(str(e)) from None


def _one_d_moment(kind: str, k: int, p: TParams1D, via_central: bool = False) -> MomentResult:
    if via_central:
        return t1d.raw_from_central(k, p)
    if kind == "raw":
        return t1d.raw_moment(k, p)
    if kind == "central":
        return t1d.central_moment(k, p)
    if kind == "abs":
        return t1d.abs_moment(k, p)
    return t1d.central_abs_moment(k, p)


def _multi_moment(orders, p: TParamsND, mode: str, kind: str = "raw") -> MomentResult:
    import numpy as np

    from . import tnd

    if kind == "abs":
        if np.any(p.mu != 0) or not np.array_equal(p.sigma_mat, np.eye(p.dim)):
            raise _UsageError("--kind abs has a closed form only for mu = 0 and the "
                              "identity matrix")
        return tnd.std_abs_moment_nd(orders, p.nu)
    if mode == "literal":
        return tnd.raw_moment_nd_literal(orders, p)
    return tnd.raw_moment_nd(orders, p)


def _truncated_moment(orders, rect: Rectangle | None, p: TParamsND, mode: str,
                      tol: float) -> MomentResult:
    """The truncated moment over ``rect``; None means the whole space."""
    from . import truncated

    if rect is None:
        rect = truncated.Rectangle.full_space(p.dim)
    if mode == "literal":
        return truncated.trunc_t_moment_literal(orders, rect, p, tol=tol)
    return truncated.trunc_t_moment(orders, rect, p, tol=tol)


def _cmd_one_d(args) -> tuple[dict, int]:
    p = _params_1d(args)
    if args.via_central and args.kind != "raw":
        raise _UsageError("--via-central applies only to --kind raw")
    return _answer(_one_d_moment(args.kind, args.k, p, args.via_central))


def _cmd_multi(args) -> tuple[dict, int]:
    orders = _parse_orders(args.k)
    p = _params_nd(args, len(orders))
    return _answer(_multi_moment(orders, p, args.mode, args.kind))


def _truncated_1d(k: int, args) -> MomentResult:
    """A 1-D corrected truncated moment from scalar options, without numpy.

    It makes the checks of the n-D route, whose ``TParamsND`` and
    ``Rectangle`` would load numpy, on the scalars: those of ``TParams1D``
    and lower < upper, which also rejects a NaN bound.
    """
    p = _params_1d(args)
    lower, upper = _bounds_1d(args)
    if not lower < upper:
        raise _UsageError(f"--lower must be below --upper, got {lower!r} and {upper!r}")
    return t1d._trunc_t_moment(k, lower, upper, p.mu, p.sigma, p.nu)


def _cmd_truncated(args) -> tuple[dict, int]:
    orders = _parse_orders(args.k)
    if (len(orders) == 1 and args.mode == "corrected" and args.sigma_mat is None
            and not args.sigma_file):
        return _answer(_truncated_1d(orders[0], args))
    p = _params_nd(args, len(orders))
    rect = _parse_rectangle(args, p.dim)
    return _answer(_truncated_moment(orders, rect, p, args.mode, args.tol))


class _Request:
    """The parsed command line of an oracle or verify request.

    Each part is parsed once, on first use, so the formula and the oracle
    share one parse and a malformed part is reported where it is first needed.
    """

    def __init__(self, args):
        self.args = args
        self.orders = _parse_orders(args.k)
        self.multivariate = (args.sigma_mat is not None or bool(getattr(args, "sigma_file", None))
                             or len(self.orders) > 1)

    @cached_property
    def params_1d(self) -> TParams1D:
        return _params_1d(self.args)

    @cached_property
    def params_nd(self) -> TParamsND:
        return _params_nd(self.args, len(self.orders))

    @cached_property
    def rect(self) -> Rectangle | None:
        return _parse_rectangle(self.args, len(self.orders))


def _oracle_estimate(req: _Request, seed) -> tuple[float, dict, str]:
    """Shared by the oracle and verify subcommands.

    Returns (value, diagnostics, formula tag). 1-D untruncated and 1-D
    truncated requests integrate the defining integral; everything else is
    seeded Monte Carlo.
    """
    from .oracle import mc_moment_nd, quad_moment_1d
    from .tnd import TParamsND

    args = req.args
    if req.multivariate and args.method == "quad":
        raise _UsageError("the quadrature oracle supports one-dimensional requests only")
    if not req.multivariate and args.method != "mc":
        p1 = req.params_1d
        res = quad_moment_1d(args.kind, req.orders[0], p1, bounds=_bounds_1d(args), tol=args.tol)
        diag = {"method": "quad", "est_abs_error": res.est_abs_error,
                "evaluations": res.evaluations}
        return res.value, diag, "oracle-quad"
    if args.kind != "raw":
        raise _UsageError("the Monte Carlo oracle supports --kind raw only")
    if req.multivariate:
        p = req.params_nd
    else:
        p1 = req.params_1d
        p = TParamsND([p1.mu], [[p1.sigma]], p1.nu)
    est = mc_moment_nd(req.orders, p, rect=req.rect, n_samples=args.samples, seed=seed)
    diag = {"method": "mc", "std_error": est.std_error,
            "n_samples": est.n_samples, "seed": est.seed}
    return est.value, diag, "oracle-mc"


def _cmd_oracle(args) -> tuple[dict, int]:
    req = _Request(args)
    value, diag, tag = _oracle_estimate(req, _resolve_seed(args))
    return _response(value, formula=tag, mode="oracle", diagnostics=diag), 0


def _verify_formula(req: _Request) -> MomentResult:
    """The closed form verify checks, from the routine of the matching subcommand."""
    args = req.args
    if not (req.multivariate or args.lower is not None or args.upper is not None):
        return _one_d_moment(args.kind, req.orders[0], req.params_1d)
    if args.kind != "raw":
        raise _UsageError("multivariate and truncated moments are raw moments; use --kind raw")
    p = req.params_nd
    if req.rect is None:
        return _multi_moment(req.orders, p, args.mode)
    return _truncated_moment(req.orders, req.rect, p, args.mode, args.tol)


def _cmd_verify(args) -> tuple[dict, int]:
    req = _Request(args)
    seed = _resolve_seed(args)
    formula = _verify_formula(req)
    if not formula.defined:
        return _from_result(formula), 3
    oracle_value, diag, _ = _oracle_estimate(req, seed)
    diff = abs(formula.value - oracle_value)
    if diag["method"] == "mc":
        allowed = max(4.0 * diag["std_error"], args.tol)
    else:
        allowed = args.tol * max(1.0, abs(oracle_value))
    passed = diff <= allowed
    diag.update({"oracle_value": oracle_value, "difference": diff,
                 "allowed_difference": allowed, "passed": passed})
    response = _response(formula.value, formula=formula.formula,
                         mode=formula.mode, diagnostics=diag)
    print(f"verify: |formula - oracle| = {diff:.3e}, allowed {allowed:.3e} -> "
          f"{'pass' if passed else 'FAIL'}", file=sys.stderr)
    return response, (0 if passed else 1)


def _add_format(sub) -> None:
    sub.add_argument("--format", choices=("json", "plain"), default="json",
                     help="output format (values are identical in both)")


def _add_nd_params(sub) -> None:
    sub.add_argument("--mu", help="comma-separated location vector (default zeros)")
    sub.add_argument("--sigma-mat", help="'identity' or an inline JSON matrix")
    sub.add_argument("--sigma-file", help="path to a JSON matrix file")
    sub.add_argument("--matrix-convention", choices=("precision", "scale"),
                     default="precision",
                     help="how to read the matrix; a scale matrix S means precision S^(-1)")
    sub.add_argument("--nu", type=float, required=True, help="degrees of freedom")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmoment",
        description="Closed-form moments of generalized Student's t distributions "
                    "(precision-like sigma convention).")
    subs = parser.add_subparsers(dest="command", required=True)

    one = subs.add_parser("one-d", help="univariate closed-form moments")
    one.add_argument("--kind", choices=KINDS, default="raw")
    one.add_argument("--k", type=int, required=True, help="moment order")
    one.add_argument("--mu", type=float, default=0.0)
    one.add_argument("--sigma", type=float, default=None,
                     help="precision-like sigma (default 1)")
    one.add_argument("--scale", type=float, default=None,
                     help="conventional scale s, converted via sigma = 1/s^2")
    one.add_argument("--nu", type=float, required=True)
    one.add_argument("--via-central", action="store_true",
                     help="recombine the raw moment from central moments")
    _add_format(one)

    multi = subs.add_parser("multi", help="multivariate mixed moments")
    multi.add_argument("--kind", choices=("raw", "abs"), default="raw")
    multi.add_argument("--k", required=True, help="comma-separated orders, e.g. 2,2")
    multi.add_argument("--mode", choices=("corrected", "literal"), default="corrected")
    _add_nd_params(multi)
    _add_format(multi)

    trunc = subs.add_parser("truncated", help="moments over axis-aligned rectangles")
    trunc.add_argument("--k", required=True, help="comma-separated orders")
    trunc.add_argument("--lower", help="comma-separated lower bounds (-inf allowed)")
    trunc.add_argument("--upper", help="comma-separated upper bounds (inf allowed)")
    trunc.add_argument("--mode", choices=("corrected", "literal"), default="corrected")
    trunc.add_argument("--sigma", type=float, default=None,
                       help="1-D shortcut for --sigma-mat [[sigma]]")
    trunc.add_argument("--tol", type=float, default=1e-9,
                       help="absolute tolerance of the mixing quadrature (2-D, 3-D and "
                            "literal mode; 1-D corrected moments are closed-form and do "
                            "not use it)")
    _add_nd_params(trunc)
    _add_format(trunc)

    def add_oracle_args(sub, with_mode: bool):
        sub.add_argument("--kind", choices=KINDS, default="raw")
        sub.add_argument("--k", required=True, help="order or comma-separated orders")
        sub.add_argument("--sigma", type=float, default=None)
        sub.add_argument("--scale", type=float, default=None)
        _add_nd_params(sub)
        sub.add_argument("--lower", help="truncation lower bound(s)")
        sub.add_argument("--upper", help="truncation upper bound(s)")
        sub.add_argument("--method", choices=("quad", "mc"), default=None)
        sub.add_argument("--samples", type=int, default=1_000_000)
        sub.add_argument("--seed", type=int, default=None,
                         help="overrides TMOMENT_SEED; default 12345")
        sub.add_argument("--tol", type=float, default=1e-8)
        if with_mode:
            sub.add_argument("--mode", choices=("corrected", "literal"), default="corrected")
        _add_format(sub)

    oracle_p = subs.add_parser("oracle", help="quadrature / Monte Carlo estimates only")
    add_oracle_args(oracle_p, with_mode=False)

    verify_p = subs.add_parser("verify", help="formula vs oracle with pass/fail")
    add_oracle_args(verify_p, with_mode=True)

    return parser


_HANDLERS = {
    "one-d": _cmd_one_d,
    "multi": _cmd_multi,
    "truncated": _cmd_truncated,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        response, code = _HANDLERS[args.command](args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except UndefinedMomentError as e:
        _emit(_response(None, defined=False, reason=str(e)), args.format)
        return 3
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (NonConvergenceError, EstimationError) as e:
        _emit(_response(None, defined=False,
                        reason=f"numerical non-convergence: {e}"), args.format)
        print(f"error: {e}", file=sys.stderr)
        return 4
    except OverflowError as e:
        _emit(_response(None, defined=False, reason=f"numerical overflow: {e}"), args.format)
        print(f"error: numerical overflow: {e}", file=sys.stderr)
        return 4
    _emit(response, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
