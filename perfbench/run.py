#!/usr/bin/env python3
"""tmoments benchmark: one closed-loop client, three workloads, optional trace.

Run from the repository root:

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs a fixed
number of decks untraced and then twice traced, and reports per-layer
metrics, the tracing overhead and whether the work counters repeated.
Diagnostics go to stdout before the result; the last line is the JSON result.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread everywhere; children inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import array  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SCHEMA = ROOT / "schemas" / "response-v1.json"

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
# In process, a compute probe runs before the next request once this much
# serving time has passed since the last one.
PROBE_EVERY_S = 0.1
# Reference times of the two speed probes, about their medians on the 2-core
# host the benchmark was written on. Timings are scaled to a host where the
# probes take exactly this long.
COMPUTE_PROBE_REF_S = 0.020
PROCESS_PROBE_REF_S = 0.050
# Fixed per workload so a faster program keeps the same definition. cli: the
# highest percentile that leaves ten samples beyond it in a run at the run
# length in BENCHMARK.json (22 requests). closed-form and truncated serve about
# 60 000 and 600 requests, but above p99.9 and p90 the tail is a run's few
# largest 5-D recursions or 2-D boxes and varies by 10% or more between seeds.
TAIL_PERCENTILE = {"cli": 50.0, "closed-form": 99.9, "truncated": 90.0}
TRACE_DECKS = {"cli": 4, "closed-form": 50, "truncated": 1}
TYPED_FAILURES = ("NonConvergenceError", "EstimationError")

E2E_UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
             "throughput_rps": "1/s", "peak_rss_mb": "MB"}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "tmoments" / "__init__.py").is_file() or not SCHEMA.is_file():
    _fail(f"run from a tmoments checkout: {SRC / 'tmoments'} or {SCHEMA} is missing")
sys.path[:0] = [str(SRC), str(HERE)]
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

try:
    import numpy as np  # noqa: E402
    import workloads  # noqa: E402
except ImportError as exc:
    _fail(f"cannot import the benchmark's dependencies: {exc}")


# --- running requests ------------------------------------------------------

def _outcome(result):
    """(status, value, defined) of an in-process call."""
    if isinstance(result, (float, int, np.floating)):
        return ("ok", float(result), True)
    return ("ok", float(result.value), bool(result.defined))


class Outcomes:
    """Responses stored in flat arrays, so the harness's own memory does not
    grow with the number of requests served and show up in peak_rss_mb."""

    def __init__(self):
        self.values = array.array("d")
        self.defined = bytearray()
        self.other: dict[int, tuple] = {}

    def append(self, out) -> None:
        i = len(self.values)
        if out[0] == "ok":
            self.values.append(out[1])
            self.defined.append(out[2])
        else:
            self.values.append(math.nan)
            self.defined.append(0)
            self.other[i] = out

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        if i in self.other:
            return self.other[i]
        return ("ok", self.values[i], bool(self.defined[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def call_inprocess(tm, req):
    """One API call: (latency ns, outcome)."""
    t0 = time.perf_counter_ns()
    try:
        out = _outcome(workloads.invoke(tm, req))
    except Exception as exc:  # noqa: BLE001 - every failure is reported below
        out = ("error", type(exc).__name__, str(exc))
    return time.perf_counter_ns() - t0, out


def run_inprocess(tm, requests, tracer=None):
    lat, outcomes = [], []
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        ns, out = call_inprocess(tm, req)
        lat.append(ns)
        outcomes.append(out)
    return lat, outcomes


def run_cli_process(req):
    """One ``python -m tmoments`` process: (latency ns, outcome, peak RSS kB)."""
    t0 = time.perf_counter_ns()
    proc = subprocess.Popen([sys.executable, "-m", "tmoments", *req.args], cwd=ROOT,
                            env=CHILD_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out = proc.stdout.read()
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter_ns() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return elapsed, ("cli", proc.returncode, out.decode(), err.decode()), usage.ru_maxrss


def run_cli_inprocess(tm, requests, tracer=None):
    lat, outcomes = [], []
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter_ns()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tm.cli.main(list(req.args))
        lat.append(time.perf_counter_ns() - t0)
        outcomes.append(("cli", code, out.getvalue(), err.getvalue()))
    return lat, outcomes


# --- output checks ---------------------------------------------------------

def _source_hash() -> str:
    digest = hashlib.sha1()
    for name in ("workloads.py", "oracles.py"):
        digest.update((HERE / name).read_bytes())
    return digest.hexdigest()[:12]


def load_references(workload, seed, labelled):
    """References for (label, request) pairs, computed once per seed and cached."""
    import oracles

    OUT.mkdir(exist_ok=True)
    path = OUT / f"refs-{workload}-{seed}-{_source_hash()}.json"
    cache = json.loads(path.read_text()) if path.is_file() else {}
    missing = [(label, req) for label, req in labelled if label not in cache]
    for label, req in missing:
        try:
            cache[label] = oracles.reference(req.ref)
        except Exception as exc:  # noqa: BLE001 - an oracle failure is reported as such
            cache[label] = {"oracle_error": f"{type(exc).__name__}: {exc}"}
    if missing:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(cache))
        tmp.replace(path)
    return [cache[label] for label, _ in labelled]


def _cli_validator():
    import jsonschema

    return jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))


def check(tm, req, outcome, ref, validator):
    """None if the response is right, else (typed, description)."""
    if "oracle_error" in ref:
        return False, f"reference failed: {ref['oracle_error']}"
    if outcome[0] == "error":
        return outcome[1] in TYPED_FAILURES, f"{outcome[1]}: {outcome[2]}"
    slack = 0.0
    if outcome[0] == "cli":
        _, code, stdout, stderr = outcome
        if code != 0:
            return code == 4, f"exit code {code}: {stderr.strip()}"
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return False, f"stdout is not JSON: {exc}"
        problems = [e.message for e in validator.iter_errors(payload)]
        if problems:
            return False, f"schema: {problems[0]}"
        diag = payload["diagnostics"]
        if req.fn == "verify" and diag.get("passed") is not True:
            return False, "verify did not pass"
        if diag.get("method") == "mc":
            slack = 5.0 * diag["std_error"]
        value = math.nan if payload["value"] is None else payload["value"]
        defined = payload["defined"]
    else:
        _, value, defined = outcome
    if defined and not math.isfinite(value):
        return False, f"value {value} with defined=true"
    if ref.get("undefined"):
        return (None if not defined else (False, f"defined value {value} for an undefined order"))
    if not defined:
        return False, "defined=false for an order that exists"
    if ref.get("repeat"):
        again = _outcome(workloads.invoke(tm, req))[1]
        return None if again == value else (False, f"repeat gave {again!r}, first {value!r}")
    err = abs(value - ref["value"])
    if err <= ref["atol"] + slack:
        return None
    return False, f"value {value!r}, reference {ref['value']!r}, |diff| {err:.3e} > {ref['atol'] + slack:.3e}"


def check_all(tm, workload, seed, labelled, outcomes):
    refs = load_references(workload, seed, labelled)
    validator = _cli_validator() if workload == "cli" else None
    failures = []
    for (label, req), outcome, ref in zip(labelled, outcomes, refs):
        bad = check(tm, req, outcome, ref, validator)
        if bad is not None:
            typed, why = bad
            failures.append({"request": label, "fn": req.fn, "args": _plain(req.args),
                             "typed_error": typed, "problem": why})
    return failures


def _plain(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


# --- measurements ----------------------------------------------------------

def setup_probe(workload: str, seed: int) -> None:
    """Child side of ``setup_s``: import tmoments and serve the first request."""
    import tmoments

    req = workloads.deck(workload, seed, 0)[0]
    workloads.invoke(tmoments, req)


def setup_command(workload: str, seed: int) -> list[str]:
    if workload == "cli":
        first = workloads.deck(workload, seed, 0)[0]
        return [sys.executable, "-m", "tmoments", *first.args]
    return [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", workload,
            "--seed", str(seed)]


def time_setup(argv) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=False)
    return time.perf_counter() - t0


def compute_probe() -> float:
    """Seconds for a fixed kernel shaped like the in-process requests' work:
    QUADPACK over a scalar Python integrand that builds small arrays and calls
    ``math.erf`` (the 1-D mixing quadrature), then tensor Gauss-Legendre rules
    of a correlated 2-D normal density over a box (``tensor_quad``).

    SciPy is imported here, not at the top, so the setup probe's child loads
    only what tmoments itself loads."""
    from scipy.integrate import quad

    t0 = time.perf_counter()
    lo, hi = np.array([-0.3]), np.array([1.2])

    def mixed(u, j):
        s = np.sqrt(np.array([1.0 + u * u]))
        z = float(((hi - 0.1 * u) / s)[0]) / math.sqrt(2.0)
        w = float(((lo - 0.1 * u) / s)[0]) / math.sqrt(2.0)
        return 0.5 * (math.erf(z) - math.erf(w)) * math.exp(-u) * (1.0 + j * u)

    for j in range(120):
        quad(mixed, 0.0, 1.0, args=(j,), epsabs=1e-13, epsrel=1e-13, limit=200)
    nodes, weights = np.polynomial.legendre.leggauss(24)
    prec = np.array([[1.3, 0.4], [0.4, 0.9]])
    mean = np.array([0.1, -0.2])
    for _ in range(10):
        for panels in (1, 2, 4):
            xs, ws = [], []
            for a, b in ((-1.0, 2.0), (-1.5, 1.0)):
                edges = np.linspace(a, b, panels + 1)
                half = 0.5 * (edges[1:] - edges[:-1])
                mid = 0.5 * (edges[1:] + edges[:-1])
                xs.append((mid[:, None] + half[:, None] * nodes).ravel())
                ws.append((half[:, None] * weights).ravel())
            grid = np.stack([g.ravel() for g in np.meshgrid(*xs, indexing="ij")], axis=-1)
            d = grid - mean
            vals = np.exp(-0.5 * np.einsum("ij,jk,ik->i", d, prec, d)).reshape(
                xs[0].size, xs[1].size)
            for w in reversed(ws):
                vals = np.tensordot(vals, w, axes=([-1], [0]))
    return time.perf_counter() - t0


def process_probe() -> float:
    """Seconds for a bare ``python -c pass`` child: process start-up speed."""
    return time_setup([sys.executable, "-c", "pass"])


def warm_up(tm, workload: str, seed: int) -> None:
    """Serve one request of each function and dimension below 3 before timing."""
    compute_probe()
    if workload == "cli":
        return
    seen = set()
    for req in workloads.deck(workload, seed, 2**41):
        if req.dim < 3 and (req.fn, req.dim) not in seen:
            seen.add((req.fn, req.dim))
            with contextlib.suppress(Exception):
                workloads.invoke(tm, req)


def labelled_decks(workload, seed, first, last):
    return [(f"{d}.{j}", req) for d in range(first, last)
            for j, req in enumerate(workloads.deck(workload, seed, d))]


class Run:
    """What one timed loop measured: raw request and setup times, each with
    the host slowdown from the last speed probe before it."""

    def __init__(self, workload):
        self.lat = array.array("q")
        self.slow = array.array("d")
        self.outcomes = [] if workload == "cli" else Outcomes()
        self.decks = 0
        self.served_s = 0.0
        self.rss_kb = [0]
        self.setups = []
        self.setup_slow = []


def timed_loop(tm, workload, seed, seconds) -> Run:
    """Whole decks until ``seconds`` of serving time have passed.

    Other work on the host slows everything the benchmark runs, for fractions
    of a second to minutes and by up to half, so a speed probe runs just
    before the work it scales: ``process_probe`` before each ``cli`` request
    and each setup sample, ``compute_probe`` before an in-process request once
    PROBE_EVERY_S of serving has passed since the last. SETUP_REPEATS setup
    samples are spread over the run. Probes and setup samples are not serving
    time.
    """
    setup_argv = setup_command(workload, seed)
    run = Run(workload)
    slow, next_probe = 1.0, 0.0
    while run.served_s < seconds:
        for req in workloads.deck(workload, seed, run.decks):
            if (len(run.setups) < SETUP_REPEATS
                    and run.served_s >= len(run.setups) * seconds / SETUP_REPEATS):
                run.setup_slow.append(process_probe() / PROCESS_PROBE_REF_S)
                run.setups.append(time_setup(setup_argv))
            if workload == "cli":
                slow = process_probe() / PROCESS_PROBE_REF_S
                ns, out, maxrss = run_cli_process(req)
                run.rss_kb.append(maxrss)
            else:
                if run.served_s >= next_probe:
                    slow = compute_probe() / COMPUTE_PROBE_REF_S
                    next_probe = run.served_s + PROBE_EVERY_S
                ns, out = call_inprocess(tm, req)
            run.lat.append(ns)
            run.slow.append(slow)
            run.outcomes.append(out)
            run.served_s += ns / 1e9
        run.decks += 1
    if workload != "cli":
        run.rss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return run


def reuse_share(labelled) -> float:
    seen, repeats = set(), 0
    for _, req in labelled:
        repeats += req.key in seen
        seen.add(req.key)
    return repeats / len(labelled)


def import_breakdown() -> dict[str, float]:
    """import.* metrics from ``python -X importtime`` and a bare interpreter."""
    wanted = {"tmoments": "import.tmoments_ms", "scipy.integrate": "import.scipy_integrate_ms",
              "numpy": "import.numpy_ms"}
    samples = {name: [] for name in wanted.values()}
    samples["import.interpreter_ms"] = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tmoments"],
                              cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
                              check=True)
        found = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in wanted and parts[2] not in found:
                found[parts[2]] = int(parts[1]) / 1000.0
        for module, name in wanted.items():
            samples[name].append(found.get(module, 0.0))
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=CHILD_ENV, check=True)
        samples["import.interpreter_ms"].append((time.perf_counter() - t0) * 1e3)
    return {name: statistics.median(values) for name, values in samples.items()}


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import scipy

    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "git_commit": git_commit(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


# --- the two kinds of run --------------------------------------------------

def end_to_end(tm, args):
    warm_up(tm, args.workload, args.seed)
    run = timed_loop(tm, args.workload, args.seed, args.seconds)
    labelled = labelled_decks(args.workload, args.seed, 0, run.decks)
    failures = check_all(tm, args.workload, args.seed, labelled, run.outcomes)
    lat_ms = np.array(run.lat) / 1e6
    slow = np.array(run.slow)
    scaled_ms = lat_ms / slow
    setups = np.array(run.setups)
    pct = TAIL_PERCENTILE[args.workload]
    metrics = {
        "setup_s": float(np.median(setups / np.array(run.setup_slow))),
        "latency_p50_ms": float(np.median(scaled_ms)),
        "latency_tail_ms": float(np.percentile(scaled_ms, pct)),
        "throughput_rps": len(lat_ms) / (scaled_ms.sum() / 1e3),
        "peak_rss_mb": max(run.rss_kb) / 1024.0,
    }
    unscaled = {"setup_s": float(np.median(setups)),
                "latency_p50_ms": float(np.median(lat_ms)),
                "latency_tail_ms": float(np.percentile(lat_ms, pct)),
                "throughput_rps": len(lat_ms) / run.served_s}
    details = {"requests": len(lat_ms), "decks": run.decks, "served_s": run.served_s,
               "tail_percentile": pct,
               "beyond_tail": int(np.count_nonzero(scaled_ms > metrics["latency_tail_ms"])),
               "unscaled": unscaled, "slowdown_median": float(np.median(slow)),
               "slowdown_quartiles": np.percentile(slow, [25, 75]).tolist(),
               "setup_samples_s": run.setups, "setup_slowdowns": run.setup_slow,
               "input_reuse_share": reuse_share(labelled),
               "fail_frac": len(failures) / len(lat_ms)}
    return metrics, E2E_UNITS, details, len(lat_ms), failures


def traced(tm, args):
    import tmoments.cli  # noqa: F401 - the package does not import its CLI module
    from tracer import Tracer

    labelled = labelled_decks(args.workload, args.seed, 0, TRACE_DECKS[args.workload])
    if args.workload == "truncated":
        labelled += [(f"3d.{j}", req) for j, req in enumerate(workloads.three_d_group(args.seed))]
    requests = [req for _, req in labelled]
    run = run_cli_inprocess if args.workload == "cli" else run_inprocess
    warm_up(tm, args.workload, args.seed)
    base_lat, base_out = run(tm, requests)
    failures = check_all(tm, args.workload, args.seed, labelled, base_out)
    passes = []
    for _ in range(2):
        tracer = Tracer(tm)
        tracer.install()
        try:
            lat, out = run(tm, requests, tracer)
        finally:
            tracer.uninstall()
        passes.append((tracer, lat, out))
    metrics = import_breakdown()
    metrics.update(passes[0][0].metrics())
    metrics["trace.overhead_frac"] = sum(passes[0][1]) / sum(base_lat) - 1.0
    units = {name: ("ratio" if name == "trace.overhead_frac" else
                    "ms" if name.endswith("_ms") or ".call_ms." in name else "count")
             for name in metrics}
    second = passes[1][0].metrics()
    mismatched = [name for name in second
                  if units[name] == "count" and metrics[name] != second[name]]
    for tracer, _, out in passes:
        for (label, req), a, b in zip(labelled, base_out, out):
            if a[:3] != b[:3] and not (a[0] == "ok" and math.isnan(a[1]) and math.isnan(b[1])):
                failures.append({"request": label, "fn": req.fn, "args": _plain(req.args),
                                 "typed_error": False,
                                 "problem": f"traced response {b[:3]} differs from {a[:3]}"})
    OUT.mkdir(exist_ok=True)
    passes[1][0].write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    details = {"requests": len(requests), "spans": len(passes[0][0].spans),
               "counters_repeat": not mismatched, "counter_mismatches": mismatched,
               "untraced_s": sum(base_lat) / 1e9, "traced_s": sum(passes[0][1]) / 1e9}
    return metrics, units, details, len(requests), failures, mismatched


def _print_result(metrics, units, details, env, attempted, failures, extra_ok=True):
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    for f in failures:
        kind = "typed error" if f["typed_error"] else "FAIL"
        print(f"{kind} {f['request']} {f['fn']} {json.dumps(f['args'])}: {f['problem']}")
    print("record " + json.dumps({"environment": env, "details": details,
                                  "failures": failures}))
    correct = extra_ok and all(f["typed_error"] for f in failures)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))


def run_all(args) -> int:
    """Every workload in its own process; prints a summary table with fail_frac."""
    rows = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        rows[workload] = json.loads(lines[-1])
        print(f"== {workload}")
        for line in lines[:-1]:
            if not line.startswith("record "):
                print(f"   {line}")
        result = rows[workload]
        print(f"   fail_frac: {result['failed'] / result['attempted']:.6g} ratio"
              f" ({result['failed']} of {result['attempted']})")
    print(json.dumps(rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    import tmoments

    env = environment(args)
    if args.trace:
        metrics, units, details, attempted, failures, mismatched = traced(tmoments, args)
        _print_result(metrics, units, details, env, attempted, failures, not mismatched)
    else:
        metrics, units, details, attempted, failures = end_to_end(tmoments, args)
        _print_result(metrics, units, details, env, attempted, failures)
    return 0


if __name__ == "__main__":
    sys.exit(main())
