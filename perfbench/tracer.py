"""Per-layer tracing by wrapping module attributes of the package at run time.

``Tracer.install`` replaces every public function of the tmoments modules,
both where it is defined and wherever another tmoments module imported it,
with a wrapper that records a span: name, layer, the module whose binding was
called (``site``), start, end, parent span and request id. SciPy's ``quad``
as bound in ``tmoments.oracle`` is wrapped too. The integrand handed to
``quad`` or ``tensor_quad`` is wrapped as a callback span of the caller's
layer, so the recursion that truncated runs inside the mixing quadrature is
charged to truncated and not to the quadrature. Spans stay in memory until
``write`` and the original functions come back on ``uninstall``.

A layer's self time is the time its spans cover minus the time covered by
their direct child spans.
"""

from __future__ import annotations

import inspect
import json
import math
import statistics
import time
from collections import defaultdict

LAYERS = ("specfun", "normal_moments", "t1d", "tnd", "truncated", "oracle", "cli")
_CALLBACK_TAKERS = ("oracle.quad", "oracle.tensor_quad")
_MC = ("oracle.mc_moment_nd", "oracle.sample_t_nd")

NAME, LAYER, SITE, START, END, PARENT, REQUEST, EXTRA = range(8)


def _dim(k) -> int:
    """Dimension of an order (int, sequence or MultiIndex) or a Rectangle."""
    if hasattr(k, "dim"):
        return k.dim
    return 1 if isinstance(k, int) else len(k)


def _extra(name: str, args, result):
    """The work count a span carries, read from its arguments or result."""
    if name.endswith(".callback"):
        return None
    if name in ("specfun.hyp1f1", "specfun.hyp2f1"):
        return result.terms_used
    if name == "oracle.tensor_quad":
        return result.evaluations
    if name == "oracle.quad":
        info = result[2] if len(result) > 2 else None
        return int(info.get("neval", 0)) if isinstance(info, dict) else 0
    if name == "oracle.mc_moment_nd":
        return result.n_samples
    if name in ("tnd.raw_moment_nd", "tnd.raw_moment_nd_literal"):
        # Computed, not counted: the memoized recursion visits at most
        # prod(k_i + 1) multi-indices.
        k = args[0]
        k = k.k if hasattr(k, "k") else (k,) if isinstance(k, int) else k
        return math.prod(v + 1 for v in k)
    if name == "truncated.trunc_t_moment":
        return (_dim(args[0]), result.diagnostics.get("quad_evaluations", 0))
    if name.startswith("truncated."):
        return (_dim(args[0]), 0)
    return None


class Tracer:
    def __init__(self, tm):
        self.tm = tm
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        modules = {layer: getattr(self.tm, layer) for layer in LAYERS}
        for site, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__.startswith("tmoments.")):
                    layer = obj.__module__.rsplit(".", 1)[1]
                    self._patch(module, attr, f"{layer}.{attr}", layer, site)
        self._patch(modules["oracle"], "quad", "oracle.quad", "oracle", "oracle")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _patch(self, module, attr, name, layer, site) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self._wrap(original, name, layer, site))

    def _wrap(self, fn, name, layer, site):
        spans, stack = self.spans, self._stack
        takes_callback = name in _CALLBACK_TAKERS

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if takes_callback and args:
                caller = spans[parent][LAYER] if parent >= 0 else "bench"
                args = (self._wrap(args[0], f"{caller}.callback", caller, site),) + args[1:]
            idx = len(spans)
            span = [name, layer, site, 0, 0, parent, self.request, None]
            spans.append(span)
            stack.append(idx)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
            span[EXTRA] = _extra(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> None:
        origin = self.spans[0][START] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "layer": s[LAYER],
                                     "site": s[SITE], "start_ns": s[START] - origin,
                                     "end_ns": s[END] - origin, "parent": s[PARENT],
                                     "request": s[REQUEST]}) + "\n")

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        child = [0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        name_self_ns = defaultdict(int)
        work = defaultdict(int)
        entry_ms = defaultdict(list)
        main_ms = []
        for i, s in enumerate(spans):
            own = s[END] - s[START] - child[i]
            self_ns[s[LAYER]] += own
            name_self_ns[s[NAME]] += own
            if s[NAME].endswith(".callback"):
                continue
            calls[s[LAYER]] += 1
            calls[s[NAME]] += 1
            if s[NAME] == "cli.main":
                main_ms.append((s[END] - s[START]) / 1e6)
            extra = s[EXTRA]
            if extra is None:
                continue
            if s[LAYER] == "specfun":
                work["specfun.terms"] += extra
            elif s[LAYER] == "tnd":
                work["tnd.recursion_nodes"] += extra
            elif s[LAYER] == "truncated":
                dim, nodes = extra
                work["truncated.mixing_nodes"] += nodes
                parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
                if parent is None or parent[LAYER] != "truncated":
                    entry_ms[dim].append((s[END] - s[START]) / 1e6)
            elif s[NAME] == "oracle.tensor_quad":
                work["oracle.tensor_quad.points"] += extra
                if s[SITE] == "truncated":
                    work["truncated.rect_prob_calls"] += 1
            elif s[NAME] == "oracle.quad":
                work["oracle.quad.evals"] += extra
            elif s[NAME] == "oracle.mc_moment_nd":
                work["oracle.mc.samples"] += extra

        def ms(ns):
            return ns / 1e6

        def median(values):
            return statistics.median(values) if values else 0.0

        out = {
            "cli.main_ms": median(main_ms),
            "cli.calls": calls["cli.main"],
        }
        for layer in ("specfun", "t1d", "normal_moments", "tnd", "truncated"):
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_ms"] = ms(self_ns[layer])
        out["specfun.terms"] = work["specfun.terms"]
        out["tnd.recursion_nodes"] = work["tnd.recursion_nodes"]
        out["truncated.mixing_nodes"] = work["truncated.mixing_nodes"]
        out["truncated.rect_prob_calls"] = work["truncated.rect_prob_calls"]
        for dim in (1, 2, 3):
            out[f"truncated.call_ms.d{dim}"] = median(entry_ms[dim])
        out["oracle.tensor_quad.calls"] = calls["oracle.tensor_quad"]
        out["oracle.tensor_quad.points"] = work["oracle.tensor_quad.points"]
        out["oracle.tensor_quad.self_ms"] = ms(name_self_ns["oracle.tensor_quad"])
        out["oracle.quad.calls"] = calls["oracle.quad"]
        out["oracle.quad.evals"] = work["oracle.quad.evals"]
        out["oracle.quad.self_ms"] = ms(name_self_ns["oracle.quad"])
        out["oracle.normal_pdf.calls"] = calls["oracle.normal_pdf"]
        out["oracle.mc.samples"] = work["oracle.mc.samples"]
        out["oracle.mc.self_ms"] = ms(sum(name_self_ns[n] for n in _MC))
        return out
