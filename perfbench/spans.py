"""Span recorder for the traced benchmark run.

The benchmark records spans from outside the program: it wraps the public
functions named in each qtmlab module's ``__all__`` and rebinds the wrappers in
every qtmlab namespace and in the package namespace. Because modules call each
other through their globals, the rebinding also catches internal calls such as
``commit`` called from ``aggregation`` or ``best_response`` called from
``verify_equilibrium``. Spans live in memory and are written out when the run
ends.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "core", "qtm", "equilibrium", "synthetic", "aggregation", "squap", "analysis")

# Per-evaluation helpers run thousands of times per op; wrapping them would
# dominate the trace, so their time is charged to their caller.
UNWRAPPED = frozenset(
    {"qtm.softmax_probs", "core.as_matrix", "core.as_vector", "core.as_probs", "aggregation.expected_score"}
)

# Counters read from the values the wrapped functions return.
EXTRACTORS = {
    "equilibrium.solve_two_alt": lambda r: r.iterations,
    "equilibrium.solve_foc_fixed_point": lambda r: (r.iterations, r.status == "converged"),
    "equilibrium.best_response": lambda r: r.heuristic,
    # Only a manipulated market runs a search; the plain one returns None here.
    "aggregation.simulate_efficient_market": lambda r: r.converged if r.manipulated else None,
    "aggregation.optimize_wager_report": lambda r: r[1],
}

SEARCHES = ("aggregation.simulate_efficient_market", "aggregation.optimize_wager_report")


class Tracer:
    """Records (function, start, end, parent span, op id, counter) per wrapped call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.op = -1
        self._stack: list[int] = []
        self._faults: dict[int, tuple[BaseException, str]] = {}
        self._patches: list[tuple[object, str, object]] = []

    def begin_op(self, op: int) -> None:
        self.op = op
        self._faults.clear()

    def innermost(self, exc: BaseException) -> str | None:
        """The innermost span the exception passed through during the current op."""
        hit = self._faults.get(id(exc))
        return hit[1] if hit is not None and hit[0] is exc else None

    def install(self) -> None:
        import qtmlab
        import qtmlab.cli  # noqa: F401  (not imported by the package itself)

        modules = {layer: sys.modules[f"qtmlab.{layer}"] for layer in LAYERS}
        namespaces = [qtmlab, *modules.values()]
        for layer, module in modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__ or name in UNWRAPPED:
                    continue
                wrapper = self._wrap(fn, name)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapper)
                            self._patches.append((ns, key, fn))

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        extract = EXTRACTORS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, self.op, None)
                self._faults.setdefault(id(exc), (exc, name))
                raise
            t1 = clock()
            stack.pop()
            spans[idx] = (fid, t0, t1, parent, self.op, extract(result) if extract else None)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        """Spans as gzipped CSV: name, start, end, parent index, op id, counter."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start", "end", "parent", "op", "value"])
            for fid, t0, t1, parent, op, value in self.spans:
                out.writerow([self.names[fid], f"{t0:.9f}", f"{t1:.9f}", parent, op, "" if value is None else value])


def self_times(spans: list[tuple]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Spans are (fid, start, end, parent, ...) in entry order, so a parent always
    precedes its children; a single-threaded program nests children inside the
    parent without overlap.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(tracer: Tracer, n_ops: int, traced_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, normalized per op."""
    spans = tracer.spans
    names = tracer.names
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    values: dict[str, list] = defaultdict(list)
    search_of = [-1] * len(spans)
    commits_in_search = 0
    for i, (fid, t0, t1, parent, _op, value) in enumerate(spans):
        name = names[fid]
        calls[name] += 1
        self_s[name] += own[i]
        total_s[name] += t1 - t0
        if value is not None:
            values[name].append(value)
        search_of[i] = i if name in SEARCHES and value is not None else (search_of[parent] if parent >= 0 else -1)
        if name == "synthetic.commit" and search_of[i] >= 0:
            commits_in_search += 1

    def share(flags: list) -> float:
        return sum(1 for f in flags if f) / len(flags) if flags else 0.0

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        prefix = layer + "."
        out[f"{layer}.self_s"] = (sum(v for k, v in self_s.items() if k.startswith(prefix)) / n_ops, "s/op")
        out[f"{layer}.calls"] = (sum(v for k, v in calls.items() if k.startswith(prefix)) / n_ops, "calls/op")

    br = "equilibrium.best_response"
    out["equilibrium.verify_equilibrium.total_s"] = (total_s["equilibrium.verify_equilibrium"] / n_ops, "s/op")
    out[f"{br}.calls"] = (calls[br] / n_ops, "calls/op")
    out[f"{br}.self_s"] = (self_s[br] / n_ops, "s/op")
    out[f"{br}.heuristic_share"] = (share(values[br]), "ratio")

    out["synthetic.commit.calls"] = (calls["synthetic.commit"] / n_ops, "calls/op")
    out["synthetic.commit.self_s"] = (self_s["synthetic.commit"] / n_ops, "s/op")
    searches = [v for name in SEARCHES for v in values[name]]
    out["aggregation.commit_per_search"] = (commits_in_search / len(searches) if searches else 0.0, "calls/search")

    two = "equilibrium.solve_two_alt"
    out[f"{two}.calls"] = (calls[two] / n_ops, "calls/op")
    out[f"{two}.iterations"] = (sum(values[two]) / n_ops, "iterations/op")
    out[f"{two}.self_s"] = (self_s[two] / n_ops, "s/op")

    fp = "equilibrium.solve_foc_fixed_point"
    out[f"{fp}.calls"] = (calls[fp] / n_ops, "calls/op")
    out[f"{fp}.iterations"] = (sum(v[0] for v in values[fp]) / n_ops, "iterations/op")
    out[f"{fp}.self_s"] = (self_s[fp] / n_ops, "s/op")
    out[f"{fp}.converged_share"] = (share([v[1] for v in values[fp]]), "ratio")

    for name in ("aggregation.simulate_efficient_market", "aggregation.optimize_wager_report"):
        out[f"{name}.self_s"] = (self_s[name] / n_ops, "s/op")
    out["aggregation.manipulator.converged_share"] = (share(searches), "ratio")

    for name in (
        "synthetic.solve_practical_two_alt",
        "squap.run_impractical_squap",
        "squap.run_practical_squap",
        "analysis.certify_instance",
        "core.load_instance",
        "cli.main",
    ):
        out[f"{name}.self_s"] = (self_s[name] / n_ops, "s/op")

    out["trace_overhead_share"] = (traced_s / untraced_s - 1.0, "ratio")
    return out


def top_self_times(tracer: Tracer, k: int = 6) -> list[tuple[str, float]]:
    """The k functions with the largest summed self time."""
    own = self_times(tracer.spans)
    totals: dict[str, float] = defaultdict(float)
    for i, span in enumerate(tracer.spans):
        totals[tracer.names[span[0]]] += own[i]
    return sorted(totals.items(), key=lambda kv: -kv[1])[:k]
