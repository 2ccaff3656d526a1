"""Outside-in tracing of the delpezzo layers.

The tracer wraps public functions of each module, and the ring operators
of `chow`, with recorders that keep spans in memory: name, start, end,
parent span and operation id, in flat arrays.  Nothing inside the
package changes; `install` rebinds every module-level reference to a
wrapped function and `uninstall` puts the originals back.

A layer's self time is the sum of its spans minus the time covered by
their direct children.  Call counts, product sizes and distinct-argument
ratios are recorded at the same boundaries and are exact for a given
sequence of operations.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# search function -> layer name
SEARCHES = {
    "enumerate_quadric_fibrations": "enumeration.quadric",
    "enumerate_p2_bundles": "enumeration.p2",
    "enumerate_point_blowups": "enumeration.blowup",
    "enumerate_rho3": "enumeration.rho3",
    "enumerate_highdim": "enumeration.highdim",
    "quadric_model_degree": "enumeration.quadric_model_degree",
}

# report function -> layer name
REPORTS = {
    "verify_families": "verify.families",
    "verify_flops": "verify.flops",
    "verify_smoothings": "verify.smoothings",
    "verify_constructions": "verify.constructions",
    "verify_enumeration_matches_catalog": "verify.enumeration",
}

_SPANS = (
    ["chow.mul", "chow.pow", "chow.ambient_eq", "chow.tower_build", "bundles"]
    + list(SEARCHES.values())
    + list(REPORTS.values())
    + ["catalog"]
)

# every per-layer metric, in the order BENCHMARK.json lists them; the
# cli.*, catalog.import_ms and trace.overhead_ratio figures are measured
# by the workloads, everything else comes from the spans and counters
PER_LAYER = (
    [
        "chow.mul.calls", "chow.mul.self_ms", "chow.mul.raw_monomials",
        "chow.mul.out_monomials", "chow.pow.calls", "chow.pow.self_ms",
        "chow.add.calls", "chow.ambient_eq.calls", "chow.ambient_eq.self_ms",
        "chow.integrate.calls", "chow.tower_build.calls",
        "chow.tower_build.self_ms", "chow.tower_build.distinct_ratio",
        "bundles.calls", "bundles.self_ms",
    ]
    + [f"{s}.{m}" for s in SEARCHES.values() for m in ("calls", "self_ms")]
    + ["enumeration.candidates", "enumeration.distinct_ratio"]
    + [f"{r}.{m}" for r in REPORTS.values() for m in ("calls", "self_ms")]
    + ["verify.family.calls", "verify.checks"]
    + ["catalog.calls", "catalog.self_ms", "catalog.import_ms"]
    + ["cli.interpreter_floor_ms", "cli.import_ms", "cli.run_ms", "cli.output_bytes"]
    + ["trace.overhead_ratio"]
)

# metrics that must repeat exactly across two traced runs on one seed
COUNT_METRICS = tuple(
    m for m in PER_LAYER
    if m.endswith((".calls", "_monomials", ".candidates", ".checks",
                   ".distinct_ratio", ".output_bytes"))
)


def unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


class Tracer:
    """Span and counter recorder for one benchmark process."""

    def __init__(self):
        self.names: list[str] = list(_SPANS)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.op = 0
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = {"chow.tower_build": set(), "enumeration": set()}
        self.merged_self_ns: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    # -- recorders -------------------------------------------------

    def _span(self, name, fn, after=None):
        nid = self._ids[name]
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops, stack, counts = self.span_parent, self.span_op, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[name] += 1
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ----------------------------------------------

    def _rebind(self, orig, repl):
        """Point every delpezzo module-level reference to `orig` at `repl`."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "delpezzo" or modname.startswith("delpezzo.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, repl)
                    self._undo.append((setattr, mod, attr, orig))
                elif isinstance(val, dict):
                    # dispatch tables such as the CLI's report map
                    for key, item in list(val.items()):
                        if item is orig:
                            val[key] = repl
                            self._undo.append((dict.__setitem__, val, key, orig))

    def _wrap_function(self, mod, fname, make):
        orig = getattr(mod, fname)
        self._rebind(orig, make(orig))

    def _wrap_method(self, cls, attr, make):
        orig = cls.__dict__[attr]
        setattr(cls, attr, make(orig))
        self._undo.append((setattr, cls, attr, orig))

    def install(self):
        """Wrap the layers of the already imported delpezzo package."""
        from delpezzo import bundles, catalog, chow, enumeration, verify

        counts, keys = self.counts, self.keys
        CE = chow.ChowElement

        def mul_sizes(args, kwargs, result):
            a, b = args
            if isinstance(b, CE):
                counts["chow.mul.raw_monomials"] += len(a.terms) * len(b.terms)
                counts["chow.mul.out_monomials"] += len(result.terms)

        def tower_key(args, kwargs, A):
            keys["chow.tower_build"].add((
                A.base.kind, A.base.e, A.rank,
                tuple(tuple(sorted(t.terms.items())) for t in A.twists),
                tuple(tuple(sorted(c.terms.items())) for c in A.cherns),
            ))

        self._wrap_method(CE, "__mul__", lambda f: self._span("chow.mul", f, mul_sizes))
        self._wrap_method(CE, "__pow__", lambda f: self._span("chow.pow", f))
        self._wrap_method(CE, "__add__", lambda f: self._counter("chow.add", f))
        self._wrap_method(
            chow.Ambient, "__eq__", lambda f: self._span("chow.ambient_eq", f)
        )
        self._wrap_function(chow, "integrate", lambda f: self._counter("chow.integrate", f))
        for fname in ("make_tower", "chern_tower"):
            self._wrap_function(
                chow, fname, lambda f: self._span("chow.tower_build", f, tower_key)
            )

        for fname in _public_functions(bundles):
            self._wrap_function(bundles, fname, lambda f: self._span("bundles", f))
        for fname in _public_functions(catalog):
            self._wrap_function(catalog, fname, lambda f: self._span("catalog", f))

        def search_after(layer):
            def after(args, kwargs, result):
                keys["enumeration"].add((layer, repr(args), repr(sorted(kwargs.items()))))
                if isinstance(result, enumeration.EnumerationResult):
                    counts["enumeration.candidates"] += len(result.candidates)
                elif isinstance(result, list):
                    counts["enumeration.candidates"] += sum(
                        1 for v in result if v.verdict == "Small"
                    )
            return after

        for fname, layer in SEARCHES.items():
            self._wrap_function(
                enumeration, fname,
                lambda f, layer=layer: self._span(layer, f, search_after(layer)),
            )

        def report_checks(args, kwargs, report):
            counts["verify.checks"] += len(report.checks)

        for fname, layer in REPORTS.items():
            self._wrap_function(
                verify, fname,
                lambda f, layer=layer: self._span(layer, f, report_checks),
            )
        self._wrap_function(verify, "verify_family", lambda f: self._counter("verify.family", f))

    def uninstall(self):
        while self._undo:
            setter, target, key, orig = self._undo.pop()
            setter(target, key, orig)

    # -- results ---------------------------------------------------

    def self_ns(self) -> Counter:
        """Self time per span name: own spans minus their direct children."""
        total = [0] * len(self.names)
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )
        for i in range(len(names)):
            d = ends[i] - starts[i]
            total[names[i]] += d
            p = parents[i]
            if p >= 0:
                total[names[p]] -= d
        out = Counter(self.merged_self_ns)
        for i, n in enumerate(self.names):
            out[n] += total[i]
        return out

    def summary(self) -> dict:
        """JSON-friendly counts, self times and distinct keys (for merging)."""
        return {
            "counts": dict(self.counts),
            "self_ns": dict(self.self_ns()),
            "keys": {k: sorted(repr(x) for x in v) for k, v in self.keys.items()},
        }

    def merge(self, summary: dict):
        """Add the summary of a traced child process."""
        self.counts.update(summary["counts"])
        self.merged_self_ns.update(summary["self_ns"])
        for k, v in summary["keys"].items():
            self.keys[k].update(v)

    def metrics(self) -> dict[str, float]:
        """Every span- and counter-derived per-layer metric."""
        counts, self_ns = self.counts, self.self_ns()
        out = {}
        for name in self.names + ["chow.add", "chow.integrate", "verify.family"]:
            out[f"{name}.calls"] = counts[name]
        for name in self.names:
            out[f"{name}.self_ms"] = self_ns[name] / 1e6
        for name in (
            "chow.mul.raw_monomials", "chow.mul.out_monomials",
            "enumeration.candidates", "verify.checks",
        ):
            out[name] = counts[name]
        builds = counts["chow.tower_build"]
        searches = sum(counts[s] for s in SEARCHES.values())
        out["chow.tower_build.distinct_ratio"] = (
            len(self.keys["chow.tower_build"]) / builds if builds else 0.0
        )
        out["enumeration.distinct_ratio"] = (
            len(self.keys["enumeration"]) / searches if searches else 0.0
        )
        return {k: v for k, v in out.items() if k in PER_LAYER}

    def write_spans(self, path):
        """Write the recorded spans as CSV, times relative to the first span."""
        t0 = self.span_start[0] if self.span_start else 0
        with open(path, "w") as fh:
            fh.write("span,name,start_ns,end_ns,parent,op\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i},{self.names[self.span_name[i]]},{self.span_start[i] - t0},"
                    f"{self.span_end[i] - t0},{self.span_parent[i]},{self.span_op[i]}\n"
                )


def _public_functions(mod) -> list[str]:
    return sorted(
        name for name, val in vars(mod).items()
        if callable(val) and not isinstance(val, type) and not name.startswith("_")
        and getattr(val, "__module__", None) == mod.__name__
    )
