"""Benchmark of the delpezzo pipeline, one workload per run.

    python3 bench/run.py --workload audit|towers|cli --seed N --seconds S --trace 0|1

Load is one single-threaded client in a closed loop: the next operation
starts when the previous one has finished and been checked.  Inputs come
from the seed alone.  Every output is checked; an operation that raises
or fails its check counts as failed.

With `--trace 0` the run measures for S seconds and reports the
end-to-end metrics.  With `--trace 1` it runs a fixed, seeded list of
operations twice, untraced and then traced, and reports the per-layer
metrics (see tracer.py); their counts repeat exactly for one seed.
Every reported time is scaled to a nominal machine speed by a probe of
fixed work run after each operation (see README.md).

The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it records the run's
inputs (seed and digest) and machine context.  Without a delpezzo source
tree next to this directory the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
from array import array
import json
import resource
from statistics import median
import sys
import time
import traceback

import common
from common import MissingProgram

SETUP_IMPORTS = {
    "audit": "import delpezzo.verify",
    "towers": "import delpezzo.chow",
    "cli": "import delpezzo.cli",
}
CATALOG_IMPORT = (
    "import time, delpezzo; t = time.perf_counter_ns(); "
    "import delpezzo.catalog; print(time.perf_counter_ns() - t)"
)
SPANS_DIR = common.ROOT / ".bench_out"


def one_op(wl, i: int, report_errors: list):
    """Prepare, time and check operation i; returns (ns, ok)."""
    x = wl.prepare(i)
    t0 = time.perf_counter_ns()
    try:
        out = wl.run(x)
    except Exception:
        elapsed = time.perf_counter_ns() - t0
        report_errors.append(traceback.format_exc())
        return elapsed, False
    elapsed = time.perf_counter_ns() - t0
    try:
        ok = wl.check(x, out)
    except Exception:
        report_errors.append(traceback.format_exc())
        ok = False
    return elapsed, ok


def timed_run(wl, seconds: float, errors: list):
    """Operations for `seconds` of wall time, each followed by a probe."""
    times, probes, failed = array("q"), array("d"), 0
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        ns, ok = one_op(wl, i, errors)
        times.append(ns)
        probes.append(wl.probe())
        failed += not ok
        i += 1
    return times, probes, failed


def peak_rss_mib(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(name, mod, wl, seconds, floors, setup_ms, errors):
    times, probes, failed = timed_run(wl, seconds, errors)
    n = len(times)
    scaled = common.scale_to_nominal(times, probes, mod.PROBE_NOMINAL_NS)
    setup_ratio = median([s / f for s, f in zip(setup_ms, floors)])
    metrics = {
        "ops_per_s": (n / (sum(scaled) / 1e9), "1/s"),
        "op_p50_ms": (median(scaled) / 1e6, "ms"),
        "op_tail_ms": (common.tail(scaled, mod.TAIL_PERCENTILE) / 1e6, "ms"),
        "setup_s": (setup_ratio * common.FLOOR_NOMINAL_MS / 1e3, "s"),
        "peak_rss_mib": (peak_rss_mib(name), "MiB"),
        "ok_ratio": ((n - failed) / n, "ratio"),
    }
    extra = {
        "tail_percentile": mod.TAIL_PERCENTILE,
        "samples": n,
        "samples_beyond_tail": common.samples_beyond(n, mod.TAIL_PERCENTILE),
        "fail_ratio": failed / n,
        "probe_median_ns": median(probes),
        "probe_nominal_ns": mod.PROBE_NOMINAL_NS,
        "unscaled": {
            "ops_per_s": n / (sum(times) / 1e9),
            "op_p50_ms": median(times) / 1e6,
            "op_tail_ms": common.tail(times, mod.TAIL_PERCENTILE) / 1e6,
            "setup_s": median(setup_ms) / 1e3,
        },
    }
    return n, failed, metrics, extra


def phase(wl, ops: int, errors: list, tracer=None):
    """Operations 0..ops-1, each followed by a probe; (total ns, probes, failed)."""
    total, probes, failed = 0, array("d"), 0
    for i in range(ops):
        if tracer is not None:
            tracer.op = i
        ns, ok = one_op(wl, i, errors)
        total += ns
        probes.append(wl.probe())
        failed += not ok
    return total, probes, failed


def traced(name, mod, wl, errors):
    """The fixed operation list untraced, then traced, and the layer metrics.

    Every time is scaled to nominal speed by one factor: the probe's
    nominal time over the median of the probes taken in the traced pass.
    """
    from tracer import PER_LAYER, Tracer, unit

    ops = mod.TRACE_OPS
    untraced_ns, untraced_probes, failed = phase(wl, ops, errors)
    tracer = Tracer()
    with wl.tracing(tracer):
        traced_ns, probes, traced_failed = phase(wl, ops, errors, tracer)
    failed += traced_failed
    scale = mod.PROBE_NOMINAL_NS / median(probes)
    values = {"cli.run_ms": 0.0, "cli.output_bytes": 0}
    values.update(tracer.metrics())
    values.update(wl.layer_values())
    values["catalog.import_ms"] = median(common.child_report_ms(CATALOG_IMPORT))
    floors, cli_imports = common.setup_pairs(SETUP_IMPORTS["cli"])
    values["cli.interpreter_floor_ms"] = median(floors)
    values["cli.import_ms"] = median([t - f for f, t in zip(floors, cli_imports)])
    values = {k: v * scale if unit(k) == "ms" else v for k, v in values.items()}
    values["trace.overhead_ratio"] = (
        (traced_ns / median(probes)) / (untraced_ns / median(untraced_probes))
    )
    SPANS_DIR.mkdir(exist_ok=True)
    tracer.write_spans(SPANS_DIR / f"spans-{name}.csv")
    metrics = {k: (values[k], unit(k)) for k in PER_LAYER}
    extra = {"trace_ops": ops, "spans": len(tracer.span_name), "scale": scale}
    return 2 * ops, failed, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_IMPORTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        dp = common.import_delpezzo()
        floors, setup_ms = common.setup_pairs(SETUP_IMPORTS[args.workload])
        floor_ms = median(floors)
        mod = importlib.import_module(args.workload)
        wl = mod.Workload(dp, args.seed)
    except MissingProgram as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2

    errors: list[str] = []
    if args.trace:
        attempted, failed, metrics, extra = traced(args.workload, mod, wl, errors)
    else:
        attempted, failed, metrics, extra = end_to_end(
            args.workload, mod, wl, args.seconds, floors, setup_ms, errors
        )
    for err in errors[:3]:
        sys.stderr.write(err)

    context = {
        "workload": args.workload,
        "op_unit": mod.OP_UNIT,
        "seed": args.seed,
        "inputs_digest": common.digest(wl.inputs),
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, 1 thread",
        "interpreter_floor_ms": round(floor_ms, 3),
        **common.machine_context(),
        **extra,
    }
    for key, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {key:40s} {value:14.4f} {unit}")
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
