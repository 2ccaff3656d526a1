"""Steadiness report for the benchmark.

    python3 bench/steady.py

Runs every workload of BENCHMARK.json on seeds 1..10 and again on seeds
11..20, with the run length of BENCHMARK.json.  For each set it prints,
for every end-to-end metric, the median, the quartiles and their distance
as a share of the median, against the metric's bound: a spread below a
third of the bound reads `steady`, below the bound `within`, above it
`WIDE`.  Then it compares the two sets' medians: they agree when they
differ by at most the bound, either way.  Last, two traced runs on seed 1
must give identical per-layer counts.  Exits 1 if a run fails, a spread
is WIDE, two medians disagree or a count differs.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import COUNT_METRICS  # noqa: E402

RUNS = 10
SETS = 2
TRACE_SEED = 1


def run_once(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.stdout.reconfigure(line_buffering=True)
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        medians = []
        for s in range(SETS):
            seeds = range(1 + s * RUNS, 1 + (s + 1) * RUNS)
            results = []
            for seed in seeds:
                results.append(run_once(spec, workload, seed, 0))
                print(f"  seed {seed}: " + "  ".join(
                    f"{k} {v['value']:.4g}" for k, v in results[-1]["metrics"].items()))
            bad += sum(not r["correct"] for r in results)
            print(f"{workload} set {s + 1}: seeds {seeds[0]}..{seeds[-1]}, "
                  f"correct {sum(r['correct'] for r in results)}/{len(results)}")
            set_medians = {}
            for metric in spec["end_to_end"]:
                name = metric["name"]
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in results])
                spread = (q3 - q1) / med
                status = ("steady" if spread < metric["bound"] / 3
                          else "within" if spread <= metric["bound"] else "WIDE")
                bad += status == "WIDE"
                set_medians[name] = med
                print(f"  {name:14s} median {med:12.4f} {metric['unit']:6s} "
                      f"q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:7.2%} "
                      f"bound {metric['bound']:.0%}  {status}")
            medians.append(set_medians)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            change = (medians[1][name] - medians[0][name]) / medians[0][name]
            verdict = "agree" if abs(change) <= metric["bound"] else "DISAGREE"
            bad += verdict != "agree"
            print(f"  median of {name:14s} set 2 vs set 1 {change:+7.2%}  {verdict}")

        counts = [run_once(spec, workload, TRACE_SEED, 1)["metrics"] for _ in range(2)]
        differ = [m for m in COUNT_METRICS if counts[0][m]["value"] != counts[1][m]["value"]]
        bad += len(differ)
        print(f"  traced counts on seed {TRACE_SEED}: "
              + ("identical" if not differ else "DIFFER in " + ", ".join(differ)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
