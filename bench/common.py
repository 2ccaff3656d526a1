"""Shared pieces of the benchmark: locating the checkout, timing fresh
interpreters, order statistics and the input digest.

The benchmark always runs the `delpezzo` package under `src/` of the
checkout it lives in, never an installed copy.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

# fresh interpreters started per set-up measurement; the reported figure
# is their median, so one slow start does not move it
SPAWNS = 9

# Machine speed on a shared host drifts by tens of percent within minutes.
# Each timed operation is therefore followed by a probe of fixed work, and
# the operation's time is scaled by the probe's nominal time over the
# median of the probes around it (PROBE_WINDOW of them): times are
# reported at the speed at which the probe takes its nominal time.  The
# probe is an in-process loop for in-process workloads and a bare
# interpreter start for workloads that start processes.
PROBE_NOMINAL_NS = 200_000
FLOOR_NOMINAL_MS = 40.0
PROBE_WINDOW = 5


class MissingProgram(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def import_delpezzo():
    """Import `delpezzo` from this checkout's `src/` and nowhere else."""
    if not (SRC / "delpezzo" / "__init__.py").is_file():
        raise MissingProgram(f"no delpezzo package under {SRC}")
    if not (TESTS / "substitution_oracle.py").is_file():
        raise MissingProgram(f"no substitution oracle under {TESTS}")
    for path in (str(TESTS), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import delpezzo

    if Path(delpezzo.__file__).resolve().parent != SRC / "delpezzo":
        raise MissingProgram(f"delpezzo resolved to {delpezzo.__file__}")
    return delpezzo


def child_env() -> dict:
    """Environment for child interpreters: the checkout's `src/` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def _spawn(code: str, env: dict) -> tuple[float, bytes]:
    """Wall time in ms and stdout of `python -c code` in a fresh interpreter."""
    t0 = time.perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60,
    )
    elapsed = (time.perf_counter_ns() - t0) / 1e6
    if proc.returncode != 0:
        raise MissingProgram(
            f"{code!r} failed: {proc.stderr.decode(errors='replace').strip()}"
        )
    return elapsed, proc.stdout


def spawn_once_ms(code: str, env: dict) -> float:
    """Wall time in ms of one `python -c code` in a fresh interpreter."""
    return _spawn(code, env)[0]


def setup_pairs(code: str, runs: int = SPAWNS) -> tuple[list[float], list[float]]:
    """Interleaved wall times in ms of bare interpreters and of `code`."""
    env = child_env()
    spawn_once_ms(code, env)
    floors, times = [], []
    for _ in range(runs):
        floors.append(spawn_once_ms("pass", env))
        times.append(spawn_once_ms(code, env))
    return floors, times


def probe() -> int:
    """Fixed pure-Python work shaped like the ring engine's, timed in ns.

    It builds a dict keyed by small tuples, as `chow` does for monomials;
    a tighter loop does not slow down with the memory-bound contention
    that slows the workloads.  The collector is paused, so a collection
    the workload has made due does not land in the probe.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        d = {}
        for i in range(1000):
            k = (i % 97, i % 13)
            d[k] = d.get(k, 0) + i * 3
        return time.perf_counter_ns() - t0
    finally:
        if was_enabled:
            gc.enable()


class InProcessWorkload:
    """Hooks shared by workloads whose operations run in this process."""

    probe = staticmethod(probe)

    @contextlib.contextmanager
    def tracing(self, tracer):
        """Trace the operations run inside the block."""
        tracer.install()
        try:
            yield
        finally:
            tracer.uninstall()

    def layer_values(self) -> dict:
        """Per-layer figures the workload measures itself, beyond the tracer's."""
        return {}


def scale_to_nominal(times, probes, nominal) -> list[float]:
    """Scale times[j] by nominal / median of the probes around j."""
    out = []
    for j, t in enumerate(times):
        window = probes[max(0, j - PROBE_WINDOW // 2): j + PROBE_WINDOW // 2 + 1]
        out.append(t * nominal / statistics.median(window))
    return out


def child_report_ms(code: str, runs: int = SPAWNS) -> list[float]:
    """Numbers (ns) printed by `python -c code` in fresh interpreters, in ms."""
    env = child_env()
    return [int(_spawn(code, env)[1].split()[-1]) / 1e6 for _ in range(runs + 1)][1:]


def _tail_index(n: int, percentile: float) -> int:
    # nearest rank: the smallest sample with `percentile` % of all at or below it
    return max(0, math.ceil(n * percentile / 100) - 1)


def tail(xs, percentile: float) -> float:
    """The nearest-rank `percentile` of the samples."""
    ordered = sorted(xs)
    return ordered[_tail_index(len(ordered), percentile)]


def samples_beyond(n: int, percentile: float) -> int:
    """How many of n samples lie beyond the nearest-rank `percentile`."""
    return n - 1 - _tail_index(n, percentile)


def digest(obj) -> str:
    """Short stable digest of JSON-serialisable generated inputs."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def machine_context() -> dict:
    return {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "nproc": len(os.sched_getaffinity(0)),
    }
