"""`cli`: one operation is one cold `python -m delpezzo ...` process.

The seed picks a command group uniformly (verify, enumerate, show,
export) and then a command in it uniformly.  One child runs at a time.
Each child must exit 0, and its stdout must equal byte for byte the
golden file of the test suite where one exists, or else the output of
`delpezzo.cli.run` captured in-process during set-up.

While a traced run traces the operations, the children are
`bench/cli_child.py`, which wraps the layers inside the child, times
`run` and returns the counts, self times and run time on its last
stderr line.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path
from statistics import median

from common import FLOOR_NOMINAL_MS, ROOT, TESTS, child_env, spawn_once_ms

OP_UNIT = "one cold CLI process"
TAIL_PERCENTILE = 90.0
PROBE_NOMINAL_NS = FLOOR_NOMINAL_MS * 1e6
TRACE_OPS = 30
DIGEST_OPS = 500
CHILD = str(Path(__file__).resolve().parent / "cli_child.py")

GOLDEN = {
    ("enumerate", "--case", "quadric"): "quadric_table.txt",
    ("show", "thm3.5-1"): "show_thm3.5-1.txt",
    ("export", "--format", "json"): "export.json",
}


def commands(dp) -> dict[str, list[tuple[str, ...]]]:
    """Every command the workload draws from, by group."""
    import delpezzo.verify

    return {
        "verify": [("verify",)]
        + [("verify", "--only", r) for r in delpezzo.verify.REPORT_NAMES],
        "enumerate": [("enumerate", "--case", c) for c in ("quadric", "p2bundle", "blowup")]
        + [("enumerate", "--case", "rho3", "--surface", s) for s in ("p1p1", "f2")]
        + [("enumerate", "--case", "highdim", "--dim", str(n)) for n in range(4, 13)],
        "show": [("show", r.id) for r in dp.catalog.builtin_catalog()]
        + [("show", f"V2.{d}") for d in range(1, 6)],
        "export": [("export", "--format", f) for f in ("json", "csv")],
    }


def in_process_output(dp, argv) -> bytes:
    import delpezzo.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = delpezzo.cli.run(list(argv))
    if rc != 0:
        raise RuntimeError(f"delpezzo {' '.join(argv)} exited {rc} in-process")
    return buf.getvalue().encode("utf-8")


def check_output(returncode: int, stdout: bytes, expected: bytes) -> bool:
    return returncode == 0 and stdout == expected


class Workload:
    def __init__(self, dp, seed: int):
        groups = commands(dp)
        self.expected = {}
        for argv in (a for group in groups.values() for a in group):
            golden = GOLDEN.get(argv)
            self.expected[argv] = (
                (TESTS / "golden" / golden).read_bytes() if golden
                else in_process_output(dp, argv)
            )
        self._groups = [groups[g] for g in sorted(groups)]
        self._rng = random.Random(f"cli:{seed}")
        self._argvs: list[tuple[str, ...]] = []
        self.inputs = [self.prepare(i) for i in range(DIGEST_OPS)]
        self.env = child_env()
        # set while a traced run traces the children
        self.tracer = None
        self.run_ns: list[int] = []
        self.output_bytes = 0

    def probe(self) -> float:
        """A bare interpreter start, in ns: the floor every operation pays."""
        return spawn_once_ms("pass", self.env) * 1e6

    @contextlib.contextmanager
    def tracing(self, tracer):
        """Run the children inside the block under the tracing wrapper."""
        self.tracer = tracer
        try:
            yield
        finally:
            self.tracer = None

    def layer_values(self) -> dict:
        """`run` time (ms, tracer installed) and output size of the traced children."""
        return {"cli.run_ms": median(self.run_ns) / 1e6, "cli.output_bytes": self.output_bytes}

    def prepare(self, i: int) -> tuple[str, ...]:
        while len(self._argvs) <= i:
            self._argvs.append(self._rng.choice(self._rng.choice(self._groups)))
        return self._argvs[i]

    def run(self, argv):
        """The timed operation: one child process, start to exit."""
        if self.tracer is None:
            cmd = [sys.executable, "-m", "delpezzo", *argv]
        else:
            cmd = [sys.executable, CHILD, *argv]
        proc = subprocess.run(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, timeout=120,
        )
        if self.tracer is not None and proc.returncode == 0:
            report = json.loads(proc.stderr.decode().splitlines()[-1])
            self.run_ns.append(report["run_ns"])
            self.tracer.merge(report["tracer"])
            self.output_bytes += len(proc.stdout)
        return proc.returncode, proc.stdout

    def check(self, argv, out) -> bool:
        returncode, stdout = out
        return check_output(returncode, stdout, self.expected[argv])
