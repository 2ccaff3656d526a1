"""One traced CLI process: `python cli_child.py <delpezzo args>`.

Runs `delpezzo.cli.run` on the arguments like `python -m delpezzo` does,
with the layer tracer installed around it, and then writes one JSON line
to stderr: the time of `run` (`run_ns`) and the tracer's summary.
"""

import json
import sys
import time

import common
from tracer import Tracer


def main() -> int:
    common.import_delpezzo()
    import delpezzo.cli

    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter_ns()
    rc = delpezzo.cli.run(sys.argv[1:])
    t1 = time.perf_counter_ns()
    sys.stdout.flush()
    sys.stderr.write(json.dumps({"run_ns": t1 - t0, "tracer": tracer.summary()}) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
