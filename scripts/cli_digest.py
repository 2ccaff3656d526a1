#!/usr/bin/env python3
"""Print the CLI digest of this checkout: sha256 over the argv, exit code,
stdout and stderr of a fixed list of cold `python -m delpezzo` runs.

The runs cover every `enumerate` case as a table and as JSON (rho3 on
both surfaces, highdim for n = 2..12), `verify` with each `--only` and an
unknown report name, `show` of every catalog id, of the alias `V2.3` and
of an unknown id, and `export` as JSON, as CSV and to an unwritable
relative `--out`.  A change that keeps every command's output byte for
byte keeps the digest, so comparing it at two commits checks that
nothing the CLI prints has moved.

    python3 scripts/cli_digest.py

Each run is a fresh interpreter that loads the package from `src/` of
the checkout this script lives in (the child environment of
`tests/checkout.py`), with an empty temporary directory as
its working directory, so the relative `--out` names a missing directory
and nothing is written.  The runs take about 15 s one after another.
"""

import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def runs() -> list[list[str]]:
    """The argv of every run, in a fixed order."""
    from delpezzo.catalog import RHO3_SURFACES, builtin_catalog
    from delpezzo.verify import REPORT_NAMES

    cases = [["--case", c] for c in ("quadric", "p2bundle", "blowup")]
    cases += [["--case", "rho3", "--surface", s] for s in RHO3_SURFACES]
    cases += [["--case", "highdim", "--dim", str(n)] for n in range(2, 13)]
    argvs = [
        ["enumerate", *case, "--format", fmt]
        for case in cases
        for fmt in ("table", "json")
    ]
    argvs.append(["verify"])
    argvs += [["verify", "--only", name] for name in (*REPORT_NAMES, "no-such")]
    ids = [r.id for r in builtin_catalog()]
    argvs += [["show", i] for i in (*ids, "V2.3", "no-such-id")]
    argvs += [["export", "--format", "json"], ["export", "--format", "csv"]]
    argvs.append(["export", "--out", "no-such-directory/catalog.json"])
    return argvs


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from checkout import child_env

    env = child_env()
    argvs = runs()
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as cwd:
        for argv in argvs:
            proc = subprocess.run(
                [sys.executable, "-m", "delpezzo", *argv],
                capture_output=True,
                cwd=cwd,
                env=env,
            )
            digest.update(repr((argv, proc.returncode)).encode())
            digest.update(repr((proc.stdout, proc.stderr)).encode())
    print(f"cli  {digest.hexdigest()}  ({len(argvs)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
