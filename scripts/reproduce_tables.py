#!/usr/bin/env python3
"""Write the golden set: every command output the test suite pins, each
under the name of its file in `tests/golden/`.

`SECTIONS` is the one list of those outputs: the classification tables,
`show` of one family, the verification reports and the catalog exports.
The files are exactly the command outputs, so

    python3 scripts/reproduce_tables.py --out tests/golden

regenerates the golden set of this checkout, and `git diff tests/golden`
shows any change in the computed classification.  The package is loaded
from `src/` of the checkout this script lives in.  Exit code 1 means
verification reported failures; 2 means the output could not be
written.
"""

import argparse
import contextlib
import io
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from delpezzo.catalog import RHO3_SURFACES  # noqa: E402
from delpezzo.cli import run  # noqa: E402

# golden file name -> the argv whose output it pins; a new output goes
# at the end, so each earlier one keeps its place and its test id
SECTIONS = [
    ("quadric_table.txt", ["enumerate", "--case", "quadric"]),
    ("show_thm3.5-1.txt", ["show", "thm3.5-1"]),
    ("export.json", ["export", "--format", "json"]),
    ("p2bundle_table.txt", ["enumerate", "--case", "p2bundle"]),
    ("blowup_table.txt", ["enumerate", "--case", "blowup"]),
    *(
        (f"rho3_{tag}_table.txt", ["enumerate", "--case", "rho3", "--surface", tag])
        for tag in RHO3_SURFACES
    ),
    *(
        (f"highdim_{n}_table.txt", ["enumerate", "--case", "highdim", "--dim", str(n)])
        for n in (4, 5)
    ),
    ("verify_families.txt", ["verify", "--only", "families"]),
    ("highdim_6_table.txt", ["enumerate", "--case", "highdim", "--dim", "6"]),
    ("verify.txt", ["verify"]),
    ("export.csv", ["export", "--format", "csv"]),
]


def _cannot_write(path, exc):
    """Report an unwritable output on one stderr line; exit code 2, kept
    apart from the 1 that means verification reported failures."""
    print(f"reproduce_tables: error: cannot write {path}: {exc.strerror}", file=sys.stderr)
    return 2


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="build/tables", help="output directory")
    args = ap.parse_args(argv)
    out = pathlib.Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _cannot_write(out, exc)
    worst = 0
    for fname, cmd in SECTIONS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run(cmd)
        try:
            (out / fname).write_text(buf.getvalue())
        except OSError as exc:
            return _cannot_write(out / fname, exc)
        print(f"wrote {out / fname} ({len(buf.getvalue())} bytes)")
        worst = max(worst, code)
    if worst:
        print("verification reported failures; see verify.txt", file=sys.stderr)
    return worst


if __name__ == "__main__":
    sys.exit(main())
