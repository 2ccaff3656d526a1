#!/usr/bin/env python3
"""Regenerate every classification table, the verification report, and
the catalog exports into one directory.

The files this writes are exactly the command outputs, so a diff against
a previous run shows any change in the computed classification.  Exit
code 1 means verification reported failures; 2 means the output could
not be written.
"""

import argparse
import contextlib
import io
import pathlib
import sys

from delpezzo.catalog import RHO3_SURFACES
from delpezzo.cli import run

SECTIONS = [
    ("quadric_table.txt", ["enumerate", "--case", "quadric"]),
    ("p2_bundles.txt", ["enumerate", "--case", "p2bundle"]),
    ("point_blowups.txt", ["enumerate", "--case", "blowup"]),
    *(
        (f"rho3_{tag}.txt", ["enumerate", "--case", "rho3", "--surface", tag])
        for tag in RHO3_SURFACES
    ),
    ("highdim_4.txt", ["enumerate", "--case", "highdim", "--dim", "4"]),
    ("highdim_5.txt", ["enumerate", "--case", "highdim", "--dim", "5"]),
    ("highdim_6.txt", ["enumerate", "--case", "highdim", "--dim", "6"]),
    ("verify.txt", ["verify"]),
    ("catalog.json", ["export", "--format", "json"]),
    ("catalog.csv", ["export", "--format", "csv"]),
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
