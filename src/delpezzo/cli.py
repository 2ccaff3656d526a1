"""Command line front end: enumerate, verify, show, export.

All output is deterministic, so the rendered tables can be compared
byte-for-byte against golden files.  `enumerate` runs the search its
`--case` names in `_ENUMERATIONS` and prints the result through
`render`: a table renderer of `render.BLOCKS` returns the output as
blocks, and `_cmd_enumerate` joins them with one blank line, still the
only place a blank line is written.  `--format json` prints
`render.to_json` instead.

Each command imports only the layers it runs, so a cold process pays
for nothing else.  `show` and `export` load `catalog` alone.
`enumerate` adds `enumeration` (with `bundles` and `chow`) when it runs
its search and `render` when it prints the result.  `verify` adds
`verify` (which loads `enumeration`) when it runs its reports.  `json`
is loaded only to render JSON.  The package root loads nothing itself,
so `chow` comes only with `enumeration`.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .catalog import RHO3_SURFACES, construction_models, export, lookup

# --case -> its search on the `enumeration` module; `render.BLOCKS` holds
# the table renderers of the same cases
_ENUMERATIONS = {
    "quadric": lambda e, a: e.enumerate_quadric_fibrations(),
    "p2bundle": lambda e, a: e.enumerate_p2_bundles(),
    "blowup": lambda e, a: e.enumerate_point_blowups(),
    "rho3": lambda e, a: e.enumerate_rho3(a.surface),
    "highdim": lambda e, a: e.enumerate_highdim(a.dim),
}


def _cmd_enumerate(args):
    from . import enumeration

    try:
        result = _ENUMERATIONS[args.case](enumeration, args)
    except ValueError as exc:
        return _usage_error(str(exc))
    from . import render

    if args.format == "json":
        _emit(render.to_json(result))
    else:
        # the one place a blank line is written: between two blocks
        _emit("\n\n".join(render.BLOCKS[args.case](result, args)))
    return 0


def _cmd_verify(args):
    from . import verify

    if args.only is None:
        reports = verify.verify_all()
    elif args.only in verify.REPORTS:
        reports = [verify.REPORTS[args.only]()]
    else:
        names = ", ".join(verify.REPORTS)
        return _usage_error(f"no report named {args.only!r}; choose from {names}")
    lines = []
    for rep in reports:
        lines.append(
            f"report {rep.title}: pass {rep.passed}  fail {rep.failed}  "
            f"skipped {rep.skipped}"
        )
        for c in rep.checks:
            if c.status == "fail":
                lines.append(
                    f"  FAIL {c.name} [{c.subject}]: expected {c.expected}, "
                    f"computed {c.computed}"
                )
            elif c.status == "skipped" and args.only is not None:
                lines.append(f"  skip {c.name} [{c.subject}]: {c.reason}")
    failed = sum(rep.failed for rep in reports)
    lines.append("all checks pass" if failed == 0 else f"{failed} checks FAILED")
    _emit("\n".join(lines))
    return 0 if failed == 0 else 1


def _model_label(kind, data):
    if not data:
        return kind
    return f"{kind}({', '.join(str(x) for x in data)})"


def _cmd_show(args):
    r = lookup(args.id)
    if r is None:
        return _usage_error(f"no family with id {args.id!r}")
    fields = [
        (k.replace("_", " "), "-" if v is None else v)
        for k, v in dataclasses.asdict(r).items()
    ]
    models = construction_models(r.id)
    fields.append(("models", " + ".join(_model_label(*m) for m in models) or "-"))
    width = max(len(k) for k, _ in fields) + 1
    _emit("\n".join(f"{(k + ':').ljust(width)}  {v}" for k, v in fields))
    return 0


def _cmd_export(args):
    data = export(args.format)
    if args.out is None:
        sys.stdout.write(data.decode("utf-8"))
        sys.stdout.flush()
        return 0
    try:
        with open(args.out, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        return _usage_error(f"cannot write {args.out}: {exc.strerror}")
    _emit(f"wrote {args.out} ({len(data)} bytes)")
    return 0


def _emit(text):
    sys.stdout.write(text + "\n")
    sys.stdout.flush()


def _usage_error(message):
    """Report bad input on one stderr line; exit code 2, as argparse uses."""
    sys.stderr.write(f"delpezzo: error: {message}\n")
    return 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="delpezzo",
        description=(
            "enumerate, cross-check, and export the classification of "
            "almost del Pezzo manifolds"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="run one of the classification searches")
    p.add_argument(
        "--case",
        required=True,
        choices=list(_ENUMERATIONS),
    )
    p.add_argument("--dim", type=int, default=4, help="dimension for highdim")
    p.add_argument(
        "--surface", choices=list(RHO3_SURFACES), default=next(iter(RHO3_SURFACES)),
        help="base for rho3",
    )
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="recompute invariants and cross-check")
    p.add_argument(
        "--only",
        default=None,
        metavar="REPORT",
        help="run one report; an unknown name lists the valid ones",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("show", help="print one catalog record")
    p.add_argument("id")
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser("export", help="dump the catalog")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_export)
    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(run())
