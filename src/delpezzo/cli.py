"""Command line front end: enumerate, verify, show, export.

All output is deterministic, so the rendered tables can be compared
byte-for-byte against golden files.  Each search has its own table
renderer, which returns the output as blocks (a heading line, a table,
the excluded section); `_cmd_enumerate` joins them with one blank line,
the only place a blank line is written.  Its JSON comes from the one
`_json`, which writes every named tuple of the result as the dict of
its fields.

Each command imports only the layers it runs, so a cold process pays
for nothing else.  `show` and `export` load `catalog` alone; `enumerate`
adds `enumeration` (with `bundles`) when it runs its search; `verify`
adds `verify` when it runs its reports.  `json` is loaded only to
render JSON.  The package root loads nothing itself, so `chow` comes
only with `enumeration`.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys

from .catalog import RHO3_SURFACES, construction_models, export, lookup

_INT = re.compile(r"^-?\d+$")


def _render_table(headers, rows):
    cells = [list(map(str, headers))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    numeric = [
        all(_INT.match(row[i]) for row in cells[1:]) and len(cells) > 1
        for i in range(len(headers))
    ]

    def fmt(row):
        parts = [
            s.rjust(w) if num else s.ljust(w)
            for s, w, num in zip(row, widths, numeric)
        ]
        return ("  " + "  ".join(parts)).rstrip()

    lines = [fmt(cells[0]), "  " + "  ".join("-" * w for w in widths)]
    lines.extend(fmt(row) for row in cells[1:])
    return "\n".join(lines)


def _exclusion_blocks(exclusions):
    """The "excluded:" section of a search result: one block, or none
    without exclusions."""
    if not exclusions:
        return []
    lines = ["excluded:"]
    for e in exclusions:
        data = " ".join(str(x) for x in e.data)
        line = f"  {e.kind} {data}: {e.reason}"
        if e.computed:
            nums = "; ".join(f"{k} = {v}" for k, v in e.computed)
            line += f" [{nums}]"
        lines.append(line)
    return ["\n".join(lines)]


def _partner_label(family_id):
    r = lookup(family_id)
    if r is None or r.flop_partner is None:
        return "-"
    return "self" if r.flop_partner == family_id else r.flop_partner


def _quadric_blocks(table, args):
    smalls = sorted(
        (v for v in table if v.verdict == "Small"), key=lambda v: v.family
    )
    small_rows = [
        [v.family, *v.a, v.alpha, v.degree, _partner_label(v.family)]
        for v in smalls
    ]
    divisorial_rows = [
        [*v.a, v.alpha, v.degree, "inferred" if v.inferred else "stated", v.reason]
        for v in table
        if v.verdict == "Divisorial"
    ]
    rejected_rows = [
        [*v.a, v.verdict, v.reason]
        for v in table
        if v.verdict.startswith("Rejected")
    ]
    return [
        "quadric fibrations over P1: X in |O(2) + alpha F| on the split "
        "tower P(O(a1) + O(a2) + O(a3) + O(a4))",
        "families with small anticanonical map:",
        _render_table(
            ["family", "a1", "a2", "a3", "a4", "alpha", "d", "partner"], small_rows
        ),
        "divisorial anticanonical map:",
        _render_table(
            ["a1", "a2", "a3", "a4", "alpha", "d", "origin", "reason"], divisorial_rows
        ),
        "rejected split types:",
        _render_table(["a1", "a2", "a3", "a4", "verdict", "reason"], rejected_rows),
    ]


def _p2bundle_blocks(result, args):
    rows = [
        [c.data[0], c.degree + 2, c.degree, c.family, _partner_label(c.family)]
        for c in result.candidates
    ]
    return [
        "rank-2 bundles F on P2 with c1 = -1: candidates P(F) with small "
        "anticanonical map",
        _render_table(["c2", "chi(F(2))", "d", "family", "partner"], rows),
        *_exclusion_blocks(result.exclusions),
    ]


def _blowup_blocks(result, args):
    rows = [
        [c.degree, c.data[0], c.family, _partner_label(c.family)]
        for c in result.candidates
    ]
    return [
        "point blow-ups of rank-1 del Pezzo threefolds:",
        _render_table(["d", "target", "family", "partner"], rows),
        *_exclusion_blocks(result.exclusions),
    ]


def _rho3_blocks(result, args):
    surface_name = RHO3_SURFACES[args.surface][1]
    rows = [
        [
            c.data[1],
            c.degree,
            c.family,
            lookup(c.family).anticanonical_map,
            "; ".join(c.notes),
        ]
        for c in result.candidates
    ]
    return [
        f"rank-2 bundles F on {surface_name} with c1 = -K: candidates P(F) "
        "at Picard number 3",
        _render_table(["c2", "d", "family", "psi", "notes"], rows),
        *_exclusion_blocks(result.exclusions),
    ]


def _highdim_blocks(result, args):
    n = args.dim
    pn = [c for c in result.candidates if c.kind == "pn-bundle"]
    rows = [[c.data[3], c.data[1], c.data[2], c.degree, c.picard] for c in pn]
    blocks = [
        f"candidates in dimension {n}:",
        f"P^{n - 2}-bundles over a surface (rank-2 model extended by O^{n - 3}):",
        _render_table(["source", "surface", "c2", "d", "picard"], rows),
    ]
    qb = [c for c in result.candidates if c.kind == "quadric-bundle-highdim"]
    if qb:
        rows = [
            [c.family, c.degree, c.picard, "; ".join(c.notes)] for c in qb
        ]
        blocks += [
            "quadric bundles over P1:",
            _render_table(["family", "d", "picard", "notes"], rows),
        ]
    chains = [c for c in result.candidates if c.kind == "point-blowup-chain"]
    longest = max((c.data[2] for c in chains), default=0)
    blocks.append(
        f"point blow-up chains: {len(chains)} further candidates (up to "
        f"{longest} successive general-point blow-ups)"
    )
    return blocks + _exclusion_blocks(result.exclusions)


# --case -> (search on the `enumeration` module, table renderer)
_ENUMERATIONS = {
    "quadric": (lambda e, a: e.enumerate_quadric_fibrations(), _quadric_blocks),
    "p2bundle": (lambda e, a: e.enumerate_p2_bundles(), _p2bundle_blocks),
    "blowup": (lambda e, a: e.enumerate_point_blowups(), _blowup_blocks),
    "rho3": (lambda e, a: e.enumerate_rho3(a.surface), _rho3_blocks),
    "highdim": (lambda e, a: e.enumerate_highdim(a.dim), _highdim_blocks),
}


def _plain(value):
    """`value` with every named tuple in it, at any depth, as the dict of
    its fields; any other tuple stays a sequence."""
    if hasattr(value, "_asdict"):
        return {k: _plain(v) for k, v in value._asdict().items()}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _json(result):
    """A search result, or the quadric search's tuple of verdicts, as JSON:
    every named tuple in it becomes the dict of its fields."""
    import json

    return json.dumps(_plain(result), indent=2)


def _cmd_enumerate(args):
    from . import enumeration

    search, to_blocks = _ENUMERATIONS[args.case]
    try:
        result = search(enumeration, args)
    except ValueError as exc:
        return _usage_error(str(exc))
    if args.format == "json":
        _emit(_json(result))
    else:
        # the one place a blank line is written: between two blocks
        _emit("\n\n".join(to_blocks(result, args)))
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
