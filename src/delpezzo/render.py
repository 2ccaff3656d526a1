"""The text and JSON output of `delpezzo enumerate`.

Only `enumerate` loads this module, once its search has run, so `show`,
`export` and `verify` never compile it.  Each search has its own
table renderer in `BLOCKS`, which returns the output as blocks (a
heading line, a table, the excluded section); `cli._cmd_enumerate` joins
them with one blank line, the only place a blank line is written.  Its
JSON comes from the one `to_json`, which writes every named tuple of the
result as the dict of its fields; a `verify.Report` goes through it too,
as its title and checks.
"""

from __future__ import annotations

import re

from .catalog import RHO3_SURFACES, lookup

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


def _psi_label(family_id):
    r = lookup(family_id)
    return "-" if r is None else r.anticanonical_map


def _quadric_blocks(table, args):
    # a Small verdict without a family prints "-", as a missing record
    # does in the partner column; `verify` fails it
    smalls = sorted(
        (v for v in table if v.verdict == "Small"), key=lambda v: v.family or "-"
    )
    small_rows = [
        [v.family or "-", *v.a, v.alpha, v.degree, _partner_label(v.family)]
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
            _psi_label(c.family),
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


# --case -> table renderer, in the order of `cli._ENUMERATIONS`
BLOCKS = {
    "quadric": _quadric_blocks,
    "p2bundle": _p2bundle_blocks,
    "blowup": _blowup_blocks,
    "rho3": _rho3_blocks,
    "highdim": _highdim_blocks,
}


def _plain(value):
    """`value` with every named tuple in it, at any depth, as the dict of
    its fields; any other tuple stays a sequence."""
    if hasattr(value, "_asdict"):
        return {k: _plain(v) for k, v in value._asdict().items()}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def to_json(result):
    """A search result, the quadric search's tuple of verdicts, or a verify
    report, as JSON: every named tuple in it becomes the dict of its
    fields."""
    import json

    return json.dumps(_plain(result), indent=2)
