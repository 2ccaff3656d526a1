"""The classification tables as machine-readable records.

Families of almost del Pezzo threefolds and their higher-dimensional
relatives, keyed by stable ids derived from the statement numbering
(thm3.4-2, thm4.1-f2-c5, ...).  Each record stores dimension, degree,
Picard number, index, contraction type, anticanonical-map type, flop
partner and smoothing target where stated, a citation, and free-text
notes.

Each statement is one table with one row per family.  A row gives the
id suffix, the fields that vary within the statement, the notes, and
either the construction models (split-bundle tower, rank-2 Chern data,
blow-up target, ...) from which `enumeration` recomputes degrees or
the reason the family has none.  A model is its row's own (kind, data)
pair, and `construction_models` hands those pairs out unchanged.  The
fields a whole statement shares (dimension, contraction, map type, the
citation pattern) are written once, at its table, and the index is
always dim - 1.

Notes and citations deliberately avoid commas so the CSV export needs
no quoting.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

CONTRACTIONS = frozenset(
    ["QuadricFibration", "P1Bundle", "PnBundle", "QuadricBundle", "PointBlowup", "Fano"]
)
MAP_TYPES = frozenset(["Ample", "Small", "Divisorial"])

@dataclass(frozen=True)
class FamilyRecord:
    id: str
    dim: int
    degree: int
    picard: int
    index: int
    contraction: str
    anticanonical_map: str
    flop_partner: Optional[str]
    smoothing: Optional[str]
    citation: str
    notes: str

    def __post_init__(self):
        for fname in ("dim", "degree", "picard", "index"):
            value = getattr(self, fname)
            if type(value) is not int:
                raise ValueError(f"{self.id}: {fname} must be an int, got {value!r}")
        if self.degree < 1:
            raise ValueError(f"{self.id}: degree must be >= 1, got {self.degree}")
        if self.index != self.dim - 1:
            raise ValueError(f"{self.id}: index must equal dim - 1")
        if self.contraction not in CONTRACTIONS:
            raise ValueError(f"{self.id}: unknown contraction {self.contraction!r}")
        if self.anticanonical_map not in MAP_TYPES:
            raise ValueError(f"{self.id}: unknown map type {self.anticanonical_map!r}")
        for fname in FIELDS:
            value = getattr(self, fname)
            if isinstance(value, str) and ("," in value or "\n" in value):
                raise ValueError(f"{self.id}: field {fname} may not contain commas")


# the field order of a record, which `show`, the exports and the comma
# check above read
FIELDS = tuple(f.name for f in fields(FamilyRecord))


# A row that states a family ends in its notes and then either its
# construction models, as (kind, data) pairs with `kind` a key of
# `enumeration.MODEL_KINDS`, or the reason it has none; `_table` pairs
# each row's record with them.

# Theorem 2.1: the smooth del Pezzo threefolds (Fano, ample anticanonical
# map), as (id suffix, degree, Picard number, notes, models)
_SMOOTH_TABLE = (
    ("1", 1, 1, "double cover of the Veronese cone; hypersurface of degree 6 in P(1 1 1 2 3)",
     (("weighted", (6, (1, 1, 1, 2, 3))),)),
    ("2", 2, 1, "double cover of P3 branched along a smooth quartic; hypersurface of degree 4 in P(1 1 1 1 2)",
     (("weighted", (4, (1, 1, 1, 1, 2))),)),
    ("3", 3, 1, "cubic hypersurface in P4", (("ci", ((3,),)),)),
    ("4", 4, 1, "complete intersection of two quadrics in P5", (("ci", ((2, 2),)),)),
    ("5", 5, 1, "linear section of the Grassmannian G(1 4) in P9; exists up to dimension 6",
     (("grass", (2, 5)),)),
    ("6a", 6, 2, "P(T_P2); item (6) case (a); flag variety of P2", (("rank2", ("P2", 3)),)),
    ("6b", 6, 3, "P1 x P1 x P1; item (6) case (b); in dimension 4 the analogue is P2 x P2 of degree 6 and Picard number 2",
     (("rank2", ("P1xP1", 2)), ("towerP13", ()))),
    ("7", 7, 2, "blow-up of P3 in a point; equals P(O(1)+O(2)) over P2",
     (("rank2", ("P2", 2)), ("blowup", ("thm2.1-8",)))),
    ("8", 8, 1, "P3 with H = O(2)", (("veronese", (3, 2)),)),
)

_NO_FIBRATION = "no fibration data stored for this divisorial case"

# Theorem 3.1: divisorial anticanonical maps at Picard number 2, as
# (id suffix, degree, contraction, notes, models or the reason for none)
_DIVISORIAL_TABLE = (
    ("1a", 1, "QuadricFibration", "del Pezzo fibration; JPR case A.2.12; no fibration data stored",
     _NO_FIBRATION),
    ("1b", 2, "QuadricFibration", "conic-bundle-degeneration case; JPR case A.2.15; no fibration data stored",
     _NO_FIBRATION),
    ("1c", 2, "QuadricFibration", "contracts the ruled surface over an elliptic quartic curve; JPR case A.2.9; no fibration data stored",
     _NO_FIBRATION),
    ("1d", 4, "QuadricFibration", "hypersurface of bidegree (2 4)-type in P(1 1 2 2 2); JPR case A.2.14; no fibration data stored",
     _NO_FIBRATION),
    ("2a", 3, "P1Bundle", "P(F) for F in the Hulsbergen moduli M(-1;4); normalized c2 = 4; JPR cases A.3.3 and A.3.4",
     (("rank2", ("P2", 6)),)),
    ("2b", 6, "P1Bundle", "P(F) for F an extension of the ideal sheaf twist I_p(-1); normalized c2 = 1; JPR case A.3.2",
     (("rank2", ("P2", 3)),)),
    ("2c", 9, "P1Bundle", "P(O+O(3)) over P2; normalized c2 = -2; JPR case A.3.1",
     (("rank2", ("P2", 0)),)),
    ("3a", 1, "PointBlowup", "blow-up of V(2;2) in a special point; JPR cases A.5.5 and A.5.6",
     (("blowup", ("thm2.1-2",)),)),
    ("3b", 2, "PointBlowup", "blow-up of V(2;3) in a special point; JPR case A.5.7",
     (("blowup", ("thm2.1-3",)),)),
)

# Theorem 3.4: quadric fibrations over P1 with small anticanonical map, as
# (id suffix, split type of the rank-4 tower, alpha of X in |O(2) + alpha F|,
# degree, flop partner, smoothing)
_QUADRIC_TABLE = (
    (1, (0, 0, 0, 0), 2, 2, "thm3.4-1", "thm2.1-2"),
    (2, (0, 0, 0, 1), 1, 3, "thm3.6-3", "thm2.1-3"),
    (3, (0, 0, 1, 1), 0, 4, "thm3.4-3", "thm2.1-4"),
    (4, (0, 1, 1, 1), -1, 5, "thm3.5-1", "thm2.1-5"),
    (5, (-1, 0, 0, 1), 2, 2, "thm3.4-5", "thm2.1-2"),
    (6, (-1, 0, 0, 0), 3, 1, "thm3.4-6", "thm2.1-1"),
)

# split type -> family id of the Theorem 3.4 table
QUADRIC_FAMILIES = {a: f"thm3.4-{k}" for k, a, *_ in _QUADRIC_TABLE}

# Theorem 3.5: (id suffix, c2 of the normalized c1 = -1 bundle on P2, degree,
# flop partner, smoothing)
_P2_TABLE = (
    (1, 2, 5, "thm3.4-4", "thm2.1-5"),
    (2, 3, 4, "thm3.6-4", "thm2.1-4"),
    (3, 4, 3, "thm3.5-3", "thm2.1-3"),
    (4, 5, 2, "thm3.5-4", "thm2.1-2"),
)

# Theorem 3.6: (id suffix, degree, flop partner, smoothing); the family
# blows up V(2;degree + 1) in a general point
_BLOWUP_TABLE = (
    (1, 1, "thm3.6-1", "thm2.1-1"),
    (2, 2, "thm3.6-2", "thm2.1-2"),
    (3, 3, "thm3.4-2", "thm2.1-3"),
    (4, 4, "thm3.5-2", "thm2.1-4"),
)

# Theorem 4.1(2): the Picard-3 surfaces, as tag -> (key of
# `enumeration.SURFACES`, display name); the paper states the first and
# the others are mirrored from it
RHO3_SURFACES = {"p1p1": ("P1xP1", "P1 x P1"), "f2": ("F2", "F2")}

# Theorem 4.1(2): c2 of the rank-2 bundles with c1 = -K over those surfaces
_RHO3_C2 = (0, 2, 3, 4, 5, 6, 7)

# Proposition 5.1: higher-dimensional del Pezzo manifolds (Fano, ample
# anticanonical map, Picard number 1), as (id suffix, dimension, degree,
# notes, models or the reason for none)
_HIGHDIM_SMOOTH_TABLE = (
    (1, 4, 1, "hypersurface of degree 6 in P(3 2 1 1 1 1); representative at n = 4; exists for every n >= 4",
     (("weighted", (6, (3, 2, 1, 1, 1, 1))),)),
    (2, 4, 2, "hypersurface of degree 4 in P(2 1 1 1 1 1); representative at n = 4; exists for every n >= 4",
     (("weighted", (4, (2, 1, 1, 1, 1, 1))),)),
    (3, 4, 3, "cubic hypersurface in P5; representative at n = 4; exists for every n >= 4",
     (("ci", ((3,),)),)),
    (4, 4, 4, "complete intersection of two quadrics in P6; representative at n = 4; exists for every n >= 4",
     (("ci", ((2, 2),)),)),
    (5, 4, 5, "parametric record for the cones of degree >= 5; stored at the minimal degree; no finite model",
     "parametric cone record; no finite model to recompute"),
    (6, 5, 5, "non-cones of degree >= 5: (n;d) = (4;6) is P2 x P2 and (4;5) and (5;5) are linear sections of G(1 4); stored representative is (5;5)",
     (("tower56", ()),)),
)

# Theorem 5.8: higher-dimensional families with small anticanonical map at
# Picard number 2, as (id suffix, dimension, degree, contraction, notes,
# models or the reason for none)
_HIGHDIM_SMALL_TABLE = (
    (1, 4, 5, "PnBundle",
     "X' a cone over a smooth del Pezzo manifold; resolved by P(F) over P2 "
     "with rank-3 F of c1 = 3h and c2 = 4; the Theorem 3.5(1) bundle "
     "extended by O; representative at n = 4",
     (("rank3", ("P2", 4)),)),
    (2, 5, 5, "QuadricBundle",
     "quadric bundle over P1; X' is a singular hyperplane section of "
     "G(1 4) in P9; resolved inside P(O(1 1) + O^3) over P1 x P2",
     (("tower56", ()),)),
    (3, 4, 4, "QuadricBundle",
     "stated as H^5 = 4 which this catalog reads as H^4 = 4 for the "
     "4-fold; the hyperplane-section arithmetic of the (5;5) family "
     "gives degree 5 instead; degree kept as printed and not recomputable",
     "degree kept as printed (H^5 = 4 read as H^4 = 4); "
     "no stored model recomputes it and the hyperplane-section "
     "arithmetic gives 5"),
)

# Proposition 5.5 and Theorems 5.6-5.7: the printed adjunction class and
# degree of each scroll construction, keyed by its key in
# `enumeration.SCROLLS`, as (subject, adjunction class, degree, citation,
# reason); the reason records the Proposition 5.5 erratum, which stays
# visible instead of being corrected silently
CONSTRUCTION_CLAIMS = {
    "p1xp2": ("(5;5) scroll over P1xP2", "-p - h - 3*z", 5, "Theorem 5.6", ""),
    "p2": (
        "(4;6) scroll over P2",
        "-3*z",
        6,
        "Proposition 5.5",
        "computed with V = O(2) + O^3; the printed V = O + O^3 is "
        "inconsistent with D in |z - 2h| and with this degree",
    ),
    "f1": ("(4;5) scroll over F1", "-3*z", 5, "Theorem 5.7", ""),
}


def _table(prefix, citation, columns, rows, **shared):
    """(record, models or the reason for none) of each row of one table.

    A row is (id suffix, its values of `columns`, notes, models or reason);
    `shared` holds the fields every row of the statement has in common.
    `citation` is formatted with the item, the suffix without its case
    letter, and each record's index is its dimension - 1.
    """
    for suffix, *values, notes, models in rows:
        id = f"{prefix}-{suffix}"
        stated = {"flop_partner": None, "smoothing": None, **shared}
        stated.update(zip(columns, values))
        if stated["flop_partner"] == id:
            notes += "; flop partner is the family itself"
        record = FamilyRecord(
            id=id,
            index=stated["dim"] - 1,
            citation=citation.format(str(suffix).rstrip("abcd")),
            notes=notes,
            **stated,
        )
        yield record, models


def _quadric_rows():
    for k, a, alpha, d, partner, smoothing in _QUADRIC_TABLE:
        sign = "+" if alpha >= 0 else "-"
        notes = (
            f"X in |O(2) {sign} {abs(alpha)}F| on the tower over P1 with split type "
            f"({a[0]} {a[1]} {a[2]} {a[3]})"
        )
        if a == (0, 0, 0, 0):
            notes += "; equals a divisor of bidegree (2 2) in P3 x P1"
        yield k, d, partner, smoothing, notes, (("quadric", (a, alpha)),)


def _p2_rows():
    for k, c2, d, partner, smoothing in _P2_TABLE:
        notes = (
            f"P(F) for a stable rank-2 bundle F on P2 with c1 = -1 and c2 = {c2}; "
            "small curves are the jumping lines"
        )
        # the record states the normalized c1 = -1 bundle; the polarized
        # model is its twist by O(2) with c1 = 3h and c2 shifted by 2
        yield k, d, partner, smoothing, notes, (("rank2", ("P2", c2 + 2)),)


def _blowup_rows():
    for k, d, partner, smoothing in _BLOWUP_TABLE:
        notes = f"blow-up of V(2;{d + 1}) in a general point"
        yield k, d, partner, smoothing, notes, (("blowup", (f"thm2.1-{d + 1}",)),)


def _rho3_rows():
    stated = next(iter(RHO3_SURFACES))
    for surface_tag, (kind, surface_note) in RHO3_SURFACES.items():
        for c2 in _RHO3_C2:
            notes = f"P(F) for rank-2 F on {surface_note} with c1 = -K and c2 = {c2}"
            if c2 == 0:
                map_type = "Divisorial"
                notes += (
                    "; split case F = O(-K) + O; "
                    "psi contracts the divisor given by the trivial summand"
                )
            else:
                map_type = "Small"
                notes += (
                    "; extension of I_Z(-K) by O with two points of Z on one "
                    "ruling line and the remaining points general"
                )
            if c2 == 2:
                notes += "; contains the uniform split subcase F = O(1 2) + O(1 0)"
            if surface_tag != stated:
                notes += (
                    "; mirrored from the P1 x P1 case which is stated "
                    "as representative"
                )
            yield f"{surface_tag}-c{c2}", 8 - c2, map_type, notes, (("rank2", (kind, c2)),)


# Theorems 3.4-3.6: the small anticanonical maps of threefolds at Picard
# number 2, each row with its degree, flop partner and smoothing
_SMALL = {"dim": 3, "picard": 2, "anticanonical_map": "Small"}
_SMALL_COLUMNS = ("degree", "flop_partner", "smoothing")

# every family in statement order, with its models or the reason for none
_FAMILIES = (
    *_table(
        "thm2.1", "Theorem 2.1({})", ("degree", "picard"), _SMOOTH_TABLE,
        dim=3, contraction="Fano", anticanonical_map="Ample",
    ),
    *_table(
        "thm3.1", "Theorem 3.1({})", ("degree", "contraction"), _DIVISORIAL_TABLE,
        dim=3, picard=2, anticanonical_map="Divisorial",
    ),
    *_table(
        "thm3.4", "Theorem 3.4({})", _SMALL_COLUMNS, _quadric_rows(),
        contraction="QuadricFibration", **_SMALL,
    ),
    *_table(
        "thm3.5", "Theorem 3.5({})", _SMALL_COLUMNS, _p2_rows(),
        contraction="P1Bundle", **_SMALL,
    ),
    *_table(
        "thm3.6", "Theorem 3.6({})", _SMALL_COLUMNS, _blowup_rows(),
        contraction="PointBlowup", **_SMALL,
    ),
    *_table(
        "thm4.1", "Theorem 4.1(2)", ("degree", "anticanonical_map"), _rho3_rows(),
        dim=3, picard=3, contraction="P1Bundle",
    ),
    *_table(
        "prop5.1", "Proposition 5.1({})", ("dim", "degree"), _HIGHDIM_SMOOTH_TABLE,
        picard=1, contraction="Fano", anticanonical_map="Ample",
    ),
    *_table(
        "thm5.8", "Theorem 5.8({})", ("dim", "degree", "contraction"), _HIGHDIM_SMALL_TABLE,
        picard=2, anticanonical_map="Small",
    ),
)
_RECORDS = tuple(r for r, _ in _FAMILIES)
_BY_ID = {r.id: r for r in _RECORDS}
_MODELS = {r.id: m for r, m in _FAMILIES if not isinstance(m, str)}

# id -> why the record has no construction model
NO_MODEL_REASONS = {r.id: m for r, m in _FAMILIES if isinstance(m, str)}

# V(2;d) aliases for the Picard-rank-1 smooth del Pezzo threefolds
_ALIASES = {f"V2.{d}": f"thm2.1-{d}" for d in range(1, 6)}


def builtin_catalog() -> list[FamilyRecord]:
    """All records, in statement order; immutable data."""
    return list(_RECORDS)


def lookup(id: str) -> Optional[FamilyRecord]:
    """Record for an id or V2.d alias; None when unknown."""
    key = _ALIASES.get(id, id)
    return _BY_ID.get(key)


def construction_models(id: str) -> tuple[tuple[str, tuple], ...]:
    """A record's models as its row's (kind, data) pairs; empty when only
    data is stored."""
    return _MODELS.get(id, ())


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _record_dict(r: FamilyRecord) -> dict:
    values = ((k, getattr(r, k)) for k in FIELDS)
    return {k: v for k, v in values if v is not None}


def export(format: str) -> bytes:
    """Catalog as deterministic JSON or CSV bytes, sorted by id."""
    records = sorted(_RECORDS, key=lambda r: r.id)
    if format == "json":
        import json

        text = json.dumps([_record_dict(r) for r in records], indent=2)
        return (text + "\n").encode("utf-8")
    if format == "csv":
        lines = [",".join(FIELDS)]
        for r in records:
            values = (getattr(r, k) for k in FIELDS)
            cells = ("" if v is None else str(v) for v in values)
            lines.append(",".join(cells))
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unsupported export format {format!r}")
