"""Catalog integrity: record invariants, cross-references, and export."""

import ast
import json
from pathlib import Path

import pytest

from delpezzo import catalog
from delpezzo.catalog import (
    CONTRACTIONS,
    MAP_TYPES,
    FamilyRecord,
    builtin_catalog,
    construction_models,
    export,
    lookup,
)
from delpezzo.enumeration import enumerate_highdim


def test_catalog_size_and_unique_ids():
    records = builtin_catalog()
    assert len(records) == 55
    ids = [r.id for r in records]
    assert len(set(ids)) == 55


def test_smooth_list_composition():
    smooth = [r for r in builtin_catalog() if r.id.startswith("thm2.1-")]
    assert len(smooth) == 9  # eight numbered items, one of them split in two
    assert {r.id: r.degree for r in smooth} == {
        "thm2.1-1": 1,
        "thm2.1-2": 2,
        "thm2.1-3": 3,
        "thm2.1-4": 4,
        "thm2.1-5": 5,
        "thm2.1-6a": 6,
        "thm2.1-6b": 6,
        "thm2.1-7": 7,
        "thm2.1-8": 8,
    }
    assert all(r.anticanonical_map == "Ample" for r in smooth)
    assert [r.id for r in smooth if r.picard == 1] == [
        "thm2.1-1",
        "thm2.1-2",
        "thm2.1-3",
        "thm2.1-4",
        "thm2.1-5",
        "thm2.1-8",
    ]


def test_record_invariants():
    for r in builtin_catalog():
        assert r.index == r.dim - 1
        assert r.degree >= 1
        assert r.contraction in CONTRACTIONS
        assert r.anticanonical_map in MAP_TYPES
        assert r.citation


def test_cross_references_resolve():
    records = builtin_catalog()
    by_id = {r.id: r for r in records}
    for r in records:
        if r.flop_partner is not None:
            partner = by_id[r.flop_partner]
            assert partner.flop_partner == r.id
            assert partner.degree == r.degree
        if r.smoothing is not None:
            target = by_id[r.smoothing]
            assert target.id.startswith("thm2.1-")
            assert target.degree == r.degree
            assert target.picard == r.picard - 1


def test_flop_partner_examples_pinned():
    assert lookup("thm3.4-4").flop_partner == "thm3.5-1"
    assert lookup("thm3.5-1").flop_partner == "thm3.4-4"
    assert lookup("thm3.4-2").flop_partner == "thm3.6-3"
    assert lookup("thm3.6-4").flop_partner == "thm3.5-2"
    # degree <= 2 families flop to themselves
    for rid in ("thm3.4-1", "thm3.4-5", "thm3.4-6", "thm3.6-1", "thm3.6-2"):
        assert lookup(rid).flop_partner == rid


def test_smoothings_pair_up_by_degree():
    smoothed = [r for r in builtin_catalog() if r.smoothing is not None]
    assert len(smoothed) == 14
    assert all(r.dim == 3 and r.picard == 2 for r in smoothed)
    assert lookup("thm3.4-6").smoothing == "thm2.1-1"
    assert lookup("thm3.5-1").smoothing == "thm2.1-5"


def test_lookup_aliases_and_misses():
    assert lookup("V2.3") is lookup("thm2.1-3")
    assert lookup("V2.5").degree == 5
    assert lookup("thm4.1-f2-c5") is not None
    assert lookup("nosuch") is None
    assert lookup("") is None


def test_rho3_records_have_divisorial_split_case():
    for tag in ("p1p1", "f2"):
        rec = lookup(f"thm4.1-{tag}-c0")
        assert rec.anticanonical_map == "Divisorial"
        assert rec.degree == 8
        rest = [
            lookup(f"thm4.1-{tag}-c{c2}") for c2 in (2, 3, 4, 5, 6, 7)
        ]
        assert [r.degree for r in rest] == [6, 5, 4, 3, 2, 1]
        assert all(r.anticanonical_map == "Small" for r in rest)


# ---------------------------------------------------------------------------
# record validation
# ---------------------------------------------------------------------------


def _record(**overrides):
    base = dict(
        id="test-1",
        dim=3,
        degree=2,
        picard=1,
        index=2,
        contraction="Fano",
        anticanonical_map="Ample",
        flop_partner=None,
        smoothing=None,
        citation="Theorem 0.0",
        notes="a record used only by the tests",
    )
    base.update(overrides)
    return FamilyRecord(**base)


def test_record_accepts_valid_data():
    assert _record().degree == 2


def test_record_rejects_nonpositive_degree():
    with pytest.raises(ValueError, match="degree"):
        _record(degree=0)


@pytest.mark.parametrize(
    "field,value",
    [
        ("dim", 3.0),
        ("degree", 2.0),
        ("degree", True),
        ("degree", 2.5),
        ("picard", 1.0),
        ("picard", True),
        ("index", 2.0),
    ],
)
def test_record_rejects_non_int_integer_fields(field, value):
    # 2.0 hashes like 2, so a float degree would share the value memoized
    # for the int one by a model that reads it
    with pytest.raises(ValueError, match=f"{field} must be an int"):
        _record(**{field: value})


def test_record_rejects_wrong_index():
    with pytest.raises(ValueError, match="index"):
        _record(index=3)


def test_record_rejects_unknown_enums():
    with pytest.raises(ValueError, match="contraction"):
        _record(contraction="Flip")
    with pytest.raises(ValueError, match="map type"):
        _record(anticanonical_map="Tiny")


def test_record_rejects_commas_in_text():
    with pytest.raises(ValueError, match="may not contain commas"):
        _record(notes="one, two")
    with pytest.raises(ValueError, match="may not contain commas"):
        _record(citation="Theorem 0.0, part 2")


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def test_construction_models_known_and_unknown():
    ((kind, data),) = construction_models("thm2.1-5")
    assert kind == "grass" and data == (2, 5)
    assert construction_models("thm3.1-1a") == ()
    assert construction_models("nosuch") == ()


# id -> its construction models as ((kind, data), ...); () where the
# catalog stores the record as data only
PINNED_MODELS = {
    "thm2.1-1": (("weighted", (6, (1, 1, 1, 2, 3))),),
    "thm2.1-2": (("weighted", (4, (1, 1, 1, 1, 2))),),
    "thm2.1-3": (("ci", ((3,),)),),
    "thm2.1-4": (("ci", ((2, 2),)),),
    "thm2.1-5": (("grass", (2, 5)),),
    "thm2.1-6a": (("rank2", ("P2", 3)),),
    "thm2.1-6b": (("rank2", ("P1xP1", 2)), ("towerP13", ())),
    "thm2.1-7": (("rank2", ("P2", 2)), ("blowup", ("thm2.1-8",))),
    "thm2.1-8": (("veronese", (3, 2)),),
    "thm3.1-1a": (),
    "thm3.1-1b": (),
    "thm3.1-1c": (),
    "thm3.1-1d": (),
    "thm3.1-2a": (("rank2", ("P2", 6)),),
    "thm3.1-2b": (("rank2", ("P2", 3)),),
    "thm3.1-2c": (("rank2", ("P2", 0)),),
    "thm3.1-3a": (("blowup", ("thm2.1-2",)),),
    "thm3.1-3b": (("blowup", ("thm2.1-3",)),),
    "thm3.4-1": (("quadric", ((0, 0, 0, 0), 2)),),
    "thm3.4-2": (("quadric", ((0, 0, 0, 1), 1)),),
    "thm3.4-3": (("quadric", ((0, 0, 1, 1), 0)),),
    "thm3.4-4": (("quadric", ((0, 1, 1, 1), -1)),),
    "thm3.4-5": (("quadric", ((-1, 0, 0, 1), 2)),),
    "thm3.4-6": (("quadric", ((-1, 0, 0, 0), 3)),),
    "thm3.5-1": (("rank2", ("P2", 4)),),
    "thm3.5-2": (("rank2", ("P2", 5)),),
    "thm3.5-3": (("rank2", ("P2", 6)),),
    "thm3.5-4": (("rank2", ("P2", 7)),),
    "thm3.6-1": (("blowup", ("thm2.1-2",)),),
    "thm3.6-2": (("blowup", ("thm2.1-3",)),),
    "thm3.6-3": (("blowup", ("thm2.1-4",)),),
    "thm3.6-4": (("blowup", ("thm2.1-5",)),),
    "thm4.1-p1p1-c0": (("rank2", ("P1xP1", 0)),),
    "thm4.1-p1p1-c2": (("rank2", ("P1xP1", 2)),),
    "thm4.1-p1p1-c3": (("rank2", ("P1xP1", 3)),),
    "thm4.1-p1p1-c4": (("rank2", ("P1xP1", 4)),),
    "thm4.1-p1p1-c5": (("rank2", ("P1xP1", 5)),),
    "thm4.1-p1p1-c6": (("rank2", ("P1xP1", 6)),),
    "thm4.1-p1p1-c7": (("rank2", ("P1xP1", 7)),),
    "thm4.1-f2-c0": (("rank2", ("F2", 0)),),
    "thm4.1-f2-c2": (("rank2", ("F2", 2)),),
    "thm4.1-f2-c3": (("rank2", ("F2", 3)),),
    "thm4.1-f2-c4": (("rank2", ("F2", 4)),),
    "thm4.1-f2-c5": (("rank2", ("F2", 5)),),
    "thm4.1-f2-c6": (("rank2", ("F2", 6)),),
    "thm4.1-f2-c7": (("rank2", ("F2", 7)),),
    "prop5.1-1": (("weighted", (6, (3, 2, 1, 1, 1, 1))),),
    "prop5.1-2": (("weighted", (4, (2, 1, 1, 1, 1, 1))),),
    "prop5.1-3": (("ci", ((3,),)),),
    "prop5.1-4": (("ci", ((2, 2),)),),
    "prop5.1-5": (),
    "prop5.1-6": (("tower56", ()),),
    "thm5.8-1": (("rank3", ("P2", 4)),),
    "thm5.8-2": (("tower56", ()),),
    "thm5.8-3": (),
}


def test_construction_models_pinned_for_every_id():
    """A model swapped for another of equal degree passes every verify
    check, so each id's models are pinned literally."""
    assert list(PINNED_MODELS) == [r.id for r in builtin_catalog()]
    for rid, expected in PINNED_MODELS.items():
        got = tuple((kind, data) for kind, data in construction_models(rid))
        assert got == expected, rid


def test_rank2_sources_frozen():
    # (source id, surface, c2) of each P^(n-2)-bundle candidate: the
    # rank-2 models of the catalog that the dimension-4 search extends
    sources = [
        (c.data[3], c.data[1], c.data[2])
        for c in enumerate_highdim(4).candidates
        if c.kind == "pn-bundle"
    ]
    assert len(sources) == 24
    assert sources == sorted(sources)
    assert ("thm2.1-6a", "P2", 3) in sources
    assert ("thm4.1-f2-c7", "F2", 7) in sources
    kinds = {kind for _, kind, _ in sources}
    assert kinds == {"P2", "P1xP1", "F2"}


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_json_export_round_trip():
    payload = json.loads(export("json").decode("utf-8"))
    assert len(payload) == 55
    ids = [row["id"] for row in payload]
    assert ids == sorted(ids)
    assert ids[0] == "prop5.1-1"
    by_id = {row["id"]: row for row in payload}
    # absent optional fields are omitted rather than null
    assert "flop_partner" not in by_id["thm2.1-1"]
    assert by_id["thm3.4-4"]["flop_partner"] == "thm3.5-1"
    # the export carries exactly the catalog's data
    for r in builtin_catalog():
        row = by_id[r.id]
        assert row["degree"] == r.degree
        assert row["citation"] == r.citation


def test_csv_export_shape():
    data = export("csv").decode("utf-8")
    lines = data.strip().split("\n")
    assert len(lines) == 56
    header = lines[0].split(",")
    assert header[0] == "id" and header[-1] == "notes"
    assert '"' not in data  # no field ever needs quoting
    for line in lines[1:]:
        assert len(line.split(",")) == len(header)


def test_export_rejects_unknown_format():
    with pytest.raises(ValueError, match="format"):
        export("xml")


def test_exports_are_deterministic():
    assert export("json") == export("json")
    assert export("csv") == export("csv")


def test_catalog_imports_no_package_module():
    """The catalog states claims; it reads no ring, bundle or search."""
    tree = ast.parse(Path(catalog.__file__).read_text(encoding="utf-8"))
    imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert [n.module for n in imports if n.level] == []
