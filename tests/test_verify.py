"""The verification layer: green on the shipped catalog, and loud on
every seeded mutation.

The sweep below plants single-field errors (degree shifts, dropped or
rewired flop partners, wrong smoothing targets) and requires at least
one report to flag each; a sweep case that passes silently means the
checks have a blind spot.
"""

import ast
import dataclasses
import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from delpezzo import cli, enumeration, verify
from delpezzo.catalog import (
    CONSTRUCTION_CLAIMS,
    builtin_catalog,
    construction_models,
    lookup,
)
from delpezzo.render import to_json
from delpezzo.verify import (
    REPORT_NAMES,
    CheckResult,
    verify_all,
    verify_constructions,
    verify_enumeration_matches_catalog,
    verify_families,
    verify_family,
    verify_flops,
    verify_smoothings,
)

from checkout import child_env

RECORDS = builtin_catalog()
MODELED_IDS = [r.id for r in RECORDS if construction_models(r.id)]
PARTNERED_IDS = [r.id for r in RECORDS if r.flop_partner is not None]
SMOOTHED_IDS = [r.id for r in RECORDS if r.smoothing is not None]


def _mutate(records, rid, **changes):
    return [
        dataclasses.replace(r, **changes) if r.id == rid else r for r in records
    ]


def _relation_reports(records):
    return [
        verify_families(records),
        verify_flops(records),
        verify_smoothings(records),
        verify_enumeration_matches_catalog(records),
    ]


# ---------------------------------------------------------------------------
# the shipped catalog is green
# ---------------------------------------------------------------------------


def test_all_reports_pass_on_builtin_catalog():
    reports = verify_all()
    assert [rep.title for rep in reports] == list(REPORT_NAMES)
    for rep in reports:
        assert rep.ok, [c for c in rep.checks if c.status == "fail"]
        assert rep.passed > 0


# (pass, fail, skipped) of every report on the shipped catalog
PINNED_COUNTS = {
    "families": (127, 0, 6),
    "flops": (48, 0, 0),
    "smoothings": (70, 0, 0),
    "constructions": (6, 0, 0),
    "enumeration": (66, 0, 0),
}


def _counts(reports):
    return {rep.title: (rep.passed, rep.failed, rep.skipped) for rep in reports}


def test_report_counts_are_pinned():
    assert _counts(verify_all()) == PINNED_COUNTS


def test_only_documented_skips():
    rep = verify_families()
    skipped = [c.subject for c in rep.checks if c.status == "skipped"]
    assert skipped == [
        "thm3.1-1a",
        "thm3.1-1b",
        "thm3.1-1c",
        "thm3.1-1d",
        "prop5.1-5",
        "thm5.8-3",
    ]
    for c in rep.checks:
        if c.status == "skipped":
            assert c.reason  # a skip always says why


def test_single_family_report():
    rep = verify_family(lookup("thm3.4-4"))
    names = {c.name for c in rep.checks}
    assert "degree-model:quadric" in names
    assert "index-divisibility:quadric" in names
    assert "h0-sections:quadric" in names
    assert "degree-window" in names
    assert rep.ok


def test_h0_route_flags_its_assumption():
    rep = verify_family(lookup("thm3.5-2"))
    h0 = next(c for c in rep.checks if c.name == "h0-sections:rank2")
    assert h0.status == "pass"
    assert "vanishing" in h0.reason


def test_construction_replays():
    rep = verify_constructions()
    assert rep.ok
    got = {
        (c.subject, c.name): c.computed for c in rep.checks
    }
    assert got[("(5;5) scroll over P1xP2", "construction-adjunction")] == "-p - h - 3*z"
    assert got[("(5;5) scroll over P1xP2", "construction-degree")] == "5"
    assert got[("(4;6) scroll over P2", "construction-adjunction")] == "-3*z"
    assert got[("(4;6) scroll over P2", "construction-degree")] == "6"
    assert got[("(4;5) scroll over F1", "construction-degree")] == "5"
    disc = next(c for c in rep.checks if "(4;6)" in c.subject)
    assert "O(2) + O^3" in disc.reason  # the replaced summand is on record


def test_every_construction_claim_is_keyed_by_its_builder():
    assert set(CONSTRUCTION_CLAIMS) == set(enumeration.SCROLLS)


def test_verify_imports_only_catalog_and_enumeration():
    """`verify` compares; every derivation it compares comes from these two."""
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    package = {
        node.module or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    assert package == {"catalog", "enumeration"}


def test_report_json_round_trip():
    # the one JSON writer writes a report as its title and checks; the
    # counts are read back from the checks
    rep = verify_flops()
    payload = json.loads(to_json(rep))
    assert list(payload) == ["title", "checks"]
    assert payload["title"] == "flops"
    assert [CheckResult(**c) for c in payload["checks"]] == list(rep.checks)
    statuses = [c["status"] for c in payload["checks"]]
    assert (statuses.count("pass"), statuses.count("fail")) == (rep.passed, 0)
    assert set(statuses) <= {"pass", "fail", "skipped"}


# sha256 of the concatenated `render.to_json(report)` of `verify_all()` on
# the built-in catalog, the first digest `scripts/verify_digest.py` prints;
# a declared change to any check regenerates it, as it does PINNED_COUNTS
PINNED_DIGEST = "58c08735878ebb3490e2695c118e315153ebfa1354eb095175f8f4bd0cb046bd"


def test_builtin_verify_output_is_pinned():
    digest = hashlib.sha256()
    for report in verify_all():
        digest.update(to_json(report).encode())
    assert digest.hexdigest() == PINNED_DIGEST


def test_report_json_is_pinned():
    check = CheckResult("n", "s", "1", "2", "fail", "why", "cit")
    assert to_json(verify.Report("t", (check,))) == (
        "{\n"
        '  "title": "t",\n'
        '  "checks": [\n'
        "    {\n"
        '      "name": "n",\n'
        '      "subject": "s",\n'
        '      "expected": "1",\n'
        '      "computed": "2",\n'
        '      "status": "fail",\n'
        '      "reason": "why",\n'
        '      "citation": "cit"\n'
        "    }\n"
        "  ]\n"
        "}"
    )


def test_check_result_is_an_immutable_row():
    check = CheckResult("n", "s", "1", "1", "pass")
    with pytest.raises(AttributeError):
        check.status = "fail"
    assert CheckResult._fields == (
        "name",
        "subject",
        "expected",
        "computed",
        "status",
        "reason",
        "citation",
    )
    assert (check.reason, check.citation) == ("", "")
    assert check == CheckResult(
        name="n", subject="s", expected="1", computed="1", status="pass"
    )
    assert CheckResult("n", "s", "1", "2", "fail", "r", "c") == CheckResult(
        name="n",
        subject="s",
        expected="1",
        computed="2",
        status="fail",
        reason="r",
        citation="c",
    )


def test_check_maps_each_argument_to_its_field():
    # `_check` takes the citation before the reason; the row stores the
    # reason first
    assert verify._check("n", "s", 1, "1", citation="c", reason="r") == (
        CheckResult("n", "s", "1", "1", "pass", "r", "c")
    )
    assert verify._check("n", "s", 1, "2", "c", "r") == (
        CheckResult("n", "s", "1", "2", "fail", "r", "c")
    )
    assert verify._skip("n", "s", "r", "c") == (
        CheckResult("n", "s", "", "", "skipped", "r", "c")
    )


# ---------------------------------------------------------------------------
# seeded errors are detected
# ---------------------------------------------------------------------------


def test_unresolvable_partner_is_flagged():
    mutated = _mutate(RECORDS, "thm3.4-2", flop_partner="thm9.9-9")
    rep = verify_flops(mutated)
    assert not rep.ok
    assert any(c.name == "flop-referential-integrity" for c in rep.checks
               if c.status == "fail")
    # the record's only check is the failing one; no flop row follows it
    assert [c for c in rep.checks if c.subject == "thm3.4-2"] == [
        CheckResult(
            "flop-referential-integrity",
            "thm3.4-2",
            "resolvable partner id",
            "unknown id thm9.9-9",
            "fail",
            "",
            lookup("thm3.4-2").citation,
        )
    ]


def test_missing_partner_on_small_family_is_flagged():
    mutated = _mutate(RECORDS, "thm3.4-3", flop_partner=None)
    rep = verify_flops(mutated)
    fails = [c for c in rep.checks if c.status == "fail"]
    # the record itself lacks a partner and its partner loses symmetry
    assert any(c.name == "flop-partner-present" for c in fails)


def test_partner_without_partner_fails_symmetry_with_none():
    # only the family rows skip an unsupported (None) value; a partner
    # whose own partner is None must still fail its symmetry check
    mutated = _mutate(RECORDS, "thm3.4-4", flop_partner=None)
    (symmetry,) = (
        c for c in verify_flops(mutated).checks
        if c.subject == "thm3.5-1" and c.name == "flop-symmetry"
    )
    assert (symmetry.status, symmetry.expected, symmetry.computed) == (
        "fail", "thm3.5-1", "None"
    )


def test_model_without_degree_fails_instead_of_skipping(monkeypatch):
    # index and h0 are optional model values; the degree is not, so a
    # model that gives none fails its degree check rather than dropping it
    unsupported = enumeration.ModelValues(None)
    monkeypatch.setattr(verify, "model_values", lambda kind, data: unsupported)
    rep = verify_family(lookup("thm3.4-4"))
    degree = [c for c in rep.checks if c.name.startswith("degree-model:")]
    assert degree and all((c.status, c.computed) == ("fail", "None") for c in degree)
    assert not any(c.name.startswith(("index-", "h0-")) for c in rep.checks)


def test_unresolvable_smoothing_is_flagged():
    mutated = _mutate(RECORDS, "thm3.5-1", smoothing="thm9.9-9")
    rep = verify_smoothings(mutated)
    assert any(
        c.name == "smoothing-referential-integrity" and c.status == "fail"
        for c in rep.checks
    )
    # the record's only check is the failing one; no smoothing row follows it
    assert [c for c in rep.checks if c.subject == "thm3.5-1"] == [
        CheckResult(
            "smoothing-referential-integrity",
            "thm3.5-1",
            "resolvable smoothing id",
            "unknown id thm9.9-9",
            "fail",
            "",
            "Theorem 3.2",
        )
    ]


@pytest.mark.parametrize("rid", MODELED_IDS)
@pytest.mark.parametrize("delta", [1, -1])
def test_degree_mutations_detected(rid, delta):
    target = next(r for r in RECORDS if r.id == rid)
    if target.degree + delta < 1:
        # the schema itself refuses the mutated record
        with pytest.raises(ValueError, match="degree"):
            dataclasses.replace(target, degree=target.degree + delta)
        return
    mutated = _mutate(RECORDS, rid, degree=target.degree + delta)
    assert any(not rep.ok for rep in _relation_reports(mutated)), (
        f"degree {target.degree} -> {target.degree + delta} on {rid} "
        "went unnoticed"
    )


@pytest.mark.parametrize("rid", PARTNERED_IDS)
def test_dropped_partners_detected(rid):
    mutated = _mutate(RECORDS, rid, flop_partner=None)
    assert any(not rep.ok for rep in _relation_reports(mutated))


@pytest.mark.parametrize("rid", SMOOTHED_IDS)
def test_rewired_smoothings_detected(rid):
    target = next(r for r in RECORDS if r.id == rid)
    wrong = "thm2.1-8" if target.smoothing != "thm2.1-8" else "thm2.1-1"
    mutated = _mutate(RECORDS, rid, smoothing=wrong)
    assert any(not rep.ok for rep in _relation_reports(mutated))


def test_smoothing_target_class_reads_the_record_not_its_id():
    # a Theorem 2.1 threefold is a Fano contraction in dimension 3; with
    # another contraction planted on one, each record smoothing to it fails
    mutated = _mutate(RECORDS, "thm2.1-3", contraction="P1Bundle")
    failed = [
        (c.name, c.subject, c.computed)
        for c in verify_smoothings(mutated).checks
        if c.status == "fail"
    ]
    assert failed == [
        ("smoothing-target-class", rid, "thm2.1-3")
        for rid in ("thm3.4-2", "thm3.5-3", "thm3.6-3")
    ]


def test_memoized_models_do_not_leak_a_planted_error():
    # the blow-up model of thm2.1-7 reads thm2.1-8 from the catalog under
    # test; memoized model values must neither hide nor keep the error
    assert _counts(verify_all()) == PINNED_COUNTS
    target = next(r for r in RECORDS if r.id == "thm2.1-8")
    mutated = _mutate(RECORDS, "thm2.1-8", degree=target.degree + 1)
    blowup = [
        c for c in verify_families(mutated).checks
        if c.subject == "thm2.1-7" and c.name == "degree-model:blowup"
    ]
    assert [c.status for c in blowup] == ["fail"]
    assert _counts(verify_all()) == PINNED_COUNTS


def test_planted_degree_error_counts_are_pinned():
    # V(2;3) = thm2.1-3 at degree 4: its own model, both blow-ups of it and
    # the three families that smooth to it fail, and nothing else does
    mutated = _mutate(RECORDS, "thm2.1-3", degree=4)
    reports = verify_all(mutated)
    assert _counts(reports) == {
        **PINNED_COUNTS,
        "families": (124, 3, 6),
        "smoothings": (67, 3, 0),
    }
    fails = [(c.name, c.subject) for rep in reports for c in rep.checks
             if c.status == "fail"]
    assert fails == [
        ("degree-model:ci", "thm2.1-3"),
        ("degree-model:blowup", "thm3.1-3b"),
        ("degree-model:blowup", "thm3.6-2"),
        ("smoothing-degree", "thm3.4-2"),
        ("smoothing-degree", "thm3.5-3"),
        ("smoothing-degree", "thm3.6-3"),
    ]


def test_verify_prints_the_same_bytes_twice_in_one_process(capsys):
    outputs = []
    for _ in range(2):
        assert cli.run(["verify"]) == 0
        outputs.append(capsys.readouterr().out)
    cold = subprocess.run(
        [sys.executable, "-m", "delpezzo", "verify"],
        capture_output=True,
        env=child_env(),
        timeout=120,
    )
    assert outputs[0] == outputs[1] == cold.stdout.decode()


def test_sweep_is_large_enough():
    cases = 2 * len(MODELED_IDS) + len(PARTNERED_IDS) + len(SMOOTHED_IDS)
    assert len(MODELED_IDS) == 49
    assert cases >= 60


def test_unresolvable_blowup_target_is_flagged():
    # thm3.1-3b and thm3.6-2 both blow up V(2;3) = thm2.1-3
    without = [r for r in RECORDS if r.id != "thm2.1-3"]
    fails = [c for c in verify_families(without).checks if c.status == "fail"]
    assert fails == [
        CheckResult(
            "blowup-referential-integrity",
            rid,
            "resolvable target id",
            "unknown id thm2.1-3",
            "fail",
            "",
            lookup(rid).citation,
        )
        for rid in ("thm3.1-3b", "thm3.6-2")
    ]
    assert verify_family(lookup("thm3.1-3b"), without).checks == (fails[0],)


# (check-name prefix, a record of the group, an id no search emits, citation)
ENUMERATION_GROUPS = [
    ("quadric", "thm3.4-2", "thm3.4-9", "Theorem 3.4"),
    ("p2bundle", "thm3.5-2", "thm3.5-9", "Theorem 3.5"),
    ("blowup", "thm3.6-2", "thm3.6-9", "Theorem 3.6"),
    ("rho3-p1p1", "thm4.1-p1p1-c3", "thm4.1-p1p1-c9", "Theorem 4.1(2)"),
    ("rho3-f2", "thm4.1-f2-c3", "thm4.1-f2-c9", "Theorem 4.1(2)"),
    ("highdim-quadric", "thm5.8-2", "thm5.8-2b", "Theorem 5.8"),
]


def _enumeration_fails(records):
    rep = verify_enumeration_matches_catalog(records)
    return [c for c in rep.checks if c.status == "fail"]


GROUP_IDS = [g[0] for g in ENUMERATION_GROUPS]


@pytest.mark.parametrize(
    "name, rid, new_id, citation", ENUMERATION_GROUPS, ids=GROUP_IDS
)
def test_dropped_record_is_a_surplus_candidate(name, rid, new_id, citation):
    without = [r for r in RECORDS if r.id != rid]
    assert _enumeration_fails(without) == [
        CheckResult(
            f"{name}-surplus",
            rid,
            "a catalog record",
            "candidate without record",
            "fail",
            "",
            citation,
        )
    ]


@pytest.mark.parametrize(
    "name, rid, new_id, citation", ENUMERATION_GROUPS, ids=GROUP_IDS
)
def test_record_without_candidate_is_uncovered(name, rid, new_id, citation):
    extra = RECORDS + [dataclasses.replace(lookup(rid), id=new_id)]
    assert _enumeration_fails(extra) == [
        CheckResult(
            f"{name}-coverage",
            new_id,
            "an enumeration candidate",
            "missing",
            "fail",
            "",
            citation,
        )
    ]


@pytest.mark.parametrize("rid", ["thm5.8-2", "thm5.8-3"])
def test_dropped_highdim_quadric_record_is_a_surplus_candidate(rid):
    without = [r for r in RECORDS if r.id != rid]
    assert _enumeration_fails(without) == [
        CheckResult(
            "highdim-quadric-surplus",
            rid,
            "a catalog record",
            "candidate without record",
            "fail",
            "",
            "Theorem 5.8",
        )
    ]
    assert any(
        c.status == "fail" for rep in verify_all(without) for c in rep.checks
    )


def test_degree_outside_the_window_fails():
    record = dataclasses.replace(lookup("thm3.4-4"), degree=6)
    window = [c for c in verify_family(record).checks if c.name == "degree-window"]
    assert window == [
        CheckResult(
            "degree-window",
            "thm3.4-4",
            "1 <= degree <= 5",
            "degree 6",
            "fail",
            "",
            "Corollary 3.3",
        )
    ]


def test_smoothing_outside_the_window_fails():
    mutated = _mutate(RECORDS, "thm3.5-1", smoothing="thm2.1-6a")
    window = [
        c for c in verify_smoothings(mutated).checks
        if c.name == "smoothing-window" and c.subject == "thm3.5-1"
    ]
    assert window == [
        CheckResult(
            "smoothing-window",
            "thm3.5-1",
            "target degree in [1; 5]",
            "degree 6",
            "fail",
            "",
            "Corollary 3.3",
        )
    ]


def test_duplicate_candidate_is_flagged(monkeypatch):
    table = verify.enumerate_quadric_fibrations()
    twice = next(v for v in table if v.family == "thm3.4-3")
    monkeypatch.setattr(
        verify, "enumerate_quadric_fibrations", lambda: table + (twice,)
    )
    assert _enumeration_fails(RECORDS) == [
        CheckResult(
            "quadric-unique",
            "thm3.4-3",
            "one candidate per family",
            "duplicate",
            "fail",
            "",
            "Theorem 3.4",
        )
    ]


def test_quadric_adjunction_identity_reads_the_record_model(monkeypatch):
    # the search sets alpha = 2 - sum(a) on every verdict, so the identity
    # can only fail on the (a, alpha) the record's model claims
    def models(rid):
        if rid == "thm3.4-2":
            return (("quadric", ((0, 0, 0, 1), 2)),)
        return construction_models(rid)

    monkeypatch.setattr(verify, "construction_models", models)
    assert _enumeration_fails(RECORDS) == [
        CheckResult(
            "quadric-adjunction-identity",
            "thm3.4-2",
            "0",
            "1",
            "fail",
            "sum(a) - 2 + alpha = 0 ties alpha to the split type",
            "Theorem 3.4",
        )
    ]


@pytest.mark.parametrize("planted", [0, 2])
def test_record_without_one_quadric_model_fails_one_check(monkeypatch, planted):
    # the identity reads the record's one quadric model; none or two fail
    # that row, and every other row of the pair still runs
    model = ("quadric", ((0, 0, 0, 1), 1))

    def models(rid):
        return (model,) * planted if rid == "thm3.4-2" else construction_models(rid)

    monkeypatch.setattr(verify, "construction_models", models)
    fails = [c for rep in verify_all() for c in rep.checks if c.status == "fail"]
    assert fails == [
        CheckResult(
            "quadric-adjunction-identity",
            "thm3.4-2",
            "one quadric model",
            f"{planted} quadric models",
            "fail",
            "sum(a) - 2 + alpha = 0 ties alpha to the split type",
            "Theorem 3.4",
        )
    ]
    rows = [
        c.name
        for c in verify_enumeration_matches_catalog().checks
        if c.subject == "thm3.4-2"
    ]
    assert rows == ["quadric-degree", "quadric-adjunction-identity", "quadric-model-degree"]


@pytest.mark.parametrize("family", ["thm3.4-1", "thm3.4-5"])
def test_missing_quadric_label_fails_without_raising(monkeypatch, family):
    # the search emits the Small verdict without a family id, so the
    # record goes uncovered and the verdict is a surplus, named by its
    # split type
    split = {"thm3.4-1": "(0, 0, 0, 0)", "thm3.4-5": "(-1, 0, 0, 1)"}[family]
    labels = {a: f for a, f in enumeration.QUADRIC_FAMILIES.items() if f != family}
    monkeypatch.setattr(enumeration, "QUADRIC_FAMILIES", labels)
    table = enumeration.enumerate_quadric_fibrations.__wrapped__()
    monkeypatch.setattr(verify, "enumerate_quadric_fibrations", lambda: table)
    fails = [c for rep in verify_all() for c in rep.checks if c.status == "fail"]
    assert [(c.name, c.subject) for c in fails] == [
        ("quadric-coverage", family),
        ("quadric-surplus", split),
    ]


def test_raising_search_fails_one_check(monkeypatch):
    def search():
        raise ArithmeticError("planted")

    monkeypatch.setattr(verify, "enumerate_p2_bundles", search)
    assert _enumeration_fails(RECORDS) == [
        CheckResult(
            "p2bundle-search",
            "p2bundle",
            "a search",
            "ArithmeticError: planted",
            "fail",
            "",
            "Theorem 3.5",
        )
    ]


# ---------------------------------------------------------------------------
# planted errors in the construction-model data
# ---------------------------------------------------------------------------


def _int_edits(data, delta):
    """Copies of nested tuple `data` with one int entry moved by delta."""
    if type(data) is int:
        return [data + delta]
    if not isinstance(data, tuple):
        return []
    return [
        data[:i] + (edited,) + data[i + 1:]
        for i, entry in enumerate(data)
        for edited in _int_edits(entry, delta)
    ]


def _model_edits():
    """(record id, model index, kind, edited data) for every +-1 edit of
    an int in the data of every construction model."""
    return [
        (r.id, i, kind, edited)
        for r in RECORDS
        for i, (kind, data) in enumerate(construction_models(r.id))
        for delta in (1, -1)
        for edited in _int_edits(data, delta)
    ]


def _underivable(kind, data):
    try:
        enumeration.model_values(kind, data)
    except (ValueError, ArithmeticError):
        return True
    return False


def test_every_underivable_model_edit_fails_a_check(monkeypatch):
    edits = _model_edits()
    assert len(edits) == 182
    underivable = [e for e in edits if _underivable(e[2], e[3])]
    assert len(underivable) == 39
    assert {kind for _, _, kind, _ in underivable} == {"weighted"}
    errors = []
    for rid, i, kind, edited in underivable:
        def models(x, rid=rid, i=i, model=(kind, edited)):
            found = construction_models(x)
            return found[:i] + (model,) + found[i + 1:] if x == rid else found

        monkeypatch.setattr(verify, "construction_models", models)
        fails = [c for rep in verify_all() for c in rep.checks if c.status == "fail"]
        assert [(c.name, c.subject) for c in fails] == [
            ("model-derivation:weighted", rid)
        ]
        assert fails[0].expected == "a derivable model"
        errors.append(fails[0].computed.split(":")[0])
    # a weight edited to 0 is refused; every other edit leaves a degree
    # the product of the weights does not divide
    assert sorted(errors) == ["ArithmeticError"] * 23 + ["ValueError"] * 16


def test_model_data_of_the_wrong_length_fails_one_check(monkeypatch):
    # a grass model derives from (k, n): one entry is refused before the
    # derivation runs, so it fails its check instead of raising TypeError
    def models(rid):
        return (("grass", (2,)),) if rid == "thm2.1-5" else construction_models(rid)

    monkeypatch.setattr(verify, "construction_models", models)
    fails = [c for rep in verify_all() for c in rep.checks if c.status == "fail"]
    assert [(c.name, c.subject) for c in fails] == [("model-derivation:grass", "thm2.1-5")]
    assert fails[0].expected == "a derivable model"
    assert fails[0].computed == "ValueError: a 'grass' model takes 2 data entries, got 1"


@pytest.mark.parametrize(
    "kind, data, wanted",
    [("grass", (2, 5, 1), 2), ("towerP13", (1,), 0), ("quadric", (), 2), ("blowup", (), 1)],
)
def test_model_values_refuses_data_of_the_wrong_length(kind, data, wanted):
    message = f"a {kind!r} model takes {wanted} data entries, got {len(data)}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        enumeration.model_values(kind, data)


# ---------------------------------------------------------------------------
# planted errors in the engine's own data
# ---------------------------------------------------------------------------

# runs in a child interpreter: for each edit on stdin, a fresh package
# whose `chow._BASE_TOWERS` row has it, and one line out: "fail <failed
# checks>" or "raise <exception type>".  An edit is "<kind> <summand>
# <coefficient> <delta>", which moves that coefficient of that summand's
# twist by delta, or "<kind> rank <delta>", which appends delta trivial
# summands or drops -delta from the end.  An edit with no outcome within
# 20 s (a rewriting loop) ends in "raise TimeoutError", so the next edit
# still runs
_BASES_SWEEP = """
import importlib, signal, sys

def hung(signum, frame):
    raise TimeoutError("no outcome within 20 s")

signal.signal(signal.SIGALRM, hung)
for line in sys.stdin:
    signal.alarm(20)
    kind, *where, delta = line.split()
    delta = int(delta)
    for name in [m for m in sys.modules if m.split(".")[0] == "delpezzo"]:
        del sys.modules[name]
    chow = importlib.import_module("delpezzo.chow")
    over, twists, names = chow._BASE_TOWERS[kind]
    twists = [list(t) for t in twists]
    if where == ["rank"]:
        twists = twists[: len(twists) + delta] + [[0]] * delta
    else:
        summand, coefficient = map(int, where)
        twists[summand][coefficient] += delta
    chow._BASE_TOWERS[kind] = (over, tuple(map(tuple, twists)), names)
    try:
        reports = importlib.import_module("delpezzo.verify").verify_all()
        print("fail", sum(rep.failed for rep in reports), flush=True)
    except Exception as exc:
        print("raise", type(exc).__name__, flush=True)
    signal.alarm(0)
"""


def _bases_edits(deltas):
    """(kind, "rank", delta) and (kind, summand, coefficient, delta) for
    the rank and every twist coefficient of every `chow._BASE_TOWERS` row."""
    from delpezzo.chow import _BASE_TOWERS

    return [
        edit
        for kind, (_, twists, _) in _BASE_TOWERS.items()
        for delta in deltas
        for edit in [(kind, "rank", delta)] + [
            (kind, i, k, delta) for i, t in enumerate(twists) for k in range(len(t))
        ]
    ]


def test_every_planted_base_data_error_fails_or_raises():
    # the unedited rows (delta 0) run first, through the same path, and
    # must pass: a fault of the harness itself cannot count as "raised"
    control = _bases_edits((0,))
    edits = _bases_edits((1, -1))
    assert len(edits) == 36
    lines = "".join(" ".join(map(str, e)) + "\n" for e in control + edits)
    proc = subprocess.run(
        [sys.executable, "-c", _BASES_SWEEP],
        input=lines.encode(),
        capture_output=True,
        env=child_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    outcomes = proc.stdout.decode().splitlines()
    assert outcomes[: len(control)] == ["fail 0"] * len(control)
    caught = dict(zip(edits, outcomes[len(control):], strict=True))
    # a tower of rank 1, and a nonzero twist over the point, are refused
    # when the base is first built; every other edit reaches the reports,
    # and at least one check fails instead of a report raising
    refused = {e: out for e, out in caught.items() if out.startswith("raise ")}
    assert refused == {
        **{(kind, "rank", -1): "raise ValueError" for kind in ("P1", "P1xP1", "Fe")},
        **{
            (kind, i, 0, delta): "raise ValueError"
            for kind, rank in (("P1", 2), ("P2", 3))
            for i in range(rank)
            for delta in (1, -1)
        },
    }
    reported = {e: out for e, out in caught.items() if e not in refused}
    assert len(reported) == 23
    assert {
        e: out
        for e, out in reported.items()
        if not (out.startswith("fail ") and int(out.split()[1]) >= 1)
    } == {}
