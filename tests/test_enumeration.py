"""The enumeration searches against their frozen outcomes.

The expected tables were hand-checked against the intersection-theory
engine before being pinned here; the tests also re-derive each degree a
second way so a regression in either route shows up as a disagreement.
"""

import ast
import copy
import itertools
import pickle
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from delpezzo import enumeration, verify
from delpezzo.catalog import builtin_catalog, construction_models
from delpezzo.chow import Fe, P1xP1, canonical_class, integrate
from delpezzo.enumeration import (
    FUJITA_RANK1_DEGREES,
    MODEL_KINDS,
    FamilyCandidate,
    ModelValues,
    classify_tuple,
    enumerate_highdim,
    enumerate_p2_bundles,
    enumerate_point_blowups,
    enumerate_quadric_fibrations,
    enumerate_rho3,
    model_values,
    quadric_model_degree,
    scroll,
    surface_scroll,
)

# ---------------------------------------------------------------------------
# quadric fibrations over P1
# ---------------------------------------------------------------------------

SMALL_TABLE = [
    ((0, 0, 0, 0), 2, 2, "thm3.4-1"),
    ((0, 0, 0, 1), 1, 3, "thm3.4-2"),
    ((0, 0, 1, 1), 0, 4, "thm3.4-3"),
    ((0, 1, 1, 1), -1, 5, "thm3.4-4"),
    ((-1, 0, 0, 1), 2, 2, "thm3.4-5"),
    ((-1, 0, 0, 0), 3, 1, "thm3.4-6"),
]


def test_quadric_table_composition():
    table = enumerate_quadric_fibrations()
    assert len(table) == 38
    counts = {}
    for v in table:
        counts[v.verdict] = counts.get(v.verdict, 0) + 1
    assert counts == {
        "Small": 6,
        "Divisorial": 3,
        "RejectedRange": 4,
        "RejectedGeometric": 25,
    }


def test_quadric_small_families_exact():
    table = enumerate_quadric_fibrations()
    got = [
        (v.a, v.alpha, v.degree, v.family)
        for v in table
        if v.verdict == "Small"
    ]
    assert sorted(got, key=lambda t: t[3]) == SMALL_TABLE


def test_quadric_divisorial_rows():
    table = enumerate_quadric_fibrations()
    rows = [(v.a, v.inferred) for v in table if v.verdict == "Divisorial"]
    assert rows == [
        ((0, 0, 0, 2), True),
        ((0, 0, 0, 3), True),
        ((0, 0, 1, 2), False),
    ]
    named = next(v for v in table if v.a == (0, 0, 1, 2))
    assert "divisorial" in named.reason
    # the inferred rows carry no family id and say where the call comes from
    for v in table:
        if v.verdict == "Divisorial":
            assert v.family is None
            assert v.reason


def test_quadric_rejections_carry_reasons():
    table = enumerate_quadric_fibrations()
    for v in table:
        if v.verdict.startswith("Rejected"):
            assert v.family is None
            assert v.reason
    range_rows = [v.a for v in table if v.verdict == "RejectedRange"]
    assert range_rows == [
        (-1, -1, -1, -1),
        (-1, -1, -1, 0),
        (-1, -1, -1, 1),
        (-1, -1, 0, 0),
    ]


def test_quadric_degree_three_ways():
    """sum(a) + 2, 2 sum(a) + alpha, and the tower recomputation agree."""
    for a, alpha, degree, _ in SMALL_TABLE:
        assert degree == sum(a) + 2
        assert degree == 2 * sum(a) + alpha
        adjunction, model_degree = quadric_model_degree(a, alpha)
        assert str(adjunction) == "-2*z"
        assert model_degree == degree


@given(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4)
)
def test_classify_alpha_is_never_free(entries):
    v = classify_tuple(entries)
    assert v.alpha == 2 - sum(v.a)
    assert v.degree == sum(v.a) + 2
    if v.verdict == "Small":
        assert v.family is not None
    else:
        assert v.reason


def test_classify_rejects_a1_below_minus_one():
    # off the search path, whose loops start at a1 = -1
    v = classify_tuple((-2, 0, 1, 1))
    assert (v.verdict, v.reason) == (
        "RejectedRange",
        "h1 of the bundle is 1 > 0; vanishing forces a1 >= -1",
    )


def test_classify_verdict_counts_over_a_wide_box():
    # every non-decreasing split type with entries in -4..7; the 25
    # geometric rejections are the search's 18 and the 7 types with an
    # entry above 3 that its loops do not reach
    counts = {}
    for a in itertools.combinations_with_replacement(range(-4, 8), 4):
        v = classify_tuple(a)
        key = (v.verdict, v.inferred)
        counts[key] = counts.get(key, 0) + 1
    assert counts == {
        ("RejectedRange", False): 1331,
        ("RejectedGeometric", False): 25,
        ("Small", False): 6,
        ("Divisorial", False): 1,
        ("Divisorial", True): 2,
    }


def test_classify_reads_a_permuted_split_type_sorted():
    # O(a_1) + ... + O(a_4) does not depend on the order of its summands,
    # so every permutation of a searched split type gets its verdict
    for v in enumerate_quadric_fibrations():
        for permuted in itertools.permutations(v.a):
            assert classify_tuple(permuted) == v
    v = classify_tuple((1, 0, 0, 0))
    assert (v.a, v.verdict, v.family) == ((0, 0, 0, 1), "Small", "thm3.4-2")


def test_classify_needs_rank_four():
    with pytest.raises(ValueError, match="rank 4"):
        classify_tuple((0, 0, 0))


# ---------------------------------------------------------------------------
# P1-bundles over P2
# ---------------------------------------------------------------------------


def test_p2_bundle_candidates():
    res = enumerate_p2_bundles()
    got = [(c.data[0], c.degree, c.family) for c in res.candidates]
    assert got == [
        (2, 5, "thm3.5-1"),
        (3, 4, "thm3.5-2"),
        (4, 3, "thm3.5-3"),
        (5, 2, "thm3.5-4"),
    ]
    for c in res.candidates:
        assert c.dim == 3 and c.picard == 2 and c.spanned


def test_p2_bundle_degree_both_routes():
    """chi window route and the twisted-degree route give the same d."""
    res = enumerate_p2_bundles()
    for c in res.candidates:
        c2 = c.data[0]
        assert c.degree == 7 - c2  # degree of the c1 = 3h twist
        assert 9 - (c2 + 2) == 7 - c2  # normalized c2 shifts by 2
        assert f"chi of F(2) = {c.degree + 2} = d + 2" in c.notes[0]


def test_p2_bundle_c2_six_excluded_with_numbers():
    res = enumerate_p2_bundles()
    assert len(res.exclusions) == 1
    e = res.exclusions[0]
    assert e.kind == "p1-bundle-p2"
    assert e.data == (6,)
    assert dict(e.computed) == {"chi_F2": 3, "degree": 1}


# ---------------------------------------------------------------------------
# point blow-ups
# ---------------------------------------------------------------------------


def test_point_blowup_candidates():
    res = enumerate_point_blowups()
    got = [(c.degree, c.data[0], c.family) for c in res.candidates]
    assert got == [
        (1, "thm2.1-2", "thm3.6-1"),
        (2, "thm2.1-3", "thm3.6-2"),
        (3, "thm2.1-4", "thm3.6-3"),
        (4, "thm2.1-5", "thm3.6-4"),
    ]
    assert not res.candidates[0].spanned  # degree 1 has the base point
    assert all(c.spanned for c in res.candidates[1:])


def test_point_blowup_degree_five_excluded():
    res = enumerate_point_blowups()
    assert len(res.exclusions) == 1
    e = res.exclusions[0]
    assert e.data == (5,)
    assert dict(e.computed) == {"target_degree": 6, "matches": 0}


def test_point_blowups_read_no_catalog(monkeypatch):
    # the targets come from Fujita's list, so an empty catalog changes nothing
    cached = enumerate_point_blowups()
    monkeypatch.setattr(enumeration, "builtin_catalog", lambda: [])
    assert enumerate_point_blowups.__wrapped__() == cached


# the memoized functions a planted window or scroll reaches
PLANTED_CACHES = (
    enumerate_quadric_fibrations,
    enumerate_p2_bundles,
    enumerate_point_blowups,
    scroll,
    enumerate_highdim,
    model_values,
)


@pytest.fixture
def cleared_searches():
    for search in PLANTED_CACHES:
        search.cache_clear()
    yield
    for search in PLANTED_CACHES:
        search.cache_clear()


def test_one_degree_window_moves_the_three_picard2_searches(monkeypatch, cleared_searches):
    # Corollary 3.3's window is stated once: cut it to 1 <= d <= 4 and
    # every degree-5 outcome leaves all three searches together
    assert enumeration.DEGREE_WINDOW == (1, 5)
    monkeypatch.setattr(enumeration, "DEGREE_WINDOW", (1, 4))
    v = classify_tuple((0, 1, 1, 1))  # degree 5, Small in the real window
    assert (v.verdict, v.reason) == ("RejectedRange", "sum 3 outside the window [-1; 2]")
    # the quadric search returns what it finds, one Small verdict short of
    # Theorem 3.4's six; holding it to the count is `verify`'s work
    table = enumerate_quadric_fibrations()
    assert sum(1 for v in table if v.verdict == "Small") == 5
    p2 = enumerate_p2_bundles()
    assert [c.degree for c in p2.candidates] == [4, 3, 2]
    assert "passes the window 3..6 yet" in p2.exclusions[0].reason
    blowups = enumerate_point_blowups()
    assert [c.data for c in blowups.candidates] == [(f"thm2.1-{d}",) for d in range(2, 6)]
    assert blowups.exclusions == ()
    # the two degree-5 families the window drops are the only failures
    report = verify.verify_enumeration_matches_catalog()
    assert [(c.name, c.subject) for c in report.checks if c.status == "fail"] == [
        ("quadric-coverage", "thm3.4-4"),
        ("p2bundle-coverage", "thm3.5-1"),
    ]


def test_a_wider_window_reports_each_unlabelled_small_verdict_by_split_type(
    monkeypatch, cleared_searches
):
    # at 1 <= d <= 6 four degree-6 split types turn Small without a
    # family: each is a surplus named by its data, after the coverage checks
    monkeypatch.setattr(enumeration, "DEGREE_WINDOW", (1, 6))
    report = verify.verify_enumeration_matches_catalog()
    assert [(c.name, c.subject) for c in report.checks if c.status == "fail"] == [
        ("quadric-surplus", "(0, 0, 1, 3)"),
        ("quadric-surplus", "(0, 0, 2, 2)"),
        ("quadric-surplus", "(0, 1, 1, 2)"),
        ("quadric-surplus", "(1, 1, 1, 1)"),
        ("p2bundle-surplus", "thm3.5-0"),
    ]


def test_fujita_list_agrees_with_the_rank1_smooth_records():
    rank1 = sorted(
        r.degree
        for r in builtin_catalog()
        if r.id.startswith("thm2.1-") and r.picard == 1
    )
    assert tuple(rank1) == FUJITA_RANK1_DEGREES


# ---------------------------------------------------------------------------
# Picard number 3
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("surface,tag", [(P1xP1(), "p1p1"), (Fe(2), "f2")])
def test_rho3_candidates(surface, tag):
    # the search takes the tag of its surface, not the surface itself
    with pytest.raises(ValueError, match="P1 x P1 and F2"):
        enumerate_rho3(surface)
    res = enumerate_rho3(tag)
    got = [(c.data[1], c.degree, c.family) for c in res.candidates]
    assert got == [
        (c2, 8 - c2, f"thm4.1-{tag}-c{c2}") for c2 in (0, 2, 3, 4, 5, 6, 7)
    ]
    by_c2 = {c.data[1]: c for c in res.candidates}
    assert by_c2[0].notes[0].startswith("split case F = O(-K) + O")
    assert any("uniform split subcase" in n for n in by_c2[2].notes)
    mirrored = [any("mirrored" in n for n in c.notes) for c in res.candidates]
    assert all(mirrored) if tag == "f2" else not any(mirrored)


@pytest.mark.parametrize("tag", ["p1p1", "f2"])
def test_rho3_c2_one_excluded(tag):
    res = enumerate_rho3(tag)
    assert len(res.exclusions) == 1
    e = res.exclusions[0]
    assert e.data[1] == 1
    assert dict(e.computed)["c2_twisted"] == -1


def test_rho3_rejects_other_surfaces():
    with pytest.raises(ValueError, match="P1 x P1 and F2"):
        enumerate_rho3("p2")
    with pytest.raises(ValueError, match="P1 x P1 and F2"):
        enumerate_rho3("f1")


def anticanonical_degrees(surface):
    """-K_S . g on the engine for each curve generator g of the surface.

    The generators span the cone of curves of every supported surface
    (h on P2, the two rulings on P1 x P1, C0 and f on F_e), so -K_S is
    nef exactly when none of these is negative.
    """
    minus_k = -canonical_class(surface)
    return [integrate(minus_k * surface.gen(g)) for g in surface.gen_names]


def test_anticanonical_class_of_every_surface_is_nef():
    # -K . C0 = 2 - e on F_e, so F2 sits on the almost del Pezzo boundary:
    # -K is nef and big but not ample
    got = {name: anticanonical_degrees(S) for name, S in enumeration.SURFACES.items()}
    assert got == {"P2": [3], "P1xP1": [2, 2], "F2": [0, 2]}
    assert all(min(d) >= 0 for d in got.values())
    # a planted F3 in place of F2 has -K . C0 = -1: not nef
    planted = anticanonical_degrees(Fe(3))
    assert planted == [-1, 2] and min(planted) < 0


# ---------------------------------------------------------------------------
# dimension >= 4
# ---------------------------------------------------------------------------


def test_highdim_pn_bundle_count_and_degrees():
    res = enumerate_highdim(4)
    pn = [c for c in res.candidates if c.kind == "pn-bundle"]
    assert len(pn) == 24
    by_source = {c.data[3]: c for c in pn}
    assert by_source["thm2.1-6a"].degree == 6
    assert by_source["thm3.1-2c"].degree == 9
    assert by_source["thm4.1-p1p1-c7"].degree == 1
    assert not by_source["thm4.1-p1p1-c7"].spanned
    assert any("base point" in n for n in by_source["thm4.1-p1p1-c7"].notes)
    assert any("Euler" in n for n in by_source["thm2.1-6a"].notes)


def test_highdim_euler_note_is_dimension_four_only():
    res = enumerate_highdim(5)
    pn = {c.data[3]: c for c in res.candidates if c.kind == "pn-bundle"}
    assert not any("Euler" in n for n in pn["thm2.1-6a"].notes)


@pytest.mark.parametrize("n", range(4, 13))
def test_highdim_pn_bundles_are_their_towers(n):
    # each P^(n-2)-bundle candidate is P(F) over its surface, F of rank
    # n - 1 with c1 = -K and its c2: that tower has the candidate's
    # dimension, Picard number and degree, and -K = (n - 1) z on it
    pn = [c for c in enumerate_highdim(n).candidates if c.kind == "pn-bundle"]
    assert len(pn) == 24
    for c in pn:
        _, surface, c2, source = c.data
        A = surface_scroll(surface, n - 1, c2)
        assert (A.dim, A.nvars) == (n, c.picard), source
        assert integrate(A.zeta**n) == c.degree, source
        assert (canonical_class(A) + (n - 1) * A.zeta).is_zero(), source


@pytest.mark.parametrize(
    "n,family,degree", [(4, "thm5.8-3", 4), (5, "thm5.8-2", 5)]
)
def test_highdim_quadric_bundle_survivors(n, family, degree):
    res = enumerate_highdim(n)
    qb = [c for c in res.candidates if c.kind == "quadric-bundle-highdim"]
    assert [(c.family, c.degree) for c in qb] == [(family, degree)]


def test_the_55_degree_is_the_scrolls(monkeypatch, cleared_searches):
    # plant L = p + 2h in the Theorem 5.6 scroll: the (5;5) candidate
    # reads the planted degree, so the enumeration report fails it
    base, _ = enumeration.SCROLLS["p1xp2"]
    monkeypatch.setitem(
        enumeration.SCROLLS, "p1xp2", (base, lambda p, h: (p + 2 * h, h))
    )
    assert scroll("p1xp2") == ("-p - 3*z", 16)
    report = verify.verify_enumeration_matches_catalog()
    fails = [(c.name, c.subject, c.computed) for c in report.checks if c.status == "fail"]
    assert fails == [("highdim-quadric-degree", "thm5.8-2", "16")]


def test_highdim_dimension_six_has_no_quadric_bundle():
    res = enumerate_highdim(6)
    assert not any(
        c.kind == "quadric-bundle-highdim" for c in res.candidates
    )


def test_highdim_exclusions_carry_computed_numbers():
    res = enumerate_highdim(4)
    by_key = {(e.kind, e.data): e for e in res.exclusions}
    e46 = by_key[("quadric-bundle-highdim", (4, 6))]
    assert dict(e46.computed) == {"tower_degree": 6, "adjunction": "-3*z"}
    e45 = by_key[("quadric-bundle-highdim", (4, 5))]
    assert dict(e45.computed) == {"tower_degree": 5, "adjunction": "-3*z"}
    cone = by_key[("cone-exception", (4,))]
    assert dict(cone.computed) == {"resolution_degree": 5}


@pytest.mark.parametrize("n,chains", [(4, 88), (5, 89), (6, 85)])
def test_highdim_chain_counts(n, chains):
    res = enumerate_highdim(n)
    chain_cands = [c for c in res.candidates if c.kind == "point-blowup-chain"]
    assert len(chain_cands) == chains
    base = [c for c in res.candidates if c.kind != "point-blowup-chain"]
    # one chain candidate per blow-down step of every base candidate
    assert len(chain_cands) == sum(c.degree - 1 for c in base)
    for c in chain_cands:
        assert c.picard > 2
        assert c.degree >= 1


def test_highdim_cone_exception_every_dimension():
    for n in (4, 5, 6, 7):
        res = enumerate_highdim(n)
        cones = [e for e in res.exclusions if e.kind == "cone-exception"]
        assert len(cones) == 1
        if n > 4:
            assert cones[0].computed == ()


def test_highdim_rejects_low_dimension():
    with pytest.raises(ValueError, match="n = 4"):
        enumerate_highdim(3)


@pytest.mark.parametrize("n", [5.0, True])
def test_highdim_rejects_non_int_dimension(n):
    # 5.0 would give candidates of dim 5.0 and the note "O^2.0", True would
    # act as 1; each is refused also after the int 5 has been searched
    enumerate_highdim(5)
    with pytest.raises(ValueError, match="dimension must be an int"):
        enumerate_highdim(n)


@pytest.mark.parametrize(
    "fields",
    [
        dict(dim=4.5, degree=2.5, picard=True),
        dict(dim=4.0, degree=2, picard=1),
        dict(dim=4, degree=True, picard=1),
        dict(dim=4, degree=2, picard=1.0),
    ],
)
def test_candidate_rejects_non_int_numbers(fields):
    # as a catalog record does: 4.5 would pass the range checks, and 4.0
    # and True equal ints, so each would print and compare as a number
    with pytest.raises(ValueError, match="must be an int"):
        FamilyCandidate(kind="x", data=(), **fields)
    assert FamilyCandidate(kind="x", dim=4, degree=2, picard=1, data=()).spanned


def test_candidate_derives_spanned_last():
    # `spanned` is degree > 1, never an argument, and the last field, so
    # the enumerate JSON keeps its "spanned" key last
    with pytest.raises(TypeError):
        FamilyCandidate(kind="x", dim=4, degree=2, picard=1, data=(), spanned=False)
    c = FamilyCandidate(kind="x", dim=4, degree=1, picard=1, data=())
    assert list(c._asdict())[-1] == "spanned" and c.spanned is False
    assert c._replace(degree=2).spanned is True
    with pytest.raises(TypeError):
        c._replace(spanned=True)
    with pytest.raises(ValueError, match="must be an int"):
        c._replace(dim=4.0)
    assert copy.copy(c) == c and pickle.loads(pickle.dumps(c)) == c


# ---------------------------------------------------------------------------
# memoized searches
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "search",
    [
        enumerate_quadric_fibrations,
        enumerate_p2_bundles,
        enumerate_point_blowups,
        lambda: enumerate_rho3("p1p1"),
        lambda: enumerate_rho3("f2"),
        lambda: enumerate_highdim(4),
        lambda: enumerate_highdim(5),
        lambda: model_values("quadric", ((0, 0, 0, 1), 1)),
        pytest.param(lambda: model_values("towerP13", ()), id="model-towerP13"),
        lambda: model_values("rank3", ("P2", 4)),
        lambda: model_values("blowup", (8,)),
        pytest.param(lambda: scroll("p2"), id="scroll-p2"),
        pytest.param(lambda: scroll("f1"), id="scroll-f1"),
        pytest.param(lambda: scroll("p1xp2"), id="scroll-p1xp2"),
    ],
)
def test_searches_return_one_cached_value(search):
    # equal fresh arguments (a new tuple each call) find the same entry
    assert search() is search()


def test_tower_p13_is_p1_cubed_with_half_anticanonical_polarization():
    # H^3 = 6 and K + 2H = 0 on P(O + O) over P1 x P1
    assert model_values("towerP13", ()) == ModelValues(6, "0")


@pytest.mark.parametrize("c2", [2.5, True, 1.0])
def test_surface_scroll_rejects_non_int_c2(c2):
    # 2.5 would end in a TypeError from scalar multiplication, True and 1.0
    # would act as 1
    with pytest.raises(ValueError, match="c2 must be an int"):
        surface_scroll("P2", 2, c2)


def test_cached_quadric_table_is_a_tuple():
    assert isinstance(enumerate_quadric_fibrations(), tuple)


# ---------------------------------------------------------------------------
# the construction-model table
# ---------------------------------------------------------------------------


def test_model_table_has_exactly_the_catalog_kinds():
    used = {
        kind for r in builtin_catalog() for kind, _ in construction_models(r.id)
    }
    assert set(MODEL_KINDS) == used


def test_enumeration_imports_only_these_catalog_names():
    """What the searches read of the catalog: the quadric labels, the
    Picard-3 surfaces, and the built-in records with their models."""
    tree = ast.parse(Path(enumeration.__file__).read_text(encoding="utf-8"))
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module == "catalog"
        for alias in node.names
    }
    assert names == {
        "QUADRIC_FAMILIES",
        "RHO3_SURFACES",
        "builtin_catalog",
        "construction_models",
    }


def test_unknown_model_kind_is_refused():
    with pytest.raises(ValueError, match="unknown model kind 'cone'"):
        model_values("cone", ())
