"""Acceptance gate: one test per published claim the package must
reproduce, each asserting exact values (no tolerances anywhere).

Run with -v to get one pass/fail line per criterion.
"""

import dataclasses
import json
import random
import subprocess
import sys
from pathlib import Path

from delpezzo.bundles import (
    blowup_chain,
    blowup_degree,
    chi_rank2,
    h0_split,
    twist_rank2,
)
from delpezzo.catalog import builtin_catalog, construction_models, lookup
from delpezzo.chow import P2, chern_tower, integrate
from delpezzo.enumeration import (
    enumerate_p2_bundles,
    enumerate_quadric_fibrations,
    enumerate_rho3,
)
from delpezzo.verify import (
    verify_constructions,
    verify_enumeration_matches_catalog,
    verify_families,
    verify_flops,
    verify_smoothings,
)

from checkout import child_env
from substitution_oracle import oracle_integrate
from test_chow_oracle import build_zoo, random_monomial

GOLDEN = Path(__file__).parent / "golden"


def _ok(n, slug):
    print(f"ACCEPTANCE {n}: PASS - {slug}")


def test_criterion_1_quadric_fibration_families():
    table = enumerate_quadric_fibrations()
    smalls = sorted(
        (
            (v.a, v.alpha, v.degree, v.family)
            for v in table
            if v.verdict == "Small"
        ),
        key=lambda t: t[3],
    )
    assert smalls == [
        ((0, 0, 0, 0), 2, 2, "thm3.4-1"),
        ((0, 0, 0, 1), 1, 3, "thm3.4-2"),
        ((0, 0, 1, 1), 0, 4, "thm3.4-3"),
        ((0, 1, 1, 1), -1, 5, "thm3.4-4"),
        ((-1, 0, 0, 1), 2, 2, "thm3.4-5"),
        ((-1, 0, 0, 0), 3, 1, "thm3.4-6"),
    ]
    named = next(v for v in table if v.a == (0, 0, 1, 2))
    assert named.verdict == "Divisorial" and not named.inferred
    _ok(1, "six quadric-fibration families and the (0 0 1 2) divisorial case")


def test_criterion_2_p2_bundle_window():
    res = enumerate_p2_bundles()
    assert [(c.data[0], c.degree) for c in res.candidates] == [
        (2, 5),
        (3, 4),
        (4, 3),
        (5, 2),
    ]
    B = P2()
    h, pt = B.gen("h"), B.from_terms({B.top_monomial: 1})
    for c in res.candidates:
        c2 = c.data[0]
        twisted = twist_rank2(chern_tower(B, 2, [-1 * h, c2 * pt]), 2 * h)
        assert chi_rank2(twisted) == 9 - c2
        assert integrate(twisted.zeta**3) == c.degree
    assert [e.data for e in res.exclusions] == [(6,)]
    _ok(2, "P2-bundle candidates c2 = 2..5 with chi(F(2)) = 9 - c2")


def test_criterion_3_picard_three_lists():
    for tag in ("p1p1", "f2"):
        res = enumerate_rho3(tag)
        assert [c.degree for c in res.candidates] == [8, 6, 5, 4, 3, 2, 1]
        split = res.candidates[0]
        assert split.data[1] == 0
        assert lookup(split.family).anticanonical_map == "Divisorial"
        (excl,) = res.exclusions
        assert excl.data == (tag, 1)
        assert dict(excl.computed)["c2_twisted"] == -1
        if tag == "f2":
            assert all(any("mirrored" in n for n in c.notes)
                       for c in res.candidates)
    _ok(3, "Picard-rank-3 degrees 8 6 5 4 3 2 1 with the c2 = 1 exclusion")


def test_criterion_4_scroll_constructions():
    rep = verify_constructions()
    assert rep.ok
    got = {(c.subject, c.name): c.computed for c in rep.checks}
    assert got[("(5;5) scroll over P1xP2", "construction-adjunction")] == "-p - h - 3*z"
    assert got[("(5;5) scroll over P1xP2", "construction-degree")] == "5"
    assert got[("(4;6) scroll over P2", "construction-adjunction")] == "-3*z"
    assert got[("(4;6) scroll over P2", "construction-degree")] == "6"
    assert got[("(4;5) scroll over F1", "construction-adjunction")] == "-3*z"
    assert got[("(4;5) scroll over F1", "construction-degree")] == "5"
    _ok(4, "the three scroll towers replay with the stated adjunction and degree")


def test_criterion_5_section_counts():
    quadric = {
        "thm3.4-1": (0, 0, 0, 0),
        "thm3.4-2": (0, 0, 0, 1),
        "thm3.4-3": (0, 0, 1, 1),
        "thm3.4-4": (0, 1, 1, 1),
        "thm3.4-5": (-1, 0, 0, 1),
        "thm3.4-6": (-1, 0, 0, 0),
    }
    for rid, a in quadric.items():
        d = lookup(rid).degree
        assert h0_split(a) == d + 2
    B = P2()
    h, pt = B.gen("h"), B.from_terms({B.top_monomial: 1})
    for k, c2 in ((1, 2), (2, 3), (3, 4), (4, 5)):
        d = lookup(f"thm3.5-{k}").degree
        twisted = twist_rank2(chern_tower(B, 2, [-1 * h, c2 * pt]), 2 * h)
        assert chi_rank2(twisted) == d + 2
    _ok(5, "h0(X; H) = d + 2 across all ten small-map threefold families")


def test_criterion_6_catalog_integrity_and_mutation_sweep():
    records = builtin_catalog()
    for rep in (
        verify_families(records),
        verify_flops(records),
        verify_smoothings(records),
        verify_enumeration_matches_catalog(records),
    ):
        assert rep.ok

    def relation_reports(mutated):
        return (
            verify_families(mutated),
            verify_flops(mutated),
            verify_smoothings(mutated),
            verify_enumeration_matches_catalog(mutated),
        )

    def mutate(rid, **changes):
        return [
            dataclasses.replace(r, **changes) if r.id == rid else r
            for r in records
        ]

    planted = detected = 0
    for r in records:
        if construction_models(r.id):
            for delta in (1, -1):
                planted += 1
                if r.degree + delta < 1:
                    try:
                        dataclasses.replace(r, degree=r.degree + delta)
                    except ValueError:
                        detected += 1
                    continue
                mutated = mutate(r.id, degree=r.degree + delta)
                if any(not rep.ok for rep in relation_reports(mutated)):
                    detected += 1
        if r.flop_partner is not None:
            planted += 1
            if any(
                not rep.ok
                for rep in relation_reports(mutate(r.id, flop_partner=None))
            ):
                detected += 1
        if r.smoothing is not None:
            planted += 1
            wrong = "thm2.1-8" if r.smoothing != "thm2.1-8" else "thm2.1-1"
            if any(
                not rep.ok
                for rep in relation_reports(mutate(r.id, smoothing=wrong))
            ):
                detected += 1
    assert planted >= 60
    assert detected == planted, f"{planted - detected} mutations went unnoticed"
    _ok(6, f"catalog checks green and all {planted} planted errors detected")


def test_criterion_7_independent_reduction_oracle():
    zoo = build_zoo()
    checked = 0
    for idx, A in enumerate(zoo):
        for j in range(100):
            rng = random.Random(31_337 * (idx + 1) + j)
            mono = random_monomial(rng, A.nvars, A.dim)
            coeff = rng.choice([c for c in range(-5, 6) if c != 0])
            got = integrate(A.from_terms({mono: coeff}))
            assert got == oracle_integrate(A, [(mono, coeff)], seed=j), (A, mono)
            checked += 1
        if A.kind is None:  # a tower by make_tower or chern_tower: z last
            fiber_expo = tuple(A.base.top_monomial) + (A.rank - 1,)
            assert integrate(A.from_terms({fiber_expo: 1})) == 1
    assert checked >= 100 * len(zoo)
    _ok(7, f"engine agrees with the substitution oracle on {checked} integrals")


def test_criterion_8_blowup_chains():
    for n in (3, 4, 5, 6):
        for d in range(2, 10):
            chain = blowup_chain(n, d)
            assert len(chain) == d - 1
            assert chain == tuple(range(d - 1, 0, -1))
            # each step loses exactly one, and the last leaves degree 1
            assert [a - b for a, b in zip((d,) + chain, chain)] == [1] * (d - 1)
            assert chain[-1] == 1
    # blowing up degree 1 would leave degree 0, so no chain takes that step
    assert blowup_degree(3, 1) == 0
    assert blowup_chain(3, 1) == ()
    _ok(8, "blow-up chains lose exactly one in degree per step and stop at 1")


def test_criterion_9_cli_golden_bytes():
    cases = [
        (("enumerate", "--case", "quadric"), "quadric_table.txt"),
        (("show", "thm3.5-1"), "show_thm3.5-1.txt"),
        (("export", "--format", "json"), "export.json"),
    ]
    for args, golden in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "delpezzo", *args],
            capture_output=True,
            env=child_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / golden).read_bytes(), args
    payload = json.loads((GOLDEN / "export.json").read_text())
    assert len(payload) == 55
    _ok(9, "all three command outputs match their golden files byte for byte")
