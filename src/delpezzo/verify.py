"""Cross-checks: recompute every family invariant the stored models allow,
compare enumeration output against the catalog, and replay the scroll
constructions behind the higher-dimensional exceptional cases.

Every check lands in a Report as pass, fail, or skipped(reason); checks
that would need geometry this package cannot model are skipped with the
reason spelled out, never silently passed.

Each construction model's values come from `enumeration.model_values`,
which memoizes them by kind and data; this module only compares them
with the record.  A model that cannot be derived from its data fails a
`model-derivation` check, and a search that raises a `{name}-search`
check, so broken data ends in a report; on broken data a search raises
`ValueError` or `ArithmeticError`, the two errors caught.  A blow-up
model's data is its target's degree, read from the catalog under test
on every call, so a planted error in the target always shows.

Each report is one generator of its checks, which `Report` takes as a
tuple: the catalog-level reports loop over the records inside it, and
the enumeration report runs `_match` over each search group.  An id a
record points at that names no record fails the check `_unresolved`
builds.
"""

from __future__ import annotations

from typing import NamedTuple

from .catalog import (
    CONSTRUCTION_CLAIMS,
    NO_MODEL_REASONS,
    RHO3_SURFACES,
    FamilyRecord,
    builtin_catalog,
    construction_models,
)
from .enumeration import (
    DEGREE_WINDOW,
    enumerate_p2_bundles,
    enumerate_point_blowups,
    enumerate_quadric_fibrations,
    enumerate_rho3,
    enumerate_highdim,
    model_values,
    scroll,
)

# the expected texts of the two window checks, built once from the window
_DEGREE_TEXT = "{} <= degree <= {}".format(*DEGREE_WINDOW)
_TARGET_TEXT = "target degree in [{}; {}]".format(*DEGREE_WINDOW)


class CheckResult(NamedTuple):
    """One check, as a row; `_check`, `_skip` and `_window` build them all,
    positionally."""

    name: str
    subject: str
    expected: str
    computed: str
    status: str  # pass | fail | skipped
    reason: str = ""
    citation: str = ""


class Report(NamedTuple):
    """The checks of one report, counted by status."""

    title: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if c.status == "fail")

    @property
    def skipped(self) -> int:
        return sum(1 for c in self.checks if c.status == "skipped")

    @property
    def ok(self) -> bool:
        return self.failed == 0


# the reason on every h0 check whose model equates h0 with chi
H0_ASSUMED = (
    "h0 equated with chi; vanishing of higher cohomology "
    "of the twisted bundle is assumed as stated"
)


def _check(name, subject, expected, computed, citation="", reason=""):
    expected, computed = str(expected), str(computed)
    status = "pass" if expected == computed else "fail"
    return CheckResult(name, subject, expected, computed, status, reason, citation)


def _skip(name, subject, reason, citation=""):
    return CheckResult(name, subject, "", "", "skipped", reason, citation)


def _window(name, r, expected, degree):
    """Corollary 3.3: a small anticanonical map at Picard rank 2 bounds the
    degree, of `r` itself or of its smoothing, to `DEGREE_WINDOW`."""
    status = "pass" if DEGREE_WINDOW[0] <= degree <= DEGREE_WINDOW[1] else "fail"
    computed = f"degree {degree}"
    return CheckResult(name, r.id, expected, computed, status, "", "Corollary 3.3")


def _unresolved(name, what, r, target_id, citation):
    """The failing `{name}-referential-integrity` check of `r`, whose
    `target_id` names no record of the catalog under test."""
    expected, computed = f"resolvable {what} id", f"unknown id {target_id}"
    return _check(f"{name}-referential-integrity", r.id, expected, computed, citation)


def _indexed(catalog):
    """The catalog under test (the built-in one by default) and its id map."""
    records = builtin_catalog() if catalog is None else list(catalog)
    return records, {r.id: r for r in records}


def verify_family(r: FamilyRecord, catalog=None) -> Report:
    """Recompute a single record's invariants through its stored models."""
    _, by_id = _indexed(catalog)
    return Report(f"family {r.id}", tuple(_family_checks([r], by_id)))


def verify_families(catalog=None) -> Report:
    return Report("families", tuple(_family_checks(*_indexed(catalog))))


def _family_checks(records, by_id):
    for r in records:
        models = construction_models(r.id)
        if not models:
            reason = NO_MODEL_REASONS.get(r.id, "no stored construction model")
            yield _skip("degree-model", r.id, reason, r.citation)
        for kind, data in models:
            if kind == "blowup":
                target = by_id.get(data[0])
                if target is None:
                    yield _unresolved("blowup", "target", r, data[0], r.citation)
                    continue
                data = (target.degree,)
            try:
                result = model_values(kind, data)
            except (ValueError, ArithmeticError) as exc:
                error = f"{type(exc).__name__}: {exc}"
                name = f"model-derivation:{kind}"
                yield _check(name, r.id, "a derivable model", error, r.citation)
                continue
            index_reason = f"K + {r.index} H must vanish on the model"
            h0_reason = H0_ASSUMED if result.h0_assumed else ""
            rows = (
                ("degree-model", r.degree, result.degree, ""),
                ("index-divisibility", "0", result.index_residual, index_reason),
                ("h0-sections", r.degree + r.dim - 1, result.h0, h0_reason),
            )
            for name, expected, computed, reason in rows:
                if computed is None and name != "degree-model":  # an optional value
                    continue
                name = f"{name}:{kind}"
                yield _check(name, r.id, expected, computed, r.citation, reason)
        if r.anticanonical_map == "Small" and r.picard == 2 and r.dim == 3:
            yield _window("degree-window", r, _DEGREE_TEXT, r.degree)


# ---------------------------------------------------------------------------
# catalog-level relations
# ---------------------------------------------------------------------------


def verify_flops(catalog=None) -> Report:
    return Report("flops", tuple(_flop_checks(*_indexed(catalog))))


def _flop_checks(records, by_id):
    for r in records:
        small_rho2_dim3 = (
            r.anticanonical_map == "Small" and r.picard == 2 and r.dim == 3
        )
        if r.flop_partner is None:
            if small_rho2_dim3:
                yield _check(
                    "flop-partner-present",
                    r.id,
                    "a flop partner",
                    "none",
                    "Lemma 3.1",
                    reason="small contractions at Picard rank 2 always flop",
                )
            continue
        partner = by_id.get(r.flop_partner)
        if partner is None:
            yield _unresolved("flop", "partner", r, r.flop_partner, r.citation)
            continue
        rows = (
            ("flop-symmetry", r.id, partner.flop_partner),
            ("flop-degree", r.degree, partner.degree),
            ("flop-index", r.index, partner.index),
        )
        for name, expected, computed in rows:
            yield _check(name, r.id, expected, computed, r.citation)
        if small_rho2_dim3 and r.degree <= 2:
            yield _check(
                "flop-self-at-low-degree",
                r.id,
                r.id,
                r.flop_partner,
                "Lemma 3.1",
                reason="degree <= 2 forces the flop to return the same family",
            )


def verify_smoothings(catalog=None) -> Report:
    return Report("smoothings", tuple(_smoothing_checks(*_indexed(catalog))))


def _smoothing_checks(records, by_id):
    for r in records:
        if r.smoothing is None:
            continue
        target = by_id.get(r.smoothing)
        if target is None:
            yield _unresolved("smoothing", "smoothing", r, r.smoothing, "Theorem 3.2")
            continue
        # Theorem 2.1's threefolds are the records with these two fields
        fano_3fold = (target.contraction, target.dim) == ("Fano", 3)
        target_class = "smooth-list record" if fano_3fold else target.id
        rows = (
            ("smoothing-target-class", "smooth-list record", target_class, ""),
            ("smoothing-degree", r.degree, target.degree, ""),
            ("smoothing-index", r.index, target.index, ""),
            (
                "smoothing-picard",
                r.picard - 1,
                target.picard,
                "the anticanonical model loses one in Picard rank under "
                "the small contraction; its smoothing keeps that rank",
            ),
        )
        for name, expected, computed, reason in rows:
            yield _check(name, r.id, expected, computed, "Theorem 3.2", reason)
        if r.anticanonical_map == "Small":
            yield _window("smoothing-window", r, _TARGET_TEXT, target.degree)


# ---------------------------------------------------------------------------
# scroll constructions behind the higher-dimensional cases
# ---------------------------------------------------------------------------


def verify_constructions(catalog=None) -> Report:
    """Replay the scroll constructions; they read no catalog, so `catalog`
    is accepted only to give every report the same call."""
    return Report("constructions", tuple(_construction_checks()))


def _construction_checks():
    for key, claim in CONSTRUCTION_CLAIMS.items():
        subject, want_adj, want_deg, citation, reason = claim
        adj, deg = scroll(key)
        rows = (
            ("construction-adjunction", want_adj, adj),
            ("construction-degree", want_deg, deg),
        )
        for name, expected, computed in rows:
            yield _check(name, subject, expected, computed, citation, reason)


# ---------------------------------------------------------------------------
# enumeration against catalog
# ---------------------------------------------------------------------------


# per-pair rows (suffix, expected, computed, reason) of `_match`: record r
# against the candidate emitted for it
def _degree_and_picard(r, c):
    return (("degree", r.degree, c.degree, ""), ("picard", r.picard, c.picard, ""))


def _quadric_pair(r, v):
    # the identity is checked on the record's own model: the search sets
    # alpha = 2 - sum(a) on every verdict, so there it always holds
    ((a, alpha),) = (d for kind, d in construction_models(r.id) if kind == "quadric")
    return (
        ("degree", r.degree, v.degree, ""),
        (
            "adjunction-identity",
            0,
            sum(a) - 2 + alpha,
            "sum(a) - 2 + alpha = 0 ties alpha to the split type",
        ),
        (
            "model-degree",
            r.degree,
            model_values("quadric", (v.a, v.alpha)).degree,
            "degree recomputed on the split tower",
        ),
    )


def _match(by_id, name, prefix, search, citation, pair_rows=_degree_and_picard):
    """Each record whose id starts with `prefix` (one string, or a tuple of
    them as `str.startswith` takes) against its candidate among what
    `search()` emits; a search that raises fails one check instead."""
    try:
        emitted = search()
    except (ValueError, ArithmeticError) as exc:
        error = f"{type(exc).__name__}: {exc}"
        yield _check(f"{name}-search", name, "a search", error, citation)
        return
    # a candidate without a family matches no record: a surplus, by its data
    emitted_by_family, surplus = {}, []
    for c in emitted:
        if c.family is None:
            surplus.append(str(c.data))
            continue
        if c.family in emitted_by_family:
            expected, subject = "one candidate per family", c.family
            yield _check(f"{name}-unique", subject, expected, "duplicate", citation)
        emitted_by_family[c.family] = c
    for fid in sorted(i for i in by_id if i.startswith(prefix)):
        c = emitted_by_family.pop(fid, None)
        if c is None:
            expected = "an enumeration candidate"
            yield _check(f"{name}-coverage", fid, expected, "missing", citation)
            continue
        for suffix, expected, computed, reason in pair_rows(by_id[fid], c):
            yield _check(f"{name}-{suffix}", fid, expected, computed, citation, reason)
    for subject in surplus + sorted(emitted_by_family):
        expected, computed = "a catalog record", "candidate without record"
        yield _check(f"{name}-surplus", subject, expected, computed, citation)


def _small_quadrics():
    return [v for v in enumerate_quadric_fibrations() if v.verdict == "Small"]


def _candidates(search, *args):
    return lambda: search(*args).candidates


def _highdim_quadrics():
    emitted = (c for n in (4, 5) for c in enumerate_highdim(n).candidates)
    return [c for c in emitted if c.kind == "quadric-bundle-highdim"]


def verify_enumeration_matches_catalog(catalog=None) -> Report:
    _, by_id = _indexed(catalog)
    # each search group (name, id prefix, search, citation[, pair rows]),
    # in report order; built per call, so each search is the function
    # this module's name holds at the time (a wrapper bound there sees it)
    groups = (
        ("quadric", "thm3.4-", _small_quadrics, "Theorem 3.4", _quadric_pair),
        ("p2bundle", "thm3.5-", _candidates(enumerate_p2_bundles), "Theorem 3.5"),
        ("blowup", "thm3.6-", _candidates(enumerate_point_blowups), "Theorem 3.6"),
        *(
            (
                f"rho3-{tag}",
                f"thm4.1-{tag}-",
                _candidates(enumerate_rho3, tag),
                "Theorem 4.1(2)",
            )
            for tag in RHO3_SURFACES
        ),
        ("highdim-quadric", ("thm5.8-2", "thm5.8-3"), _highdim_quadrics, "Theorem 5.8"),
    )
    checks = (c for group in groups for c in _match(by_id, *group))
    return Report("enumeration", tuple(checks))


# every report by name, in the fixed order of `verify_all`
REPORTS = {
    "families": verify_families,
    "flops": verify_flops,
    "smoothings": verify_smoothings,
    "constructions": verify_constructions,
    "enumeration": verify_enumeration_matches_catalog,
}
REPORT_NAMES = tuple(REPORTS)


def verify_all(catalog=None) -> list[Report]:
    """All reports, in a fixed order."""
    return [report(catalog) for report in REPORTS.values()]
