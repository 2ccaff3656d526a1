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
check, so broken data ends in a report.  A blow-up model's data is its
target's degree, read from the catalog under test on every call, so a
planted error in the target always shows.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    enumerate_p2_bundles,
    enumerate_point_blowups,
    enumerate_quadric_fibrations,
    enumerate_rho3,
    enumerate_highdim,
    model_values,
    scroll,
)


class CheckResult(NamedTuple):
    """One check, as a row; `_check`, `_skip` and `_window` build them all,
    positionally, which costs half what a frozen dataclass does."""

    name: str
    subject: str
    expected: str
    computed: str
    status: str  # pass | fail | skipped
    reason: str = ""
    citation: str = ""


@dataclass(frozen=True)
class Report:
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

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "summary": {
                "pass": self.passed,
                "fail": self.failed,
                "skipped": self.skipped,
            },
            "checks": [c._asdict() for c in self.checks],
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), indent=2) + "\n"


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
    degree, of `r` itself or of its smoothing, to 1 <= d <= 5."""
    status = "pass" if 1 <= degree <= 5 else "fail"
    computed = f"degree {degree}"
    return CheckResult(name, r.id, expected, computed, status, "", "Corollary 3.3")


def _resolve(checks, name, what, r, target_id, by_id, citation):
    """The record `r` points at by `target_id`, or None after appending a
    failing `{name}-referential-integrity` check to `checks`."""
    target = by_id.get(target_id)
    if target is None:
        checks.append(
            _check(
                f"{name}-referential-integrity",
                r.id,
                f"resolvable {what} id",
                f"unknown id {target_id}",
                citation,
            )
        )
    return target


def _indexed(catalog):
    """The catalog under test (the built-in one by default) and its id map."""
    records = builtin_catalog() if catalog is None else list(catalog)
    return records, {r.id: r for r in records}


def verify_family(r: FamilyRecord, catalog=None) -> Report:
    """Recompute a single record's invariants through its stored models."""
    _, by_id = _indexed(catalog)
    return Report(title=f"family {r.id}", checks=tuple(_family_checks(r, by_id)))


def _family_checks(r: FamilyRecord, by_id) -> list[CheckResult]:
    checks = []
    models = construction_models(r.id)
    if not models:
        reason = NO_MODEL_REASONS.get(r.id, "no stored construction model")
        checks.append(_skip("degree-model", r.id, reason, r.citation))
    for kind, data in models:
        if kind == "blowup":
            target = _resolve(
                checks, "blowup", "target", r, data[0], by_id, r.citation
            )
            if target is None:
                continue
            data = (target.degree,)
        try:
            result = model_values(kind, data)
        except (ValueError, ArithmeticError) as exc:
            error = f"{type(exc).__name__}: {exc}"
            name = f"model-derivation:{kind}"
            checks.append(_check(name, r.id, "a derivable model", error, r.citation))
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
            checks.append(_check(name, r.id, expected, computed, r.citation, reason))
    if r.anticanonical_map == "Small" and r.picard == 2 and r.dim == 3:
        checks.append(_window("degree-window", r, "1 <= degree <= 5", r.degree))
    return checks


def verify_families(catalog=None) -> Report:
    records, by_id = _indexed(catalog)
    checks = []
    for r in records:
        checks.extend(_family_checks(r, by_id))
    return Report(title="families", checks=tuple(checks))


# ---------------------------------------------------------------------------
# catalog-level relations
# ---------------------------------------------------------------------------


def verify_flops(catalog=None) -> Report:
    records, by_id = _indexed(catalog)
    checks = []
    for r in records:
        small_rho2_dim3 = (
            r.anticanonical_map == "Small" and r.picard == 2 and r.dim == 3
        )
        if r.flop_partner is None:
            if small_rho2_dim3:
                checks.append(
                    _check(
                        "flop-partner-present",
                        r.id,
                        "a flop partner",
                        "none",
                        "Lemma 3.1",
                        reason="small contractions at Picard rank 2 always flop",
                    )
                )
            continue
        partner = _resolve(
            checks, "flop", "partner", r, r.flop_partner, by_id, r.citation
        )
        if partner is None:
            continue
        rows = (
            ("flop-symmetry", r.id, partner.flop_partner),
            ("flop-degree", r.degree, partner.degree),
            ("flop-index", r.index, partner.index),
        )
        for name, expected, computed in rows:
            checks.append(_check(name, r.id, expected, computed, r.citation))
        if small_rho2_dim3 and r.degree <= 2:
            checks.append(
                _check(
                    "flop-self-at-low-degree",
                    r.id,
                    r.id,
                    r.flop_partner,
                    "Lemma 3.1",
                    reason="degree <= 2 forces the flop to return the same family",
                )
            )
    return Report(title="flops", checks=tuple(checks))


def verify_smoothings(catalog=None) -> Report:
    records, by_id = _indexed(catalog)
    checks = []
    for r in records:
        if r.smoothing is None:
            continue
        target = _resolve(
            checks, "smoothing", "smoothing", r, r.smoothing, by_id, "Theorem 3.2"
        )
        if target is None:
            continue
        target_class = (
            "smooth-list record" if target.id.startswith("thm2.1-") else target.id
        )
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
            checks.append(_check(name, r.id, expected, computed, "Theorem 3.2", reason))
        if r.anticanonical_map == "Small":
            checks.append(
                _window("smoothing-window", r, "target degree in [1; 5]", target.degree)
            )
    return Report(title="smoothings", checks=tuple(checks))


# ---------------------------------------------------------------------------
# scroll constructions behind the higher-dimensional cases
# ---------------------------------------------------------------------------


def verify_constructions(catalog=None) -> Report:
    """Replay the scroll constructions; they read no catalog, so `catalog`
    is accepted only to give every report the same call."""
    checks = []
    for key, claim in CONSTRUCTION_CLAIMS.items():
        subject, want_adj, want_deg, citation, reason = claim
        adj, deg = scroll(key)
        rows = (
            ("construction-adjunction", want_adj, adj),
            ("construction-degree", want_deg, deg),
        )
        for name, expected, computed in rows:
            checks.append(_check(name, subject, expected, computed, citation, reason))
    return Report(title="constructions", checks=tuple(checks))


# ---------------------------------------------------------------------------
# enumeration against catalog
# ---------------------------------------------------------------------------


# per-pair rows (suffix, expected, computed, reason) of `match`: record r
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


def verify_enumeration_matches_catalog(catalog=None) -> Report:
    _, by_id = _indexed(catalog)
    checks = []

    def match(name, prefix, search, citation, pair_rows=_degree_and_picard):
        """Each record whose id starts with `prefix` (one string, or a tuple
        of them as `str.startswith` takes) against its candidate among what
        `search()` emits; a search that raises fails one check instead."""
        try:
            emitted = search()
        except (ValueError, ArithmeticError, AssertionError) as exc:
            error = f"{type(exc).__name__}: {exc}"
            checks.append(_check(f"{name}-search", name, "a search", error, citation))
            return
        emitted_by_family = {}
        for c in emitted:
            if c.family in emitted_by_family:
                checks.append(
                    _check(
                        f"{name}-unique",
                        c.family or "?",
                        "one candidate per family",
                        "duplicate",
                        citation,
                    )
                )
            emitted_by_family[c.family] = c
        for fid in sorted(i for i in by_id if i.startswith(prefix)):
            c = emitted_by_family.pop(fid, None)
            if c is None:
                checks.append(
                    _check(
                        f"{name}-coverage",
                        fid,
                        "an enumeration candidate",
                        "missing",
                        citation,
                    )
                )
                continue
            for suffix, expected, computed, reason in pair_rows(by_id[fid], c):
                label = f"{name}-{suffix}"
                checks.append(_check(label, fid, expected, computed, citation, reason))
        for fid in sorted(emitted_by_family, key=str):
            checks.append(
                _check(
                    f"{name}-surplus",
                    str(fid),
                    "a catalog record",
                    "candidate without record",
                    citation,
                )
            )

    def smalls():
        return [v for v in enumerate_quadric_fibrations() if v.verdict == "Small"]

    def candidates(search, *args):
        return lambda: search(*args).candidates

    def highdim():
        emitted = (c for n in (4, 5) for c in enumerate_highdim(n).candidates)
        return [c for c in emitted if c.kind == "quadric-bundle-highdim"]

    match("quadric", "thm3.4-", smalls, "Theorem 3.4", _quadric_pair)
    match("p2bundle", "thm3.5-", candidates(enumerate_p2_bundles), "Theorem 3.5")
    match("blowup", "thm3.6-", candidates(enumerate_point_blowups), "Theorem 3.6")
    for tag in RHO3_SURFACES:
        match(
            f"rho3-{tag}",
            f"thm4.1-{tag}-",
            candidates(enumerate_rho3, tag),
            "Theorem 4.1(2)",
        )
    match("highdim-quadric", ("thm5.8-2", "thm5.8-3"), highdim, "Theorem 5.8")
    return Report(title="enumeration", checks=tuple(checks))


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
