"""Constraint searches that re-derive the classification lists.

Each enumeration walks the full finite search space cut out by the
stated numerical bounds and emits candidates plus first-class exclusion
records (never silent skips), so negative results are as testable as
positive ones.  All output orders are deterministic.

The searches, `scroll` (which `verify` also replays directly) and
`model_values`, which derives what each construction model supports
through the one table `MODEL_KINDS`, are pure: their results depend on
their arguments alone, never on a catalog under test (the point blow-up
search takes its targets from Fujita's list, the higher-dimensional
search reads only the rank-2 models of the frozen built-in records, and
a blow-up model's data is its target's degree, read by the caller).
Each is memoized per process, keyed by its arguments; `model_values` is
the one cache of the models, so builders such as `quadric_model_degree`
keep none.  Every cached value is immutable (a tuple, a named tuple of
tuples, a string or an int), so no caller can change what the next one
receives.

A search returns what it finds and holds no published count; `verify`
compares what it returns with the catalog.  The package holds no
`assert`, which `python -O` would strip.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import combinations_with_replacement
from typing import NamedTuple, Optional

from .bundles import (
    blowup_chain,
    blowup_degree,
    chi_rank2,
    h0_split,
    h1_split,
    twist_rank2,
)
from .catalog import (
    QUADRIC_FAMILIES,
    RHO3_SURFACES,
    builtin_catalog,
    construction_models,
)
from .chow import (
    Ambient,
    ChowElement,
    Fe,
    P1,
    P1xP1,
    P1xP2,
    P2,
    canonical_class,
    chern_tower,
    integrate,
    make_tower,
    adjunction,
    polarized_degree,
)


class TupleVerdict(NamedTuple):
    """Outcome of the quadric-fibration test for one split type."""

    a: tuple[int, ...]  # split type of the rank-4 tower
    alpha: int  # X in |O(2) + alpha F|; alpha = 2 - sum(a), never free
    degree: int  # sum(a) + 2 = 2 sum(a) + alpha
    verdict: str  # Small | Divisorial | RejectedRange | RejectedGeometric
    family: Optional[str] = None
    reason: Optional[str] = None
    inferred: bool = False
    data = property(lambda self: self.a)  # the split type, as candidate data


class _CandidateFields(NamedTuple):
    kind: str
    dim: int
    degree: int
    picard: int
    data: tuple
    family: Optional[str] = None
    notes: tuple[str, ...] = ()
    spanned: bool = True  # False when |H| has the degree-1 base point


class FamilyCandidate(_CandidateFields):
    """A family emitted by an enumeration, with recomputable data.

    `spanned` is derived, degree > 1, and never an argument: the
    constructor, `_replace` and copying all recompute it."""

    __slots__ = ()

    def __new__(cls, kind, dim, degree, picard, data, family=None, notes=()):
        for fname, value in (("dim", dim), ("degree", degree), ("picard", picard)):
            if type(value) is not int:
                raise ValueError(f"candidate {fname} must be an int, got {value!r}")
        if degree < 1:
            raise ValueError(f"candidate degree must be >= 1, got {degree}")
        if dim < 3:
            raise ValueError(f"candidate dimension must be >= 3, got {dim}")
        fields = (kind, dim, degree, picard, data, family, notes, degree > 1)
        return tuple.__new__(cls, fields)

    def __getnewargs__(self):
        return tuple(self)[:-1]

    def _replace(self, **changes):
        return FamilyCandidate(**dict(zip(self._fields[:-1], self), **changes))


class ExclusionRecord(NamedTuple):
    """A non-candidate outcome with its reason and the numbers behind it."""

    kind: str
    data: tuple
    reason: str
    computed: tuple = ()


class EnumerationResult(NamedTuple):
    candidates: tuple[FamilyCandidate, ...]
    exclusions: tuple[ExclusionRecord, ...]


# Corollary 3.3: a small anticanonical map at Picard number 2 bounds the
# degree to lo <= d <= hi, every Picard-2 search bound and window reason
DEGREE_WINDOW = (1, 5)

# Fujita's list (Classification Theories of Polarized Varieties, LMS LN
# 155): the degrees of the smooth del Pezzo threefolds of Picard number 1,
# V(2;1) .. V(2;5) and P3 with H = O(2); input to the search, not a claim
# under test
FUJITA_RANK1_DEGREES = (1, 2, 3, 4, 5, 8)


# ---------------------------------------------------------------------------
# quadric fibrations over P1
# ---------------------------------------------------------------------------

def classify_tuple(a: tuple[int, ...]) -> TupleVerdict:
    """Verdict for X in |O(2) + alpha F| on the split rank-4 tower over P1,
    whose split type is given in any order and read sorted."""
    a = tuple(sorted(a))
    if len(a) != 4:
        raise ValueError(f"quadric fibrations need rank 4, got rank {len(a)}")
    total = sum(a)
    alpha = 2 - total
    degree = total + 2

    def verdict(v, **kw):
        return TupleVerdict(a, alpha, degree, v, **kw)

    if a[0] <= -2:
        return verdict(
            "RejectedRange",
            reason=f"h1 of the bundle is {h1_split(a)} > 0; vanishing forces a1 >= -1",
        )
    lo, hi = (d - 2 for d in DEGREE_WINDOW)  # the degree is the sum + 2
    if not lo <= total <= hi:
        return verdict(
            "RejectedRange", reason=f"sum {total} outside the window [{lo}; {hi}]"
        )
    # inside the window a1 is 0 or -1
    if a == (0, 0, 1, 2):
        return verdict("Divisorial", reason="psi is divisorial: X in |O(2) - F|")
    if a[0] == 0 and a[2] == 0 and a[3] >= 2:
        return verdict(
            "Divisorial",
            reason="a4 >= 2 with a3 = 0 follows the divisorial exclusion pattern",
            inferred=True,
        )
    if a[0] == -1 and a[1] < 0:
        return verdict(
            "RejectedGeometric",
            reason="a1 = -1 requires a2 >= 0: two negative summands give X a fixed component",
        )
    if a[0] == -1 and not 2 <= alpha <= 3:
        return verdict(
            "RejectedGeometric",
            reason=f"alpha = {alpha} outside the window 2 <= alpha <= 3 for a1 = -1",
        )
    return verdict("Small", family=QUADRIC_FAMILIES.get(a))


@cache
def enumerate_quadric_fibrations() -> tuple[TupleVerdict, ...]:
    """Classify each non-decreasing 4-tuple with a1 >= -1 and a sum at
    most the window's top, 3, which bound a4 by that top + 3."""
    top = DEGREE_WINDOW[1] - 2  # the degree is the sum + 2
    table = [
        classify_tuple(a)
        for a in combinations_with_replacement(range(-1, top + 4), 4)
        if sum(a) <= top
    ]
    return tuple(table)


def quadric_model_degree(a: tuple[int, ...], alpha: int) -> tuple[ChowElement, int]:
    """Adjunction class and degree of X in |O(2) + alpha F| on the split tower."""
    T = make_tower(P1(), list(a))
    F = T.pullback(P1().gen("F"))
    X = 2 * T.zeta + alpha * F
    return adjunction(T, X), polarized_degree(T, X, T.zeta)


# ---------------------------------------------------------------------------
# P1-bundles over P2
# ---------------------------------------------------------------------------

@cache
def enumerate_p2_bundles() -> EnumerationResult:
    """Rank-2 bundles on P2: normalize c1, bound c2 by section counts."""
    B = P2()
    h, pt = B.gen("h"), B.from_terms({B.top_monomial: 1})
    # -K = 2 eta + (3 - c1) L is divisible by 2 only for odd c1
    (c1,) = (c for c in (0, -1) if (3 - c) % 2 == 0)
    lo, hi = (d + 2 for d in DEGREE_WINDOW)  # chi of F(2) is d + 2
    candidates, exclusions = [], []
    for c2 in range(-2, 12):
        F = chern_tower(P2(), 2, [c1 * h, c2 * pt])
        twisted = twist_rank2(F, 2 * h)  # c1 = 3h, c2 shifted by 2
        chi = chi_rank2(twisted)
        if not lo <= chi <= hi:
            continue  # outside the section-count window of the smooth list
        d = integrate(twisted.zeta**3)  # c1^2 - c2 = 7 - c2
        if d < 2:
            exclusions.append(
                ExclusionRecord(
                    kind="p1-bundle-p2",
                    data=(c2,),
                    reason=(
                        f"chi of F(2) is {chi} and passes the window {lo}..{hi} yet "
                        f"the degree 7 - c2 = {d} fails the requirement d >= 2 "
                        "of the stated list"
                    ),
                    computed=(("chi_F2", chi), ("degree", d)),
                )
            )
            continue
        candidates.append(
            FamilyCandidate(
                kind="p1-bundle-p2",
                dim=twisted.dim,
                degree=d,
                picard=twisted.nvars,
                data=(c2,),
                family=f"thm3.5-{c2 - 1}",
                notes=(f"chi of F(2) = {chi} = d + 2",),
            )
        )
    return EnumerationResult(tuple(candidates), tuple(exclusions))


# ---------------------------------------------------------------------------
# point blow-ups of del Pezzo threefolds
# ---------------------------------------------------------------------------

@cache
def enumerate_point_blowups() -> EnumerationResult:
    """Blow-ups of rank-1 smooth del Pezzo threefolds in a general point."""
    candidates, exclusions = [], []
    for d in range(DEGREE_WINDOW[0], DEGREE_WINDOW[1] + 1):
        if d + 1 not in FUJITA_RANK1_DEGREES:
            exclusions.append(
                ExclusionRecord(
                    kind="blowup-v2d",
                    data=(d,),
                    reason=(
                        f"needs a smooth del Pezzo threefold of Picard number 1 "
                        f"and degree {d + 1}; the smooth list has none"
                    ),
                    computed=(("target_degree", d + 1), ("matches", 0)),
                )
            )
            continue
        target = f"thm2.1-{d + 1}"
        candidates.append(
            FamilyCandidate(
                kind="blowup-v2d",
                dim=3,
                degree=blowup_degree(3, d + 1),
                picard=2,
                data=(target,),
                family=f"thm3.6-{d}",
                notes=(f"blow-up of {target} = V(2;{d + 1}) in a general point",),
            )
        )
    return EnumerationResult(tuple(candidates), tuple(exclusions))


# ---------------------------------------------------------------------------
# Picard number >= 3: P1-bundles over P1 x P1 and F2
# ---------------------------------------------------------------------------

# surface tags of the rank-2 and rank-3 construction models
SURFACES = {"P2": P2(), "P1xP1": P1xP1(), "F2": Fe(2)}


@cache
def enumerate_rho3(tag: str) -> EnumerationResult:
    """Rank-2 bundles with c1 = -K over the surface of a `RHO3_SURFACES`
    tag, P1 x P1 or F2, bounded by bigness."""
    if tag not in RHO3_SURFACES:
        raise ValueError(
            f"the Picard-3 classification covers P1 x P1 and F2 only, got {tag!r}"
        )
    kind = RHO3_SURFACES[tag][0]
    surface = SURFACES[kind]
    c1 = -1 * canonical_class(surface)
    c1sq = integrate(c1 * c1)
    # O(-1;-2) on P1 x P1, O(-C0 - 2f) on F2
    g1, g2 = map(surface.gen, surface.gen_names)
    ruling_twist = -1 * g1 - 2 * g2
    mirrored = tag != next(iter(RHO3_SURFACES))
    candidates, exclusions = [], []
    for c2 in range(0, c1sq):  # bigness: degree c1^2 - c2 stays positive
        A = surface_scroll(kind, 2, c2)
        d = integrate(A.zeta**3)  # c1^2 - c2
        if c2 == 1:
            twisted_c2 = integrate(twist_rank2(A, ruling_twist).cherns[1])
            exclusions.append(
                ExclusionRecord(
                    kind="rho3-bundle",
                    data=(tag, c2),
                    reason=(
                        "c2 = 1 admits no locally free extension in the "
                        "required position: the normalized twist has "
                        f"c2 = {twisted_c2} < 0"
                    ),
                    computed=(("c2_twisted", twisted_c2), ("degree", d)),
                )
            )
            continue
        notes = []
        if c2 == 0:
            notes.append(
                "split case F = O(-K) + O; the anticanonical map contracts "
                "the divisor of the trivial summand"
            )
        else:
            notes.append(
                "two points of Z on one ruling line; remaining points general"
            )
        if c2 == 2:
            notes.append("contains the uniform split subcase F = O(1 2) + O(1 0)")
        if mirrored:
            notes.append("mirrored from the P1 x P1 case")
        candidates.append(
            FamilyCandidate(
                kind="rho3-bundle",
                dim=A.dim,
                degree=d,
                picard=A.nvars,
                data=(tag, c2),
                family=f"thm4.1-{tag}-c{c2}",
                notes=tuple(notes),
            )
        )
    return EnumerationResult(tuple(candidates), tuple(exclusions))


# ---------------------------------------------------------------------------
# dimension >= 4
# ---------------------------------------------------------------------------


def surface_scroll(tag: str, rank: int, c2: int) -> Ambient:
    """P(F) over a surface for F of the given rank with c1 = -K and c2 points."""
    if type(c2) is not int:
        raise ValueError(f"c2 must be an int, got {c2!r}")
    surface = SURFACES[tag]
    c1 = -1 * canonical_class(surface)
    return chern_tower(surface, rank, [c1, c2 * surface.from_terms({surface.top_monomial: 1})])


# Proposition 5.5 and Theorems 5.6-5.7: each scroll X in |z + D| inside
# P(O(L) + O^3), as key -> (base, the base generators -> (L, D))
SCROLLS = {
    "p2": (P2(), lambda h: (2 * h, h)),
    "f1": (Fe(1), lambda C0, f: (C0 + 2 * f, C0 + f)),
    "p1xp2": (P1xP2(), lambda p, h: (p + h, h)),
}


@cache
def scroll(key: str) -> tuple[str, int]:
    """Adjunction class and degree of the scroll `SCROLLS[key]`."""
    base, divisors = SCROLLS[key]
    L, D = divisors(*map(base.gen, base.gen_names))
    W = make_tower(base, [L, 0, 0, 0])
    X = W.zeta + W.pullback(D)
    return str(adjunction(W, X)), polarized_degree(W, X, W.zeta)


@cache
def enumerate_highdim(n: int) -> EnumerationResult:
    """Candidates in dimension n >= 4 by contraction type."""
    if type(n) is not int:
        raise ValueError(f"the dimension must be an int, got {n!r}")
    if n < 4:
        raise ValueError(f"the higher-dimensional search starts at n = 4, got {n}")
    candidates, exclusions = [], []

    # (i) P^(n-2)-bundles over a surface: F is an extension of a rank-2
    # model F' by the trivial bundle O^(n-3), so the degree K^2 - c2 is
    # the model value of each rank-2 model of the built-in catalog, by id
    sources = sorted(
        (r.id, *data)
        for r in builtin_catalog()
        for kind, data in construction_models(r.id)
        if kind == "rank2"
    )
    for source_id, surface_kind, c2 in sources:
        d = model_values("rank2", (surface_kind, c2)).degree
        notes = [
            f"extension 0 -> O^{n - 3} -> F -> F' -> 0 with F' the rank-2 "
            f"model of {source_id}"
        ]
        if d == 1:
            notes.append("the linear system of H has one simple base point")
        if n == 4 and source_id == "thm2.1-6a":
            notes.append(
                "F = O(1)^3 and X = P2 x P2; the extension is the Euler "
                "sequence rather than a trivial one"
            )
        candidates.append(
            FamilyCandidate(
                kind="pn-bundle",
                dim=n,
                degree=d,
                picard=SURFACES[surface_kind].nvars + 1,
                data=(n, surface_kind, c2, source_id),
                notes=tuple(notes),
            )
        )

    # (ii) quadric bundles over P1: only (5;5) and (4;4) survive, one row
    # each.  (5;5) is the Theorem 5.6 scroll over P1 x P2, which gives its
    # degree; (4;4) keeps the printed erratum degree, the one typed here
    for dim, degree, family, notes in (
        (5, lambda: scroll("p1xp2")[1], "thm5.8-2",
         ("X' is a singular hyperplane section of G(1 4) in P9",)),
        (4, lambda: 4, "thm5.8-3",
         ("degree read from the printed H^5 = 4 as H^4 = 4",
          "hyperplane-section arithmetic of the (5;5) family gives 5 "
          "instead; kept as printed")),
    ):
        if dim == n:
            d = degree()
            candidates.append(
                FamilyCandidate(
                    kind="quadric-bundle-highdim",
                    dim=n,
                    degree=d,
                    picard=2,
                    data=(n, d),
                    family=family,
                    notes=notes,
                )
            )
    cone_computed = ()
    if n == 4:
        for key, d, reason in (
            ("p2", 6, "(4;6) does not occur: the scroll model over P2 has the right "
             "adjunction yet its double-projection geometry is inconsistent"),
            ("f1", 5, "the scroll-over-F1 route to (4;5) is excluded; (4;5) arises "
             "only as a hyperplane section of the (5;5) family"),
        ):
            adj, deg = scroll(key)
            exclusions.append(
                ExclusionRecord(
                    kind="quadric-bundle-highdim",
                    data=(4, d),
                    reason=reason,
                    computed=(("tower_degree", deg), ("adjunction", adj)),
                )
            )
        resolution = model_values("rank3", ("P2", 4))
        cone_computed = (("resolution_degree", resolution.degree),)
    exclusions.append(
        ExclusionRecord(
            kind="cone-exception",
            data=(n,),
            reason=(
                "X' may be a cone over a smooth del Pezzo manifold; resolved "
                "by a projective bundle with a small contraction and recorded "
                "separately rather than as a numbered quadric-bundle candidate"
            ),
            computed=cone_computed,
        )
    )

    # (iii) point blow-up chains: every candidate of degree >= 2 extends
    base_candidates = list(candidates)
    for c in base_candidates:
        for r, degree in enumerate(blowup_chain(n, c.degree), start=1):
            candidates.append(
                FamilyCandidate(
                    kind="point-blowup-chain",
                    dim=n,
                    degree=degree,
                    picard=c.picard + r,
                    data=(c.kind, c.data, r),
                    notes=(
                        f"{r} successive general-point blow-ups of the "
                        f"degree-{c.degree} candidate",
                    ),
                )
            )
    return EnumerationResult(tuple(candidates), tuple(exclusions))


# ---------------------------------------------------------------------------
# construction models of the catalog
# ---------------------------------------------------------------------------


class ModelValues(NamedTuple):
    """What a model supports: degree, index residual (K + i H), h0."""

    degree: int
    index_residual: Optional[str] = None
    h0: Optional[int] = None
    h0_assumed: bool = False


def _quadric_values(a: tuple[int, ...], alpha: int) -> ModelValues:
    adj, degree = quadric_model_degree(a, alpha)
    residual = str(adj + 2 * adj.ambient.zeta)
    return ModelValues(degree, residual, h0_split(a))


def _scroll_values(tag: str, rank: int, c2: int) -> ModelValues:
    """P(F) over a surface, polarized by z; h0 is chi, for rank 2 only."""
    A = surface_scroll(tag, rank, c2)
    h0 = chi_rank2(A) if rank == 2 else None
    residual = str(canonical_class(A) + rank * A.zeta)
    return ModelValues(integrate(A.zeta ** (rank + 1)), residual, h0, rank == 2)


def _tower_p13_values() -> ModelValues:
    """(P1)^3 as P(O + O) over P1 x P1, polarized by H = z + f1 + f2."""
    B = P1xP1()
    T = make_tower(B, [0, 0])
    H = T.zeta + T.pullback(B.gen("f1") + B.gen("f2"))
    return ModelValues(integrate(H**3), str(canonical_class(T) + 2 * H))


def _weighted_values(deg: int, weights: tuple[int, ...]) -> ModelValues:
    """A hypersurface of degree `deg` in P(weights), polarized by O(1)."""
    if min(weights) < 1:
        raise ValueError(f"weights must be positive, got {weights}")
    denom = math.prod(weights)
    if deg % denom != 0:
        raise ArithmeticError(f"weighted degree {deg} not divisible by {denom}")
    return ModelValues(deg // denom)


def _grass_values(k: int, n: int) -> ModelValues:
    """G(k, n) in its Pluecker embedding."""
    m = n - k
    deg = math.factorial(k * m)
    for i in range(k):
        deg = deg * math.factorial(i) // math.factorial(m + i)
    return ModelValues(deg)


# the kind of a catalog model's (kind, data) pair -> the values of a
# model of that kind, from its data; a blow-up's data is its target's
# degree, which the caller reads from the catalog under test on every call
MODEL_KINDS = {
    "quadric": _quadric_values,
    "rank2": lambda tag, c2: _scroll_values(tag, 2, c2),
    "rank3": lambda tag, c2: _scroll_values(tag, 3, c2),
    "towerP13": _tower_p13_values,
    "tower56": lambda: ModelValues(scroll("p1xp2")[1]),
    "blowup": lambda degree: ModelValues(blowup_degree(3, degree)),
    "weighted": _weighted_values,
    "ci": lambda degrees: ModelValues(math.prod(degrees)),
    "grass": _grass_values,
    "veronese": lambda n, t: ModelValues(t**n),
}


@cache
def model_values(kind: str, data: tuple) -> ModelValues:
    """The values of a model of `kind` on `data`; they depend on these alone."""
    derive = MODEL_KINDS.get(kind)
    if derive is None:
        raise ValueError(f"unknown model kind {kind!r}")
    return derive(*data)
