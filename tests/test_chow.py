"""Unit and property tests for the exact Chow-ring engine."""

import gc
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delpezzo import (
    Ambient,
    Base,
    ChowElement,
    P1,
    P2,
    P1xP1,
    Fe,
    P1xP2,
    adjunction,
    canonical_class,
    chern_tower,
    integrate,
    make_tower,
    polarized_degree,
)
from delpezzo import chow
from delpezzo.enumeration import model_values
from substitution_oracle import oracle_reduce
from test_chow_oracle import code, normal_monomials, random_towers

coeffs = st.integers(min_value=-6, max_value=6)


def p1_tower(*a):
    return make_tower(P1(), list(a))


def tower_F(T):
    return T.pullback(P1().gen("F"))


# -- canonical classes and adjunction ------------------------------------


def test_canonical_class_on_split_p1_tower():
    T = p1_tower(0, 0, 0, 1)
    assert str(canonical_class(T)) == "-F - 4*z"
    X = 2 * T.zeta + tower_F(T)
    assert str(adjunction(T, X)) == "-2*z"


def test_canonical_class_base_constants():
    assert str(canonical_class(P1())) == "-2*F"
    assert str(canonical_class(P2())) == "-3*h"
    assert str(canonical_class(P1xP1())) == "-2*f1 - 2*f2"
    assert str(canonical_class(Fe(3))) == "-2*C0 - 5*f"
    assert str(canonical_class(P1xP2())) == "-2*p - 3*h"


@pytest.mark.parametrize("e", [0, 1, 2, 3, 7])
def test_canonical_squared_is_8_on_hirzebruch(e):
    K = canonical_class(Fe(e))
    assert integrate(K * K) == 8


def test_canonical_squared_on_other_surfaces():
    assert integrate(canonical_class(P2()) ** 2) == 9
    assert integrate(canonical_class(P1xP1()) ** 2) == 8


# -- the base table ------------------------------------------------------

# every fact of a named base, read off its tower, as literals, so an edit
# of `_BASE_TOWERS` cannot change a ring unnoticed; the point, stated by
# hand, has no canonical class (None)
BASE_FACTS = [
    (Base("pt"), (), 0, (), [], None),
    (P1(), ("F",), 1, (1,), [((2,), [])], {"F": -2}),
    (P2(), ("h",), 2, (2,), [((3,), [])], {"h": -3}),
    (
        P1xP1(), ("f1", "f2"), 2, (1, 1),
        [((2, 0), []), ((0, 2), [])], {"f1": -2, "f2": -2},
    ),
    (
        Fe(0), ("C0", "f"), 2, (1, 1),
        [((2, 0), []), ((0, 2), [])], {"C0": -2, "f": -2},
    ),
    (
        Fe(1), ("C0", "f"), 2, (1, 1),
        [((2, 0), [((1, 1), -1)]), ((0, 2), [])], {"C0": -2, "f": -3},
    ),
    (
        Fe(3), ("C0", "f"), 2, (1, 1),
        [((2, 0), [((1, 1), -3)]), ((0, 2), [])], {"C0": -2, "f": -5},
    ),
    (
        P1xP2(), ("p", "h"), 3, (1, 2),
        [((2, 0), []), ((0, 3), [])], {"p": -2, "h": -3},
    ),
]


@pytest.mark.parametrize(
    "base,gens,dim,top,relations,canonical", BASE_FACTS, ids=[repr(f[0]) for f in BASE_FACTS]
)
def test_base_facts_are_pinned(base, gens, dim, top, relations, canonical):
    assert base.gen_names == gens
    assert base.dim == dim
    assert base.top_monomial == top
    if canonical is None:
        with pytest.raises(ValueError, match="the point has no canonical class"):
            canonical_class(base)
    else:
        K = sum((c * base.gen(name) for name, c in canonical.items()), base.zero())
        assert canonical_class(base) == K
    # the base ring is presented by exactly these rewrite rules, and F_0
    # by zero rules, as P1 x P1 is: no stored term has coefficient 0
    assert base.relations() == relations
    assert all(c != 0 for _, rhs in base.relations() for _, c in rhs)


# -- the point and towers over it ----------------------------------------


@pytest.mark.parametrize("n,volume", [(3, 64), (4, 625), (10, 25937424601)])
def test_projective_space_is_a_tower_over_the_point(n, volume):
    # P^n = P(O^(n+1)) over the point, split or from its (empty) Chern
    # data: one ring, with -K = (n + 1) z and (-K)^n = (n + 1)^n
    split = make_tower(Base("pt"), [0] * (n + 1))
    given_cherns = chern_tower(Base("pt"), n + 1, [])
    assert split == given_cherns
    for A in (split, given_cherns):
        K = canonical_class(A)
        assert K == -(n + 1) * A.zeta
        assert integrate((-K) ** n) == volume


def test_point_blowup_of_p3_is_a_tower_over_p2():
    # Bl_p P3 = P(O + O(1)) over P2: -K = 2z + 2h, (-K)^3 = 56
    h = P2().gen("h")
    A = make_tower(P2(), [0, h])
    minus_k = -canonical_class(A)
    assert minus_k == 2 * A.zeta + 2 * A.pullback(h)
    assert integrate(minus_k**3) == 56


# -- stacked towers ------------------------------------------------------


@pytest.mark.parametrize("n", range(3, 11))
def test_point_blowup_of_projective_space_stacks_over_the_point(n):
    # Bl_p P^n = P(O + O(1)) over P^(n-1), and P^(n-1) over the point:
    # (-K)^n = (n + 1)^n - (n - 1)^n, and E = z - h has E^n = (-1)^(n-1)
    below = make_tower(Base("pt"), [0] * n)
    h = below.zeta
    A = make_tower(below, [0, h])
    assert A.gen_names == ("z1", "z")
    assert integrate((-canonical_class(A)) ** n) == (n + 1) ** n - (n - 1) ** n
    E = A.zeta - A.pullback(h)
    assert integrate(E**n) == (-1) ** (n - 1)


@pytest.mark.parametrize("n", range(4, 11))
def test_flag_tower_of_the_grassmannian(n):
    # P(V) over P^(n-1) with c(V) = 1/(1 + h) and rank n - 1 is the flag
    # tower over G(2, n), with sigma_1 = z + h
    below = chern_tower(Base("pt"), n, [])
    h = below.zeta
    F = chern_tower(below, n - 1, [(-h) ** i for i in range(1, n)])
    H = F.pullback(h)
    sigma = F.zeta + H
    assert integrate(H * sigma ** (2 * n - 4)) == model_values("grass", (2, n)).degree
    assert canonical_class(F) == -n * sigma - 2 * H + sigma


def test_p1_to_the_fourth_as_three_stacked_towers():
    # each level's z is renamed by its level, so the names stay unique and
    # the exponent sum takes more than three generators
    A = P1()
    for _ in range(3):
        A = make_tower(A, [0, 0])
    assert A.gen_names == ("F", "z1", "z2", "z")
    total = sum((A.gen(g) for g in A.gen_names), A.zero())
    assert integrate(total**4) == 24
    assert integrate(A.from_terms({(1, 1, 1, 1): 1})) == 1


def test_generator_count_is_the_picard_number():
    # a ring's generators are a basis of its Picard group: P1 and P2 have
    # Picard number 1, the other named bases 2, and each tower level adds
    # its z; the searches read their candidates' Picard numbers this way
    for base in (P1(), P2()):
        assert base.nvars == 1
    for base in (P1xP1(), *map(Fe, range(4)), P1xP2()):
        assert base.nvars == 2
    h = P2().gen("h")
    A = chern_tower(P2(), 2, [-h, 3 * P2().from_terms({P2().top_monomial: 1})])
    assert (A.dim, A.nvars) == (3, 2)
    stacked = make_tower(A, [0, A.zeta])
    assert (stacked.dim, stacked.nvars) == (4, 3)


def test_named_layouts_are_rings_of_their_own():
    # each pair stores the same classes over P1 and differs only in the
    # names and order of its generators: their classes must not mix
    pairs = [
        (Fe(0), P1xP1()),
        (make_tower(P1(), [0, 0]), P1xP1()),
        (make_tower(P1(), [0, 0, 0]), P1xP2()),
    ]
    for A, B in pairs:
        assert A.base is B.base and A.rank == B.rank and A.cherns == B.cherns
        assert A != B and B != A
        with pytest.raises(ValueError, match="different ambients"):
            A.gen(A.gen_names[0]) + B.gen(B.gen_names[0])


@pytest.mark.parametrize("kind,e", [("Fe", 2.0), ("Fe", True), ("Fe", "2"), ("P1", 0.0)])
def test_base_parameter_must_be_an_int(kind, e):
    # an e equal to an int would share that int's memoized ring and
    # render it with its own value (-2.0*C0*f, FTrue)
    with pytest.raises(ValueError, match="must be an int"):
        Base(kind, e)
    assert str(Fe(2).gen("C0") ** 2) == "-2*C0*f"
    assert repr(Fe(1)) == "F1"


# -- degrees of the rank-4 quadric fibration models ----------------------

# X in |2z + alpha F| on F(a1..a4) with alpha = 2 - sum(a), degree sum(a) + 2
QUADRIC_CASES = [
    ((0, 0, 0, 0), 2),
    ((0, 0, 0, 1), 3),
    ((0, 0, 1, 1), 4),
    ((0, 1, 1, 1), 5),
    ((-1, 0, 0, 1), 2),
    ((-1, 0, 0, 0), 1),
]


@pytest.mark.parametrize("a,expected", QUADRIC_CASES)
def test_quadric_fibration_degrees(a, expected):
    T = p1_tower(*a)
    alpha = 2 - sum(a)
    X = 2 * T.zeta + alpha * tower_F(T)
    assert str(adjunction(T, X)) == "-2*z"
    assert polarized_degree(T, X, T.zeta) == expected


# -- scroll models for the three high-dimensional exceptional cases ------


def test_scroll_over_p2():
    B = P2()
    h = B.gen("h")
    W = make_tower(P2(), [2 * h, 0, 0, 0])
    z = W.zeta
    assert str(canonical_class(W)) == "-h - 4*z"
    X = z + W.pullback(h)
    assert str(adjunction(W, X)) == "-3*z"
    assert integrate(z**5) == 4
    assert integrate(z**4 * W.pullback(h)) == 2
    assert polarized_degree(W, X, z) == 6


def test_scroll_over_p1_x_p2():
    B = P1xP2()
    p, h = B.gen("p"), B.gen("h")
    W = make_tower(P1xP2(), [p + h, 0, 0, 0])
    z = W.zeta
    assert str(canonical_class(W)) == "-p - 2*h - 4*z"
    X = z + W.pullback(h)
    assert str(adjunction(W, X)) == "-p - h - 3*z"
    assert integrate(z**6) == 3
    assert integrate(z**5 * W.pullback(h)) == 2
    assert polarized_degree(W, X, z) == 5


def test_scroll_over_f1():
    B = Fe(1)
    tau = B.gen("C0") + 2 * B.gen("f")
    assert integrate(tau * tau) == 3
    W = make_tower(Fe(1), [tau, 0, 0, 0])
    z = W.zeta
    assert str(canonical_class(W)) == "-C0 - f - 4*z"
    X = z + W.pullback(tau - B.gen("f"))
    assert str(adjunction(W, X)) == "-3*z"
    assert integrate(z**5) == 3
    assert integrate(z**4 * W.pullback(tau - B.gen("f"))) == 2
    assert polarized_degree(W, X, z) == 5


# -- Segre-type identities for towers with prescribed Chern classes ------


@pytest.mark.parametrize("c2", [0, 3, 7])
@pytest.mark.parametrize("surface", ["P2", "P1xP1", "F1"])
@pytest.mark.parametrize("rank", [2, 3])
def test_segre_identity_over_surfaces(surface, rank, c2):
    # integral of z^(rank+1) equals c1^2 - c2 for rank 2 and rank 3 alike
    if surface == "P2":
        B = P2()
        c1, c1c1 = 3 * B.gen("h"), 9
    elif surface == "P1xP1":
        B = P1xP1()
        c1, c1c1 = 2 * B.gen("f1") + 2 * B.gen("f2"), 8
    else:
        B = Fe(1)
        c1, c1c1 = 2 * B.gen("C0") + 3 * B.gen("f"), 8
    assert integrate(c1 * c1) == c1c1
    A = chern_tower(B, rank, [c1, c2 * B.from_terms({B.top_monomial: 1})])
    assert integrate(A.zeta ** (rank + 1)) == c1c1 - c2


@pytest.mark.parametrize("c2", range(8))
@pytest.mark.parametrize("surface", [P1xP1(), Fe(2)])
def test_degenerate_conic_bundle_degree(surface, c2):
    # rank-2 bundle with c1 = -K_S: the tower has -K = 2z and degree 8 - c2
    c1 = -1 * canonical_class(surface)
    A = chern_tower(surface, 2, [c1, c2 * surface.from_terms({surface.top_monomial: 1})])
    assert str(canonical_class(A)) == "-2*z"
    assert polarized_degree(A, -1 * canonical_class(A), A.zeta) == 2 * (8 - c2)
    assert integrate(A.zeta**3) == 8 - c2


# -- normalization and ring sanity ----------------------------------------


@pytest.mark.parametrize(
    "A",
    [
        make_tower(P1(), [0, 1, 1, 2]),
        make_tower(P2(), [0, P2().gen("h")]),
        make_tower(Fe(2), [0, 0, Fe(2).gen("f")]),
        chern_tower(P1xP2(), 2, [P1xP2().gen("p")]),
    ],
    ids=repr,
)
def test_fiber_normalization(A):
    # the class of a point integrates to 1 against z^(rank-1)
    assert integrate(A.zeta ** (A.rank - 1) * A.point()) == 1


def test_grothendieck_relation_holds():
    B = Fe(1)
    c1 = 2 * B.gen("C0") + 3 * B.gen("f")
    pt = B.from_terms({B.top_monomial: 1})
    A = chern_tower(Fe(1), 3, [c1, 4 * pt])
    z = A.zeta
    lhs = z**3
    rhs = A.pullback(c1) * z**2 - A.pullback(4 * pt) * z
    assert lhs == rhs
    assert integrate(z**4) == 8 - 4


def test_hirzebruch_intersection_table():
    B = Fe(2)
    C0, f = B.gen("C0"), B.gen("f")
    assert integrate(C0 * C0) == -2
    assert integrate(C0 * f) == 1
    assert integrate(f * f) == 0
    assert str(C0 * C0) == "-2*C0*f"


def test_rendering_is_deterministic_across_constructions():
    def build():
        B = P1xP2()
        W = make_tower(P1xP2(), [B.gen("p") + B.gen("h"), 0, 0, 0])
        return str(canonical_class(W)), str(W.zeta**4)

    assert build() == build()
    s, _ = build()
    assert s == "-p - 2*h - 4*z"


def test_zero_and_scalars():
    T = p1_tower(0, 1)
    z = T.zeta
    assert str(0 * z) == "0"
    assert (0 * z).is_zero()
    assert integrate(0 * (z * z)) == 0
    assert 2 * z + 3 * z == 5 * z
    assert str(z - z) == "0"
    # a degree-0 class prints as its integer
    assert str(3 * T.one()) == "3"
    assert str(-2 * T.one()) == "-2"


# -- rejection paths -------------------------------------------------------


def test_mixed_degree_addition_rejected():
    T = p1_tower(0, 1)
    with pytest.raises(ValueError, match="degrees"):
        T.zeta + T.zeta * T.zeta


def test_ambient_mismatch_rejected():
    T1 = p1_tower(0, 1)
    T2 = p1_tower(0, 2)
    with pytest.raises(ValueError, match="different ambients"):
        T1.zeta * T2.zeta


def test_split_and_chern_data_towers_are_one_ring():
    B2 = P2()
    h = B2.gen("h")
    A = make_tower(P2(), [h, 0])
    C = chern_tower(P2(), 2, [h])
    assert A == C and hash(A) == hash(C)
    assert (A.zeta * C.zeta).terms == (A.zeta**2).terms
    assert A.zeta == C.zeta and hash(A.zeta) == hash(C.zeta)
    other = make_tower(P2(), [2 * h, 0])
    assert other.zeta.terms == A.zeta.terms
    assert len({A.zeta, C.zeta, other.zeta}) == 2
    # make_tower keeps rank Chern classes, chern_tower min(rank, dim B)
    Bm = P1xP2()
    assert make_tower(P1xP2(), [Bm.gen("p"), 0]) == chern_tower(P1xP2(), 2, [Bm.gen("p")])
    F = P1().gen("F")
    assert p1_tower(1, 0, 0) == chern_tower(P1(), 3, [F])
    assert p1_tower(1, 0, 0) != chern_tower(P1(), 3, [2 * F])
    assert p1_tower(1, 0) != p1_tower(1, 0, 0)
    assert A != chern_tower(P2(), 2, [h, B2.from_terms({B2.top_monomial: 1})])


def test_tower_repr_shows_what_fixes_the_ring():
    # Chern data does not fix the rank, so a Chern-data tower prints it;
    # a split tower's twists do, and it prints them alone
    h = P2().gen("h")
    pt = Base("pt")
    assert repr(chern_tower(P2(), 2, [h])) == "P(rank 2, c1=h, c2=0) over P2"
    assert repr(chern_tower(P2(), 4, [h])) == "P(rank 4, c1=h, c2=0) over P2"
    assert repr(chern_tower(pt, 3, [])) == "P(rank 3) over pt"
    assert repr(chern_tower(pt, 5, [])) == "P(rank 5) over pt"
    assert repr(make_tower(P2(), [h, 0, 0, 0])) == "P(h, 0, 0, 0) over P2"
    assert repr(make_tower(pt, [0, 0, 0])) == "P(0, 0, 0) over pt"
    assert repr(p1_tower(-1, 2)) == "P(-F, 2*F) over P1"


def test_element_repr_names_its_ring():
    assert repr(P2().gen("h")) == "<h on P2>"


def test_one_base_ring_per_base():
    B = Fe(3)
    assert Fe(3) is B and Fe(4) is not B
    assert canonical_class(Fe(3)).ambient is B
    W = make_tower(Fe(3), [B.gen("f"), 0])
    assert all(c.ambient is B for c in W.twists + W.cherns)
    assert all(c.ambient is B for c in chern_tower(Fe(3), 3, []).cherns)


# -- tower builds ------------------------------------------------------------

BASES = [P1(), P2(), P1xP1(), Fe(3), P1xP2()]


def _seeded_twists(base, rank, seed):
    B = base
    rng = random.Random(f"twists:{base!r}:{rank}:{seed}")
    twists = []
    for _ in range(rank):
        L = B.zero()
        for g in B.gen_names:
            L = L + rng.randint(-3, 3) * B.gen(g)
        twists.append(L)
    return twists


def _full_elementary_symmetric(base, twists):
    """e_1 .. e_r of the twists, every one accumulated: O(r^2) products."""
    B = base
    es = [B.one()]
    for L in twists:
        es.append(B.zero())
        for i in range(len(es) - 1, 0, -1):
            es[i] = es[i] + es[i - 1] * L
    return es[1:]


@pytest.mark.parametrize("base", BASES, ids=repr)
def test_truncated_tower_build_matches_full_expansion(base):
    d = base.dim
    for rank in range(2, 17):
        twists = _seeded_twists(base, rank, seed=rank)
        A = make_tower(base, twists)
        full = _full_elementary_symmetric(base, twists)
        # only c_1 .. c_min(r, dim B) are stored: the rest vanish on B
        assert len(A.cherns) == min(rank, d)
        assert list(A.cherns) == full[:d]
        assert all(c.is_zero() for c in full[d:])
        assert A == chern_tower(base, rank, list(A.cherns))


def test_tower_build_products_are_linear_in_rank(monkeypatch):
    # the twists are expanded on their raw terms and reduced once per
    # degree, so a build runs no class product or sum at all
    base = P1xP2()
    rank = 16
    twists = _seeded_twists(base, rank, seed=0)
    calls = {"__mul__": 0, "__add__": 0}

    def counting(name):
        method = getattr(ChowElement, name)

        def counted(self, other):
            calls[name] += 1
            return method(self, other)

        return counted

    for name in calls:
        monkeypatch.setattr(ChowElement, name, counting(name))
    make_tower(base, twists)
    assert calls == {"__mul__": 0, "__add__": 0}


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_split_tower_cherns_match_per_twist_recurrence(data):
    # over every base, F_e up to e = 20: the one truncated expansion
    # gives the classes the per-twist recurrence does, zero beyond dim B
    A = data.draw(random_towers())
    assume(A.twists)
    d = A.base.dim
    full = _full_elementary_symmetric(A.base, A.twists)
    assert list(A.cherns) == full[:d]
    assert all(c.is_zero() for c in full[d:])
    assert len(A.cherns) == min(A.rank, d) and len(full) == A.rank


def test_tower_build_finds_its_base_by_identity(monkeypatch):
    # the base is the ring its twists and Chern classes live on, so a
    # build neither hashes nor compares an ambient
    base = P1xP2()
    twists = _seeded_twists(base, 16, seed=0)
    calls = {"hash": 0, "eq": 0}
    ambient_hash, ambient_eq = Ambient.__hash__, Ambient.__eq__

    def counting_hash(self):
        calls["hash"] += 1
        return ambient_hash(self)

    def counting_eq(self, other):
        calls["eq"] += 1
        return ambient_eq(self, other)

    monkeypatch.setattr(Ambient, "__hash__", counting_hash)
    monkeypatch.setattr(Ambient, "__eq__", counting_eq)
    A = make_tower(base, twists)
    chern_tower(base, 16, list(A.cherns))
    assert calls == {"hash": 0, "eq": 0}


def test_pow_spends_no_product_on_the_unit(monkeypatch):
    A = make_tower(P1xP2(), [0, 0, 0, 0])
    B = P1xP2()
    x = A.zeta + A.pullback(B.gen("p") + 2 * B.gen("h"))
    naive = [A.one()]
    for _ in range(17):
        naive.append(naive[-1] * x)
    unit = A.one()
    calls = 0
    mul = ChowElement.__mul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        assert self != unit and other != unit
        return mul(self, other)

    monkeypatch.setattr(ChowElement, "__mul__", counting)
    assert x**0 == unit
    for n in range(1, 18):
        calls = 0
        assert x**n == naive[n]
        assert calls == n.bit_length() - 1 + bin(n).count("1") - 1, n


def test_deep_exponents_reduce_without_recursion():
    # a normal form filled by recursion would run 5000 frames deep here
    T = make_tower(P1(), [1, 0])
    assert T.from_terms({(0, 5000): 1}).is_zero()
    assert (T.zeta**5000).is_zero()
    # C0^k -> -e C0^(k-1) f rewrites C0 one step at a time
    assert Fe(3).from_terms({(5000, 0): 7}).is_zero()
    B = Fe(3)
    W = make_tower(Fe(3), [B.gen("C0"), B.gen("f"), 0])
    assert W.from_terms({(4000, 0, 3000): 1}).is_zero()
    # on a three-level stack, z and z1 rewrite across levels
    S = P1()
    for _ in range(3):
        S = make_tower(S, [S.gen(S.gen_names[-1]), 0])
    assert S.gen_names == ("F", "z1", "z2", "z")
    for expo in [(0, 0, 0, 5000), (0, 5000, 0, 0), (1, 5000, 1, 1)]:
        assert S.from_terms({expo: 1}).is_zero()
    assert (S.zeta**5000).is_zero() and (S.gen("z1") ** 5000).is_zero()
    # over P^1200, z^1201 on P(O(h) + O) is h^1200 = s_1200 by a chain of
    # 1200 rewrite steps, met cold
    P = make_tower(Base("pt"), [0] * 1201)
    T = make_tower(P, [P.zeta, 0])
    assert integrate(T.from_terms({(0, 1201): 1})) == 1


def h_tower():
    """P(O(h) + O) over P2: generators (h, z), caps (3, 2), dimension 3."""
    return make_tower(P2(), [P2().gen("h"), 0])


@pytest.mark.parametrize("expo", [(1,), (1, 0, 0), (-1, 2), (2, -1)])
def test_from_terms_rejects_bad_exponent_vectors(expo):
    A = h_tower()
    with pytest.raises(ValueError, match="bad exponent vector"):
        A.from_terms({expo: 1})
    # and still once the ambient has met the monomials around it
    A.from_terms({(1, 0): 1, (0, 1): 1})
    A.from_terms({(2, 1): 1, (3, 0): 1})
    with pytest.raises(ValueError, match="bad exponent vector"):
        A.from_terms({expo: 1})


def test_from_terms_rejects_mixed_degrees():
    A = h_tower()
    with pytest.raises(ValueError, match="^mixed-degree"):
        A.from_terms({(1, 0): 1, (0, 2): 1})
    # a term that reduces to zero still has its degree
    with pytest.raises(ValueError, match="^mixed-degree"):
        A.from_terms({(0, 1): 1, (4, 0): 1})


def test_from_terms_drops_zero_coefficients():
    A = h_tower()
    x = A.from_terms({(1, 0): 0, (0, 1): 3, (1, 1): 0})
    assert x.terms == {(0, 1): 3} and x.degree == 1
    y = A.from_terms({(1, 0): 0, (0, 3): 0})
    assert y.is_zero() and y.degree is None


def test_from_terms_of_no_terms_is_the_zero_class():
    A = h_tower()
    x = A.from_terms({})
    assert x.is_zero() and x.degree is None and x == A.zero()


def test_from_terms_reduces_like_the_oracle():
    A = h_tower()
    raw = {(0, 3): 2, (1, 2): -1, (3, 0): 5, (2, 1): 4}
    x = A.from_terms(raw)
    assert x.degree == 3
    for seed in (0, 17, 99):
        assert x.terms == oracle_reduce(A, list(raw.items()), seed=seed)
    # z^2 = h z here, so z^3 and h z^2 both reduce to h^2 z and cancel
    y = A.from_terms({(0, 3): 1, (1, 2): -1})
    assert y.is_zero() and y.degree is None


def test_handed_out_elements_keep_their_terms():
    # a unit monomial product and a one-term from_terms with coefficient 1
    # return the memo's element itself; later arithmetic on the same ring
    # must leave every such element as it was handed out
    A = h_tower()
    h, z = A.from_terms({(1, 0): 1}), A.from_terms({(0, 1): 1})
    zz = z * z  # z^2 = h z on this tower
    handed = [h, z, zz, h * z, h * h * h, A.from_terms({(0, 2): 1})]
    assert handed[-1] is zz and A.from_terms({(1, 0): 1}) is h
    assert zz.terms == {(1, 1): 1} and handed[4].is_zero()
    before = [(dict(x.terms), x.degree) for x in handed]
    for x in handed:
        for y in handed:
            x * y
            (-x) * y
            x * (3 * y)
            if x.degree == y.degree:
                x + y
                x - y
                x + (-x)
        -x
        -2 * x
    A.from_terms({(0, 2): 3, (1, 1): -3})
    A.from_terms({(0, 3): 1, (2, 1): -1})
    A.from_terms({(0, 2): -1})
    assert [(x.terms, x.degree) for x in handed] == before


def test_scaled_monomial_product_leaves_the_memo_entry():
    A = h_tower()
    z = A.zeta
    unit = z * z
    assert A._memo[code(A, (0, 2))] is unit
    scaled = z * (-2 * z)
    assert scaled.terms == {(1, 1): -2} and scaled.degree == 2
    assert A.from_terms({(0, 2): -2}) == scaled
    assert A._memo[code(A, (0, 2))] is unit and unit.terms == {(1, 1): 1}
    assert z * z is unit


@pytest.mark.parametrize(
    "terms",
    [
        {(2, 1): 2.5},
        {(1, 0): True},
        {(1, 0): 1.0},
        {(1.0, 0): 1},
        {(True, 0): 1},
        {(0, 3.0): 1},
    ],
)
def test_from_terms_rejects_non_int_data(terms):
    # 2.5 would integrate to 2.5, and (1.0, 0) would have degree 1.0
    A = h_tower()
    with pytest.raises(ValueError, match="must be an int"):
        A.from_terms(terms)
    # (1.0, 0) and (True, 0) hash as (1, 0), a normal monomial whose code
    # the ambient holds from construction on: the type check runs before
    # that lookup, and once the ambient has met the int monomial, the
    # float one must still be refused
    for expo in terms:
        A.from_terms({tuple(map(int, expo)): 1})
    with pytest.raises(ValueError, match="must be an int"):
        A.from_terms(terms)


def test_packed_monomials_hold_up_to_dimension_32767():
    # each exponent is a 16-bit field and the degree is read modulo
    # 0xFFFF: on the largest ring a product of two classes reaches degree
    # 2 * 32767 = 0xFFFE, and z^65534 is still zero, not a carried z^0
    pt = Base("pt")
    A = make_tower(pt, [0] * 32768)
    top = A.zeta**32767
    assert A.dim == 32767 and top.degree == 32767 and integrate(top) == 1
    assert (top * top).is_zero()
    # one level more is refused before its normal monomials are built
    misses = chow._unit_monomials.cache_info().misses
    with pytest.raises(ValueError, match="dimension 32768 is above 32767"):
        make_tower(pt, [0] * 32769)
    assert chow._unit_monomials.cache_info().misses == misses
    # a monomial of degree above dim is zero before it is packed, so an
    # exponent past 16 bits never reaches a field
    T = h_tower()
    assert T.from_terms({(0, 10**12): 1}).is_zero()
    assert T.from_terms({(0, 2**16): 3, (2**16, 0): -1}) == T.zero()


@pytest.mark.parametrize("scalar", [True, False, 2.0])
def test_scalars_and_exponents_must_be_int(scalar):
    # True acted as 1: True * h printed h and h ** True was h
    h = P2().gen("h")
    with pytest.raises(TypeError):
        scalar * h
    with pytest.raises(TypeError):
        h * scalar
    with pytest.raises(ValueError, match="exponent"):
        h**scalar


def test_integrate_rejects_wrong_degree():
    T = p1_tower(0, 0, 0, 1)
    with pytest.raises(ValueError, match="degree"):
        integrate(T.zeta)


def test_adjunction_rejects_non_divisor():
    T = p1_tower(0, 0, 0, 1)
    with pytest.raises(ValueError, match="divisor"):
        adjunction(T, T.zeta * T.zeta)
    with pytest.raises(ValueError, match="divisor"):
        adjunction(T, T.zero())


def test_make_tower_input_validation():
    with pytest.raises(ValueError, match="empty"):
        make_tower(P1(), [])
    with pytest.raises(ValueError, match="rank"):
        make_tower(P1(), [1])
    with pytest.raises(ValueError, match="only meaningful over P1"):
        make_tower(P2(), [1, 0])
    B = P2()
    with pytest.raises(ValueError, match="not a divisor"):
        make_tower(P2(), [B.gen("h") ** 2, 0])


@pytest.mark.parametrize("twist", [True, False, 1.0])
def test_make_tower_rejects_non_int_integer_twist(twist):
    # True would otherwise build P(O(1) + O) over P1
    with pytest.raises(ValueError, match="twist must be a divisor class or 0"):
        make_tower(P1(), [twist, 0])


def test_chern_tower_input_validation():
    B = P2()
    h = B.gen("h")
    with pytest.raises(ValueError, match="rank"):
        chern_tower(P2(), 1, [h])
    with pytest.raises(ValueError, match="degree"):
        chern_tower(P2(), 2, [h * h])
    with pytest.raises(ValueError, match="too many"):
        chern_tower(P2(), 2, [h, h * h, h * h * h])


@pytest.mark.parametrize("rank", [2.5, 2.0, True])
def test_chern_tower_rejects_non_int_rank(rank):
    # 2.5 would build a ring of dimension 3.5, 2.0 one equal to rank 2
    F = P1().gen("F")
    with pytest.raises(ValueError, match="rank must be an int"):
        chern_tower(P1(), rank, [F])
    with pytest.raises(ValueError, match="rank must be an int"):
        chern_tower(P2(), rank, [])


def test_canonical_class_needs_tower():
    # every named base is a tower with a canonical class; the point is not
    assert str(canonical_class(P2())) == "-3*h"
    with pytest.raises(ValueError, match="rank >= 2"):
        canonical_class(Base("pt"))


def test_canonical_class_is_kept_on_its_ambient_only():
    # computed once per ambient, down to the point, and dropped with it:
    # no process-wide cache keeps a dropped tower alive
    def ambients():
        gc.collect()
        return sum(isinstance(o, Ambient) for o in gc.get_objects())

    assert canonical_class(Fe(2)) is canonical_class(Fe(2))
    before = ambients()
    B = Fe(2)
    A = make_tower(make_tower(Fe(2), [B.gen("C0"), 0]), [0, 0])
    K = canonical_class(A)
    assert canonical_class(A) is K and canonical_class(A.base) is A.base._canonical
    assert K == -2 * A.zeta + A.pullback(canonical_class(A.base))
    assert ambients() == before + 2
    del A, K
    assert ambients() == before


# -- algebraic laws under hypothesis ---------------------------------------


@given(a=coeffs, b=coeffs, x=st.tuples(coeffs, coeffs), y=st.tuples(coeffs, coeffs))
@settings(max_examples=80, deadline=None)
def test_integrate_is_multilinear(a, b, x, y):
    T = p1_tower(0, 0, 0, 1)
    F = tower_F(T)
    X = x[0] * T.zeta + x[1] * F
    Y = y[0] * T.zeta + y[1] * F
    M = T.zeta**3
    lhs = integrate((a * X + b * Y) * M)
    rhs = a * integrate(X * M) + b * integrate(Y * M)
    assert lhs == rhs


@given(
    x=st.tuples(coeffs, coeffs, coeffs),
    y=st.tuples(coeffs, coeffs, coeffs),
    w=st.tuples(coeffs, coeffs, coeffs),
)
@settings(max_examples=80, deadline=None)
def test_product_commutes_and_associates(x, y, w):
    B = Fe(1)
    A = make_tower(Fe(1), [B.gen("C0") + 2 * B.gen("f"), 0])
    gens = [A.zeta, A.pullback(B.gen("C0")), A.pullback(B.gen("f"))]

    def divisor(cs):
        out = A.zero()
        for c, g in zip(cs, gens):
            out = out + c * g
        return out

    X, Y, W = divisor(x), divisor(y), divisor(w)
    assert X * Y == Y * X
    assert (X * Y) * W == X * (Y * W)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_pullback_is_a_ring_map(data):
    # over every named base and over stacks; over F_e the printed order
    # (C0, f, z) is not the field order (f, C0, z), and a base code is
    # still the code of its pullback
    A = data.draw(random_towers())
    B = A.base
    x, y = ([data.draw(coeffs) for _ in B.gen_names] for _ in range(2))
    bx = sum((c * B.gen(g) for c, g in zip(x, B.gen_names)), B.zero())
    by = sum((c * B.gen(g) for c, g in zip(y, B.gen_names)), B.zero())
    assert A.pullback(bx * by) == A.pullback(bx) * A.pullback(by)
    assert A.pullback(bx + by) == A.pullback(bx) + A.pullback(by)
    # the pullback of a unit monomial is the tower memo's element
    for b in normal_monomials(B):
        pulled = A.pullback(B.from_terms({b: 1}))
        assert code(A, b + (0,)) == code(B, b) == pulled.mono
        assert pulled is A._memo[code(B, b)] and pulled.terms == {b + (0,): 1}


def test_pullback_onto_a_named_base_follows_its_printed_layout():
    # P1 x P1, F_e and P1 x P2 are towers over P1: F pulls back to the
    # generator their row names F, wherever it is printed (f after C0)
    F = P1().gen("F")
    for S, name, expo in ((P1xP1(), "f1", (1, 0)), (Fe(2), "f", (0, 1)), (P1xP2(), "p", (1, 0))):
        assert S.pullback(F) is S.gen(name) and S.gen(name).mono == code(S, expo)
    # a named base pulls back classes of its own base only
    with pytest.raises(ValueError, match="class on this tower's base"):
        Fe(2).pullback(Fe(2).gen("f"))


def test_pullback_of_a_base_generator_is_the_memo_element():
    T = make_tower(P1(), [1, 0])
    F = T.pullback(P1().gen("F"))
    assert F is T.gen("F") and F.mono == code(T, (1, 0))


def test_pullback_shares_the_base_terms_without_rewriting():
    # a normal code of the base is the tower's normal code, so the pulled
    # back class wraps the base class's own terms dict, of the same degree
    B = P1xP2()
    T = make_tower(P1xP2(), [B.gen("p"), 0, 0])
    p, h = B.gen("p"), B.gen("h")
    for x in (3 * p * h - 2 * h * h, -p, 5 * h):
        y = T.pullback(x)
        assert y._terms is x._terms and y.degree == x.degree and y.ambient is T
        assert y.mono is None
    # a single term with coefficient 1 is the memo's element, also when the
    # base class carries no `mono` (1 * h drops it), and zero is the zero
    one_h = 1 * h
    assert one_h.mono is None and one_h == h
    assert T.pullback(one_h) is T.gen("h") is T.pullback(h)
    assert T.pullback(p * h * h) is T.point()
    assert T.pullback(B.zero()) is T.zero()


def test_every_zero_form_is_the_ring_zero():
    # zero(), empty sums and products, scaling by 0, negation and every
    # zero form the memo keeps hand out one element per ring
    A = h_tower()
    zero = A.zero()
    assert zero is A.zero() and zero.is_zero() and zero.degree is None
    h, z = A.gen("h"), A.gen("z")
    # h^3 is zero on P2: h^3 and h^3 z are lifts whose base part is zero
    forms = [h * h * h, (h * h) * (h * z), z * z * z * z, A.from_terms({(0, 4): 2})]
    forms += [
        h * zero, zero * h, h - h, 0 * h, 3 * zero, -zero, zero + zero,
        A.from_terms({}), A.from_terms({(1, 0): 0}), A.pullback(P2().zero()),
        (2 * h) * (h * h), A.from_terms({(0, 3): 1, (1, 2): -1}),
    ]
    assert all(x is zero for x in forms)
    kept = [nf for nf in A._memo.values() if not nf._terms]
    assert len(kept) >= 3 and all(nf is zero for nf in kept)
    assert all(nf is P2().zero() for nf in P2()._memo.values() if not nf._terms)


@given(c=st.integers(min_value=-9, max_value=9))
@settings(max_examples=40, deadline=None)
def test_projection_formula_for_points(c):
    B = P1xP2()
    A = make_tower(P1xP2(), [B.gen("p"), 0, 0])
    top = c * B.gen("p") * B.gen("h") ** 2
    assert integrate(A.pullback(top) * A.zeta ** (A.rank - 1)) == integrate(top) == c
