"""Engine normal forms checked against the brute-force substitution oracle.

The oracle reduces by literal substitution in shuffled order with its own
arithmetic, so these tests guard the engine's reduction strategy, not just
the relation tables.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delpezzo import (
    Base,
    P1,
    P2,
    P1xP1,
    Fe,
    P1xP2,
    make_tower,
    chern_tower,
    integrate,
)
from delpezzo import chow
from substitution_oracle import oracle_reduce, oracle_mul, oracle_integrate

ORACLE_SEEDS = (0, 17)


def build_zoo():
    B2 = P2()
    h = B2.gen("h")
    Bq = P1xP1()
    f1, f2 = Bq.gen("f1"), Bq.gen("f2")
    Bf1 = Fe(1)
    Bf2 = Fe(2)
    Bm = P1xP2()
    p, hm = Bm.gen("p"), Bm.gen("h")
    pt = Base("pt")
    # stacks: Bl_p P3 over P2 built over the point, the flag tower of
    # G(2, 4) over P3, and a tower over a tower over F2 (four generators)
    plane, space = make_tower(pt, [0, 0, 0]), chern_tower(pt, 4, [])
    w = space.zeta
    W = make_tower(Fe(2), [Bf2.gen("f"), 0, 0])
    return [
        make_tower(P1(), [0, 0, 0, 0]),
        make_tower(P1(), [-1, 0, 0, 1]),
        make_tower(P1(), [0, 1, 1, 1]),
        make_tower(P1(), [2, 3]),
        make_tower(P2(), [0, h]),
        make_tower(P2(), [2 * h, 0, 0, 0]),
        make_tower(P1xP1(), [f1 + 2 * f2, 0]),
        make_tower(Fe(2), [Bf2.gen("C0") + 3 * Bf2.gen("f"), 0, 0]),
        make_tower(P1xP2(), [p + hm, 0, 0, 0]),
        chern_tower(P1xP1(), 2, [2 * f1 + 2 * f2, 5 * Bq.from_terms({Bq.top_monomial: 1})]),
        chern_tower(
            Fe(1), 3,
            [2 * Bf1.gen("C0") + 3 * Bf1.gen("f"), 4 * Bf1.from_terms({Bf1.top_monomial: 1})],
        ),
        P2(),
        Fe(3),
        P1xP2(),
        make_tower(pt, [0, 0, 0, 0]),
        chern_tower(pt, 3, []),
        make_tower(plane, [0, plane.zeta]),
        chern_tower(space, 3, [-w, w * w, -(w**3)]),
        make_tower(W, [W.zeta, W.pullback(Bf2.gen("C0")), 0]),
    ]


ZOO = build_zoo()


def random_monomial(rng, nvars, degree):
    expo = [0] * nvars
    for _ in range(degree):
        expo[rng.randrange(nvars)] += 1
    return tuple(expo)


@pytest.mark.parametrize("idx", range(len(ZOO)), ids=[repr(a) for a in ZOO])
def test_integrate_matches_oracle(idx):
    A = ZOO[idx]
    for j in range(100):
        rng = random.Random(10_000 * idx + j)
        mono = random_monomial(rng, A.nvars, A.dim)
        coeff = rng.choice([c for c in range(-5, 6) if c != 0])
        x = A.from_terms({mono: coeff})
        got = integrate(x)
        for seed in ORACLE_SEEDS:
            assert got == oracle_integrate(A, [(mono, coeff)], seed=seed + j)


@pytest.mark.parametrize("idx", range(len(ZOO)), ids=[repr(a) for a in ZOO])
def test_normal_form_matches_oracle(idx):
    A = ZOO[idx]
    for j in range(25):
        rng = random.Random(77_000 * (idx + 1) + j)
        degree = rng.randrange(A.dim + 2)  # also degrees above dim (reduce to 0)
        raw = []
        for _ in range(rng.randrange(1, 6)):
            mono = random_monomial(rng, A.nvars, degree)
            raw.append((mono, rng.randrange(-9, 10)))
        as_dict = {}
        for mono, c in raw:
            as_dict[mono] = as_dict.get(mono, 0) + c
        engine = A.from_terms(as_dict).terms
        for seed in ORACLE_SEEDS:
            assert engine == oracle_reduce(A, raw, seed=seed + 31 * j)


@pytest.mark.parametrize("idx", range(len(ZOO)), ids=[repr(a) for a in ZOO])
def test_products_match_oracle(idx):
    A = ZOO[idx]
    names = A.gen_names
    for j in range(30):
        rng = random.Random(5_000_000 + 900 * idx + j)
        ca = [rng.randrange(-3, 4) for _ in names]
        cb = [rng.randrange(-3, 4) for _ in names]
        x = A.zero()
        y = A.zero()
        for name, a, b in zip(names, ca, cb):
            x = x + a * A.gen(name)
            y = y + b * A.gen(name)
        raw_a = [(e, c) for e, c in x.terms.items()]
        raw_b = [(e, c) for e, c in y.terms.items()]
        prod = (x * y).terms
        for seed in ORACLE_SEEDS:
            assert prod == oracle_mul(A, raw_a, raw_b, seed=seed + j)


def caps_of(A):
    """The exponent cap of each generator, read off the left sides of A's rules."""
    return [lhs[i] for lhs, _ in A.relations() for i, k in enumerate(lhs) if k]


def normal_monomials(A):
    """Every exponent vector of A in normal form, i.e. below the caps."""
    return list(itertools.product(*(range(c) for c in caps_of(A))))


# the 16-bit field of each generator of a named kind, in printed order:
# a named base is a tower over the point or P1, whose z fills the field
# above P1's F, so F_e's C0 (its z) sits above f, though printed first
_FIELDS = {
    "pt": (),
    "P1": (0,),
    "P2": (0,),
    "P1xP1": (0, 1),
    "Fe": (1, 0),
    "P1xP2": (0, 1),
}


def fields(A):
    """The field of each generator of A, in printed order: the table's
    for a named kind; over any other base, the base's, with z in the
    field just above them, walking down to a named kind."""
    if A.kind in _FIELDS:
        return _FIELDS[A.kind]
    return fields(A.base) + (A.base.nvars,)


def code(A, expo):
    """The engine's key of a monomial on A: each exponent in the bits
    16f .. 16f + 15 of its generator's field f."""
    return sum(k << 16 * f for k, f in zip(expo, fields(A)))


def exponents(A, c):
    """The exponent tuple, in printed order, of the monomial with code c on A."""
    return tuple((c >> 16 * f) & 0xFFFF for f in fields(A))


@pytest.mark.parametrize("idx", range(len(ZOO)), ids=[repr(a) for a in ZOO])
def test_monomial_products_match_oracle(idx):
    # all pairs of normal monomials: every degree split, and products whose
    # exponents reach or pass the caps (rewritten) as well as normal ones
    A = ZOO[idx]
    rng = random.Random(6_000 + idx)
    mons = normal_monomials(A)
    for m1, m2 in itertools.product(mons, repeat=2):
        c1 = rng.choice([-3, -2, -1, 1, 2, 3])
        c2 = rng.choice([-3, -2, -1, 1, 2, 3])
        x = A.from_terms({m1: c1})
        y = A.from_terms({m2: c2})
        prod = x * y
        want = oracle_mul(A, [(m1, c1)], [(m2, c2)], seed=rng.randrange(1000))
        assert prod.terms == want
        assert prod.degree == (sum(m1) + sum(m2) if want else None)


@pytest.mark.parametrize("idx", range(len(ZOO)), ids=[repr(a) for a in ZOO])
def test_monomial_product_edge_cases(idx):
    A = ZOO[idx]
    g = A.gen(A.gen_names[-1])
    for zero in (A.zero(), 0 * g, g - g):
        for prod in (g * zero, zero * g, zero * zero):
            assert prod.is_zero() and prod.degree is None and prod.ambient is A
    for prod in (g * 0, 0 * g):
        assert prod.is_zero() and prod.degree is None
    assert (g * 3).terms == (3 * g).terms == {e: 3 for e in g.terms}
    assert (g * -1) == -g and (g * 1) == g
    with pytest.raises(TypeError):
        g * "z"
    with pytest.raises(TypeError):
        g * 1.5
    other = next(B for B in ZOO[idx + 1 :] + ZOO if B != A)
    h = other.gen(other.gen_names[-1])
    with pytest.raises(ValueError, match="different ambients"):
        g * h
    with pytest.raises(ValueError, match="different ambients"):
        g * other.zero()


def _hinted_zoo():
    """Fresh towers over F_0, F_3, P1, P2, P1xP1 and rank 16 over P1xP2."""
    F0, F3, B2, Bq, Bm = Fe(0), Fe(3), P2(), P1xP1(), P1xP2()
    p, h = Bm.gen("p"), Bm.gen("h")
    return [
        make_tower(Fe(0), [F0.gen("C0") + 2 * F0.gen("f"), F0.gen("f"), 0]),
        make_tower(Fe(3), [F3.gen("C0"), 2 * F3.gen("f"), 0]),
        chern_tower(Fe(3), 2, [F3.gen("C0") - F3.gen("f"), 5 * F3.from_terms({F3.top_monomial: 1})]),
        make_tower(P1(), [3, -1, 0]),
        make_tower(P2(), [2 * B2.gen("h"), 0, 0, 0]),
        make_tower(P1xP1(), [Bq.gen("f1") - Bq.gen("f2"), 0]),
        chern_tower(
            P1xP2(), 16,
            [2 * p + 3 * h, 5 * p * h - h * h, 7 * Bm.from_terms({Bm.top_monomial: 1})],
        ),
    ]


@pytest.mark.parametrize("idx", range(len(_hinted_zoo())))
def test_unit_monomials_are_the_memo_elements(idx):
    # gen, one, point, zeta and a one-term from_terms with coefficient 1
    # hand out the memo's element, which carries its exponent as `mono`
    A = _hinted_zoo()[idx]
    n = A.nvars
    handed = [
        (A.gen(g), tuple(int(j == i) for j in range(n)))
        for i, g in enumerate(A.gen_names)
    ]
    handed += [
        (A.one(), (0,) * n),
        (A.point(), A.base.top_monomial + (0,)),
        (A.zeta, (0,) * (n - 1) + (1,)),
    ]
    handed += [(A.from_terms({m: 1}), m) for m in normal_monomials(A)]
    for x, expo in handed:
        assert x is A._memo[code(A, expo)] and x.mono == code(A, expo)
    assert A.zeta is A.zeta


@pytest.mark.parametrize("idx", range(len(_hinted_zoo())))
def test_hinted_monomial_products_match_the_general_path(idx):
    # x * y of two memo monomials takes the hinted path; 1 * x drops the
    # hint, so the same product on an equal, fresh ring takes the general
    # one, which fills its memo by itself; a scaled factor also takes the
    # general path, and leaves the memo's element as it was
    fast, general = _hinted_zoo()[idx], _hinted_zoo()[idx]
    mons = normal_monomials(fast)
    xs = [fast.from_terms({m: 1}) for m in mons]
    ys = [1 * general.from_terms({m: 1}) for m in mons]
    assert all(x.mono == code(fast, m) for x, m in zip(xs, mons))
    assert all(y.mono is None for y in ys)
    c = -2
    for m1, x, gx in zip(mons, xs, ys):
        for m2, y, gy in zip(mons, xs, ys):
            key = code(fast, [a + b for a, b in zip(m1, m2)])
            prod = x * y
            assert prod is fast._memo[key]
            want = gx * gy
            assert prod == want and prod.degree == want.degree
            for scaled in (x * (c * y), (c * x) * y):
                assert scaled == c * prod and scaled.degree == prod.degree
            assert fast._memo[key] is prod and prod.terms == want.terms
    # hinted monomials of two rings take the path that compares them
    x, y = xs[-1], general.from_terms({mons[-1]: 1})
    assert y.mono == x.mono and (x * y).terms == (1 * x * y).terms
    other = _hinted_zoo()[idx - 1]
    with pytest.raises(ValueError, match="different ambients"):
        x * other.from_terms({(0,) * other.nvars: 1})


def test_monomials_over_a_zero_rule_are_zero_at_once():
    # f^2 = 0 divides C0^2 f^2 on F_3, though C0, the first generator over
    # its cap, has the nonzero rule C0^2 = -3 C0 f: nothing is rewritten
    B = Fe(3)
    A = make_tower(Fe(3), [B.gen("C0"), 0])
    # from_terms drops it before any lookup, as its degree 4 is above dim
    # 3; the product of two normal monomials meets it in the memo
    x = A.from_terms({(2, 2, 0): 1})
    assert x.is_zero() and x.degree is None and x.mono is None
    x = A.from_terms({(1, 1, 0): 1}) * A.from_terms({(1, 1, 0): 1})
    assert x.is_zero() and x.degree is None and x.mono is None
    normal = {code(A, m) for m in normal_monomials(A)}
    assert [m for m in A._memo if m not in normal] == [code(A, (2, 2, 0))]
    # every rule of a trivial P2 tower is zero, z^3 = 0 included
    T = make_tower(P2(), [0, 0, 0])
    h, z = T.from_terms({(1, 0): 1}), T.from_terms({(0, 1): 1})
    for prod in (h * h * h, z * z * z, h * h * z * z * z, (h * z) * (h * h)):
        assert prod.is_zero() and prod.degree is None
    # C0^2 f^2 is zero by f^2 = 0 also where the rewriting of z^4 meets
    # it, so the memo does not depend on which of the two came first
    F0 = Fe(0)
    pt = F0.from_terms({F0.top_monomial: 1})
    first, second = (chern_tower(Fe(0), 2, [F0.zero(), pt]) for _ in range(2))
    for A, order in ((first, [(0, 0, 4), (2, 2, 0)]), (second, [(2, 2, 0), (0, 0, 4)])):
        for m in order:  # both above dim 3, so past from_terms
            A._monomial(code(A, m))
    assert first._memo == second._memo


@pytest.mark.parametrize("e", [0, 3])
def test_c0_squared_agrees_with_the_oracle(e):
    # F_0 states C0^2 = 0 C0 f, a rule with a right side, so its monomials
    # take the rewriting path; F_3's rule does not vanish
    B = Fe(e)
    A = make_tower(Fe(e), [B.gen("C0") + B.gen("f"), 0, 0])
    for expo in [(2, 0, 0), (2, 0, 1), (2, 1, 0), (3, 0, 2), (2, 0, 3), (4, 0, 1)]:
        x = A.from_terms({expo: 1})
        for seed in (0, 17):
            assert x.terms == oracle_reduce(A, [(expo, 1)], seed=seed)
    assert Fe(0).from_terms({(2, 0): 1}).is_zero()
    assert (B.gen("C0") * B.gen("C0")).terms == ({(1, 1): -3} if e else {})


def test_oracle_disagrees_with_a_wrong_relation():
    # sanity check that the oracle has teeth: mutate the Grothendieck rule
    # via a tower with a wrong Chern class and observe a different integral
    B2 = P2()
    h = B2.gen("h")
    good = make_tower(P2(), [2 * h, h, 0, 0])  # c1 = 3h, c2 = 2h^2
    bad = chern_tower(P2(), 4, [3 * h, B2.zero()])  # same c1, c2 dropped
    mono = (0, 5)  # z^5 over the generators (h, z)
    assert oracle_integrate(good, [(mono, 1)]) == 7
    assert oracle_integrate(bad, [(mono, 1)]) == 9


# -- powers of z against the Segre series ------------------------------------


def segre_classes(A):
    """s_0 .. s_dim(B) of V on A's base, from its stored Chern classes:
    sum_k s_k t^k inverts 1 - c_1 t + c_2 t^2 - ..., term by term."""
    B, c = A.base, A.cherns
    s = [B.one()]
    for k in range(1, B.dim + 1):
        s_k = B.zero()
        for i in range(1, min(k, len(c)) + 1):
            term = c[i - 1] * s[k - i]
            s_k = s_k + term if i % 2 == 1 else s_k - term
        s.append(s_k)
    return s


def assert_z_powers_match_segre(A):
    """pi_*(z^(r-1+k)) = s_k (Fulton 3.1): the integral of pi^*b z^(r-1+k)
    is that of b s_k on the base, for every normal monomial b of
    complementary degree; and every z^N with N >= r + dim B is zero."""
    B, r = A.base, A.rank
    z_at = fields(A).index(B.nvars)  # z's field is just above the base's

    def z_power(n):
        return A.from_terms({tuple(n if i == z_at else 0 for i in range(A.nvars)): 1})

    s = segre_classes(A)
    for k in range(B.dim + 1):
        zk = z_power(r - 1 + k)
        for b in normal_monomials(B):
            if sum(b) == B.dim - k:
                bb = B.from_terms({b: 1})
                assert integrate(A.pullback(bb) * zk) == integrate(bb * s[k])
    for n in [*range(r + B.dim, r + B.dim + 4), 5000]:
        assert z_power(n).is_zero()
        assert (A.gen(A.gen_names[z_at]) ** n).is_zero()


@pytest.mark.parametrize("idx", range(len(ZOO)), ids=[repr(a) for a in ZOO])
def test_z_powers_match_the_segre_series(idx):
    assert_z_powers_match_segre(ZOO[idx])


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_random_z_powers_match_the_segre_series(data):
    # over P^N a power of z walks up to N steps of the Grothendieck rule
    towers = st.one_of(random_towers(), towers_over_projective_space())
    A = data.draw(towers)
    assert_z_powers_match_segre(A)
    x, y = (A.from_terms(data.draw(raw_classes(A))) for _ in range(2))
    assert_views_round_trip(A, [x, y, x * y])


# -- random towers under hypothesis ------------------------------------------


def _monomial(draw, nvars, degree):
    """An exponent tuple of the given degree over nvars generators."""
    expo = [0] * nvars
    for g in draw(st.lists(st.integers(0, nvars - 1), min_size=degree, max_size=degree)):
        expo[g] += 1
    return tuple(expo)


def _tower_over(draw, B, rank):
    """A split or a Chern-data tower of this rank over B, small coefficients."""
    small = st.integers(-5, 5)
    if draw(st.booleans()):
        units = [tuple(int(i == g) for i in range(B.nvars)) for g in range(B.nvars)]
        twists = [
            B.from_terms({u: draw(small) for u in units}) for _ in range(rank)
        ]
        return make_tower(B, twists)
    cherns = []
    for i in range(1, min(rank, B.dim) + 1):
        raw = {}
        for _ in range(draw(st.integers(0, 3))):
            mono = _monomial(draw, B.nvars, i)
            raw[mono] = raw.get(mono, 0) + draw(small)
        cherns.append(B.from_terms(raw))
    return chern_tower(B, rank, cherns)


@st.composite
def random_towers(draw):
    """A tower of rank 2..8 over a named base (F_e up to e = 20), or over a
    stack: one or two towers of rank 2 or 3 over the point or over P1."""
    kind = draw(st.sampled_from(["P1", "P2", "P1xP1", "Fe", "P1xP2", "stack"]))
    if kind == "stack":
        base = draw(st.sampled_from([Base("pt"), P1()]))
        for _ in range(draw(st.integers(1, 2))):
            base = _tower_over(draw, base, draw(st.integers(2, 3)))
    else:
        base = Fe(draw(st.integers(0, 20))) if kind == "Fe" else Base(kind)
    return _tower_over(draw, base, draw(st.integers(2, 8)))


@st.composite
def towers_over_projective_space(draw):
    """A tower of rank 2..8 over P^N, N = 3..10: kept out of `random_towers`,
    where the brute-force oracle would pay for the high dimension."""
    base = make_tower(Base("pt"), [0] * (draw(st.integers(3, 10)) + 1))
    return _tower_over(draw, base, draw(st.integers(2, 8)))


@st.composite
def raw_classes(draw, A):
    """Raw homogeneous terms on A, of degree up to dim A or up to 6 * rank.

    Every term carries base degree at most 4, so the z-exponent is close
    to the degree: up to the top of the ring, or up to six times the rank.
    """
    nb = A.nvars - 1
    degree = draw(st.one_of(st.integers(0, A.dim), st.integers(A.dim + 1, 6 * A.rank)))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        base_degree = draw(st.integers(0, min(degree, 4)))
        mono = _monomial(draw, nb, base_degree) + (degree - base_degree,)
        terms[mono] = terms.get(mono, 0) + draw(st.integers(-9, 9))
    return terms


def assert_views_round_trip(A, classes):
    """The tuple views at the engine's edges: each class's `terms` has
    int-tuple keys below the caps and rebuilds the class by `from_terms`,
    and every rule that `relations()` hands the oracle is over int tuples
    of A's length."""
    caps = caps_of(A)
    for x in classes:
        for expo in x.terms:
            assert type(expo) is tuple and len(expo) == A.nvars
            assert all(type(k) is int and 0 <= k < cap for k, cap in zip(expo, caps))
        assert A.from_terms(x.terms) == x
    for lhs, rhs in A.relations():
        for expo in (lhs, *(e for e, _ in rhs)):
            assert type(expo) is tuple and len(expo) == A.nvars
            assert all(type(k) is int and k >= 0 for k in expo)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_random_towers_match_oracle(data):
    A = data.draw(random_towers())
    # no stored rule carries a term with coefficient 0
    assert all(c != 0 for _, rhs in A.relations() for _, c in rhs)
    raw_x = data.draw(raw_classes(A))
    raw_y = data.draw(raw_classes(A))
    seed = data.draw(st.integers(0, 999))
    x = A.from_terms(raw_x)
    y = A.from_terms(raw_y)
    assert x.terms == oracle_reduce(A, list(raw_x.items()), seed=seed)
    assert y.terms == oracle_reduce(A, list(raw_y.items()), seed=seed + 1)
    assert (x * y).terms == oracle_mul(
        A, list(x.terms.items()), list(y.terms.items()), seed=seed + 2
    )
    assert_views_round_trip(A, [x, y, x * y])


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_normal_data_and_pullbacks_match_the_oracle(data):
    # from_terms of normal monomials and every pullback skip the rewrite:
    # each must still be the sum of its unit monomials and the oracle's form
    A = data.draw(random_towers())
    seed = data.draw(st.integers(0, 999))
    degree = data.draw(st.integers(0, A.dim))
    pool = [m for m in normal_monomials(A) if sum(m) == degree]
    chosen = data.draw(st.lists(st.sampled_from(pool), max_size=4, unique=True))
    terms = {m: data.draw(st.integers(-3, 3)) for m in chosen}  # zeros included
    x = A.from_terms(terms)
    units = sum((c * A.from_terms({m: 1}) for m, c in terms.items()), A.zero())
    assert x == units and x.terms == oracle_reduce(A, list(terms.items()), seed=seed)
    assert 0 not in x.terms.values() and x.degree == (degree if x.terms else None)
    # a raw class of the base, up to one degree past its top; the tower
    # prints its base's generators, then z
    B = A.base
    degree = data.draw(st.integers(0, B.dim + 1))
    raw = {}
    for _ in range(data.draw(st.integers(1, 3))):
        mono = _monomial(data.draw, B.nvars, degree)
        raw[mono] = raw.get(mono, 0) + data.draw(st.integers(-9, 9))
    y = B.from_terms(raw)
    pulled = A.pullback(y)
    units = sum((c * A.from_terms({m + (0,): 1}) for m, c in y.terms.items()), A.zero())
    assert pulled == units and pulled.degree == y.degree
    want = oracle_reduce(A, [(m + (0,), c) for m, c in raw.items()], seed=seed + 1)
    assert pulled.terms == want


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_shared_monomial_products_match_oracle(data):
    # unit monomial products and one-term from_terms calls hand out the
    # memo's elements: each product matches the oracle, and no later
    # product, sum, negation or from_terms call changes what was handed out
    A = data.draw(random_towers())
    mons = [m for _ in range(2) for m in data.draw(raw_classes(A))][:4]
    seed = data.draw(st.integers(0, 999))
    handed = []
    for m1 in mons:
        for m2 in mons:
            x, y = A.from_terms({m1: 1}), A.from_terms({m2: 1})
            prod = x * y
            assert prod.terms == oracle_mul(
                A, list(x.terms.items()), list(y.terms.items()), seed=seed
            )
            handed += [x, y, prod]
    before = [(dict(x.terms), x.degree) for x in handed]
    for x in handed:
        -x
        x + x
        x * (-2 * x)
        A.from_terms({m: -2 for m in x.terms})
    assert [(x.terms, x.degree) for x in handed] == before


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_ring_identity_does_not_depend_on_the_constructor(data):
    # every tower stores c_1 .. c_min(r, dim B), whichever constructor
    # built it, so its Chern data rebuilds the same ring with one hash
    A = data.draw(random_towers())
    assert len(A.cherns) == min(A.rank, A.base.dim)
    given_cherns = chern_tower(A.base, A.rank, A.cherns)
    assert given_cherns == A and A == given_cherns
    assert hash(given_cherns) == hash(A)
    # over the point nothing is stored, split or from empty Chern data
    pt = Base("pt")
    assert make_tower(pt, [0] * A.rank).cherns == () == chern_tower(pt, A.rank, []).cherns


def rebuild(A):
    """A fresh ambient equal to A, whose memo holds only the normal monomials."""
    if A.twists:
        return make_tower(A.base, A.twists)
    return chern_tower(A.base, A.rank, A.cherns)


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_memo_holds_only_normal_forms(data):
    # whatever the ambient has met, by products and by from_terms, each
    # memo value lists monomials below the caps with nonzero coefficients
    A = data.draw(random_towers())
    classes = [A.from_terms(data.draw(raw_classes(A))) for _ in range(3)]
    for x in classes:
        for y in classes:
            x * y
            # and a unit monomial times a scaled one, on the general path
            for m1 in list(x.terms)[:3]:
                for m2 in list(y.terms)[:3]:
                    A.from_terms({m1: 1}) * A.from_terms({m2: -2})
    caps = caps_of(A)
    for nf in A._memo.values():
        for expo, coeff in nf.terms.items():
            assert all(k < cap for k, cap in zip(expo, caps)) and coeff != 0


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_memo_monomials_carry_their_exponent(data):
    # the product's fast path trusts `mono`: a memo element carries it
    # exactly when it is the normal monomial {mono: 1} of its own key
    A = data.draw(random_towers())
    mons = [tuple(int(i == g) for i in range(A.nvars)) for g in range(A.nvars)]
    for _ in range(3):
        mons += list(A.from_terms(data.draw(raw_classes(A))).terms)[:4]
    for m1 in mons:
        for m2 in mons:
            A.from_terms({m1: 1}) * A.from_terms({m2: 1})
    caps = caps_of(A)
    hinted = 0
    for key, nf in A._memo.items():
        expo = exponents(A, key)
        if all(k < cap for k, cap in zip(expo, caps)):
            assert nf.mono == key
        if nf.mono is not None:
            hinted += 1
            mono = exponents(A, nf.mono)
            assert nf.terms == {mono: 1} and nf.degree == sum(mono)
            assert nf.ambient is A
    assert hinted >= A.nvars


# -- the memo is filled at construction ---------------------------------------


def fresh_fill(A):
    """A's memo on a fresh A: exactly its normal monomials, each as itself.

    Handing out a unit monomial, by `gen`, `one`, `point`, `zeta` or a
    one-term `from_terms` of a normal monomial, adds nothing to it.
    """
    mons = normal_monomials(A)
    fill = [code(A, m) for m in mons]
    assert list(A._memo) == fill
    for m, (key, nf) in zip(mons, A._memo.items()):
        assert nf.mono == key and nf.terms == {m: 1} and nf.degree == sum(m)
        assert nf.ambient is A
    handed = [A.gen(g) for g in A.gen_names] + [A.one(), A.point()]
    handed += [A.zeta] if "z" in A.gen_names else []
    handed += [A.from_terms({m: 1}) for m in mons]
    assert len(A._memo) == len(fill)
    assert all(x is A._memo[x.mono] for x in handed)
    return dict(A._memo)


def assert_fill_kept(A, fill):
    """The filled elements are still A's and unchanged, and every key
    the memo gained since is a monomial at or over some cap."""
    caps = caps_of(A)
    assert all(A._memo[m] is nf and nf._terms == {m: 1} for m, nf in fill.items())
    beyond = [m for m in A._memo if m not in fill]
    for m in beyond:
        assert not all(k < cap for k, cap in zip(exponents(A, m), caps))
        assert A._memo[m].mono is None
    return beyond


@pytest.mark.parametrize("base", [P1(), P2(), P1xP1(), Fe(0), Fe(3), P1xP2()], ids=repr)
def test_every_base_memo_is_filled_at_construction(base):
    # a named base is one ambient per kind, e and process, which other
    # tests have used: the fresh ring is built past its cache
    A = chow._named.__wrapped__(base.kind, base.e)
    fill = fresh_fill(A)
    rng = random.Random(repr(base))
    for _ in range(40):
        x, y = (
            A.from_terms(
                {random_monomial(rng, A.nvars, rng.randrange(A.dim + 2)): rng.choice([1, -2])}
            )
            for _ in range(2)
        )
        x * y
    # the products met monomials beyond the fill, none of them normal
    assert assert_fill_kept(A, fill)
    assert_fill_kept(base, {m: base._memo[m] for m in fill})


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_every_tower_memo_is_filled_at_construction(data):
    A = data.draw(random_towers())
    fill = fresh_fill(A)
    classes = [A.from_terms(data.draw(raw_classes(A))) for _ in range(3)]
    for x in classes:
        for y in classes:
            x * y
            for m1 in list(x.terms)[:3]:
                for m2 in list(y.terms)[:3]:
                    A.from_terms({m1: 1}) * A.from_terms({m2: 1})
                    A.from_terms({m1: 1}) * A.from_terms({m2: -2})
    assert_fill_kept(A, fill)


def test_one_shape_shares_its_unit_terms_and_nothing_else():
    # equal caps (2, 2, 4) from different twists, bases and builders: the
    # unit terms dicts are the same objects, every element is the ring's own
    B0, B7 = Fe(0), Fe(7)
    C0, f = B0.gen("C0"), B0.gen("f")
    A = make_tower(Fe(0), [C0, f, C0 + 2 * f, 0])
    A2 = chern_tower(Fe(7), 4, [B7.gen("f") - B7.gen("C0"), B7.from_terms({B7.top_monomial: 1})])
    assert A._caps == A2._caps and A != A2
    fill, fill2 = fresh_fill(A), fresh_fill(A2)
    for m, nf in fill.items():
        nf2 = fill2[m]
        assert nf._terms is nf2._terms and nf is not nf2
        assert nf.ambient is A and nf2.ambient is A2
    # products on one ring, rewritten or not, leave the other's memo as it was
    x = A.zeta + A.pullback(C0)
    for n in range(1, 9):
        x**n * A.zeta
        A.from_terms({(1, 1, 3): 1}) * A.from_terms({(0, 1, n): -2})
    assert len(A._memo) > len(fill)
    assert A2._memo == fill2 and list(A2._memo) == list(fill2)
    assert all(A2._memo[m] is nf and nf._terms == {m: 1} for m, nf in fill2.items())
    # a tower of another rank has other unit terms
    A5 = make_tower(Fe(0), [C0, f, C0 + 2 * f, 0, 0])
    fresh_fill(A5)
    ours = {id(nf._terms) for nf in fill.values()}
    assert not ours & {id(nf._terms) for nf in A5._memo.values()}


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_memo_fill_order_does_not_change_normal_forms(data):
    A = data.draw(random_towers())
    # monomials of up to four degrees, normal ones and ones to rewrite
    rounds = data.draw(st.integers(1, 4))
    mons = [m for _ in range(rounds) for m in data.draw(raw_classes(A))]
    seed = data.draw(st.integers(0, 999))
    first, second = rebuild(A), rebuild(A)
    assert first == second == A and first._memo == second._memo
    fill = [code(A, m) for m in normal_monomials(A)]
    assert list(first._memo) == list(second._memo) == fill
    forward = [first.from_terms({m: 1}).terms for m in mons]
    backward = [second.from_terms({m: 1}).terms for m in reversed(mons)][::-1]
    assert forward == backward
    assert first._memo == second._memo
    for m, terms in zip(mons, forward):
        assert terms == oracle_reduce(A, [(m, 1)], seed=seed)


class WriteOnce(dict):
    """A memo that refuses to write a key it already holds."""

    def __setitem__(self, key, value):
        if key in self:
            raise AssertionError(f"memo key {key} written twice")
        super().__setitem__(key, value)


def test_a_monomial_pushed_twice_is_rewritten_once():
    # rewriting D^6 on this three-level stack pushes one monomial a second
    # time before its first copy is resolved; the later copy is skipped,
    # so no memo key is written twice
    A0 = make_tower(Base("pt"), [0, 0, 0])
    z = A0.gen("z")
    A1 = make_tower(A0, [-2 * z, -z, z])
    z1, z = A1.gen("z1"), A1.gen("z")
    A2 = make_tower(A1, [2 * z1 - z, z1 - z, z])
    assert A2.gen_names == ("z1", "z2", "z")
    for A in (A0, A1, A2):
        A._memo = WriteOnce(A._memo)
    D = -2 * A2.gen("z") - A2.gen("z2")
    assert integrate(D**6) == 1340
    # D^6 = sum C(6, k) (-2z)^k (-z2)^(6 - k), term by term for the oracle
    raw = [((0, 6 - k, k), math.comb(6, k) * (-2) ** k * (-1) ** (6 - k)) for k in range(7)]
    assert oracle_integrate(A2, raw) == 1340
