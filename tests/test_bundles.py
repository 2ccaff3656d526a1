"""Tests for split-bundle section counts, rank-2 Riemann-Roch and twists.

A split bundle on P1 is its tuple of twists and a rank-2 bundle F on a
surface is its Chern-data tower P(F).  twist_rank2 is checked against a
splitting-principle oracle: build an actually split rank-2 bundle
O(A) + O(B), twist the summands directly, and compare the tower of the
twisted summands with the closed formula under test.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delpezzo import (
    P1,
    Fe,
    P1xP1,
    P1xP2,
    P2,
    chern_tower,
    integrate,
    make_tower,
)
from delpezzo import bundles
from delpezzo.bundles import (
    blowup_chain,
    blowup_degree,
    chi_rank2,
    h0_split,
    h1_split,
    twist_rank2,
)

coeffs = st.integers(min_value=-4, max_value=4)

SURFACES = [P2(), P1xP1(), Fe(0), Fe(1), Fe(2)]


def divisor(surface, cs):
    out = surface.zero()
    for c, name in zip(cs, surface.gen_names):
        out = out + c * surface.gen(name)
    return out


def rank2(surface, c1, c2):
    """P(F) for F of rank 2 on the surface with these c1 and c2 points."""
    return chern_tower(surface, 2, [c1, c2 * surface.from_terms({surface.top_monomial: 1})])


# -- split bundles on P1 ---------------------------------------------------


def test_h0_h1_frozen_values():
    assert h0_split((0, 0, 0, 0)) == 4
    assert h1_split((0, 0, 0, 0)) == 0
    assert h0_split((0, 1, 1, 1)) == 7
    assert h1_split((-2, 0, 0, 0)) == 1
    assert h0_split((-1, 0, 0, 1)) == 4
    assert h0_split((-1, 0, 0, 0)) == 3


@given(st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_riemann_roch_on_p1(a):
    a = tuple(a)
    assert h0_split(a) - h1_split(a) == sum(a) + len(a)


# -- rank-2 Riemann-Roch ---------------------------------------------------


def test_chi_rank2_frozen_values():
    B = P2()
    h = B.gen("h")
    assert chi_rank2(rank2(P2(), B.zero(), 0)) == 2
    for k in range(2, 6):
        assert chi_rank2(rank2(P2(), 3 * h, k + 2)) == 9 - k
    # the degree-5 case: chi = h^0 = d + 2 = 7
    assert chi_rank2(rank2(P2(), 3 * h, 4)) == 7


def test_chi_rank2_refuses_an_odd_riemann_roch_numerator(monkeypatch):
    # c1^2 - c1.K is even on a surface; with K planted off by h on P2 it
    # is 9 + 6 = 15 for c1 = 3h, and chi is refused rather than rounded
    real = bundles.canonical_class
    monkeypatch.setattr(bundles, "canonical_class", lambda S: real(S) + S.gen("h"))
    with pytest.raises(ArithmeticError, match=r"c1\^2 - c1\.K = 15 is odd"):
        chi_rank2(rank2(P2(), 3 * P2().gen("h"), 4))


def test_rank2_degree_is_c1sq_minus_c2():
    # c1^2 - c2 is the oracle for the tower's degree z^3
    A = rank2(P2(), 3 * P2().gen("h"), 4)
    assert integrate(A.zeta**3) == 5
    for surface in [P1xP1(), Fe(2)]:
        minus_k = divisor(surface, (2, 2) if surface.kind == "P1xP1" else (2, 4))
        assert integrate(minus_k * minus_k) == 8
        for c2 in range(8):
            assert integrate(rank2(surface, minus_k, c2).zeta ** 3) == 8 - c2


@pytest.mark.parametrize("c2", [2.5, True, 1.0])
def test_rank2_data_rejects_non_int_c2(c2):
    # c2 enters a tower as c2 points, and a class takes only int multiples:
    # 2.5 would give degree 6.5 on P2 with c1 = 3h, and True would act as 1
    h = P2().gen("h")
    with pytest.raises(TypeError):
        rank2(P2(), 3 * h, c2)


def test_rank2_formulas_refuse_other_ambients():
    # a rank-3 tower over a surface also stores two Chern classes, and
    # would otherwise get a wrong chi without a word
    h = P2().gen("h")
    others = [
        chern_tower(P2(), 3, [3 * h]),
        chern_tower(P1xP2(), 2, []),
        make_tower(P1(), [0, 1]),
        P2(),
    ]
    for A in others:
        for formula in (chi_rank2, lambda A: twist_rank2(A, h)):
            with pytest.raises(ValueError, match=r"not P\(F\) for a rank-2 bundle F"):
                formula(A)


# -- twists ----------------------------------------------------------------


def test_twist_frozen_values():
    Bq = P1xP1()
    f1, f2 = Bq.gen("f1"), Bq.gen("f2")
    Am = twist_rank2(rank2(P1xP1(), 2 * f1 + 2 * f2, 1), -1 * f1 - 2 * f2)
    c1, c2 = Am.cherns
    assert integrate(c2) == -1
    assert str(c1) == "-2*f2"

    B2 = P2()
    h = B2.gen("h")
    for k in range(2, 6):
        At = twist_rank2(rank2(P2(), -1 * h, k), 2 * h)
        assert At == rank2(P2(), 3 * h, k + 2)
        assert str(At.cherns[0]) == "3*h"
        assert integrate(At.cherns[1]) == k + 2


def test_twist_by_zero_is_identity():
    B = Fe(1)
    A = rank2(Fe(1), 2 * B.gen("C0") + 3 * B.gen("f"), 5)
    assert twist_rank2(A, B.zero()) == A


def test_twist_rejects_wrong_surface():
    B2 = P2()
    Bq = P1xP1()
    A = rank2(P2(), 3 * B2.gen("h"), 1)
    with pytest.raises(ValueError, match="same surface"):
        twist_rank2(A, Bq.gen("f1"))


@pytest.mark.parametrize("surface", SURFACES, ids=repr)
@given(a=st.tuples(coeffs, coeffs), b=st.tuples(coeffs, coeffs), m=st.tuples(coeffs, coeffs))
@settings(max_examples=60, deadline=None)
def test_twist_matches_splitting_principle_oracle(surface, a, b, m):
    A = divisor(surface, a)
    B = divisor(surface, b)
    M = divisor(surface, m)
    got = twist_rank2(make_tower(surface, [A, B]), M)
    # oracle: twist the split summands and read off Chern data directly
    assert got.cherns == ((A + M) + (B + M), (A + M) * (B + M))
    assert got == make_tower(surface, [A + M, B + M])


@pytest.mark.parametrize("surface", SURFACES, ids=repr)
@given(
    c=st.tuples(coeffs, coeffs),
    c2=st.integers(min_value=-9, max_value=9),
    m1=st.tuples(coeffs, coeffs),
    m2=st.tuples(coeffs, coeffs),
)
@settings(max_examples=60, deadline=None)
def test_twist_composes_additively(surface, c, c2, m1, m2):
    A = rank2(surface, divisor(surface, c), c2)
    M1, M2 = divisor(surface, m1), divisor(surface, m2)
    assert twist_rank2(twist_rank2(A, M1), M2) == twist_rank2(A, M1 + M2)


@given(c=st.tuples(coeffs, coeffs), c2=st.integers(min_value=-9, max_value=9))
@settings(max_examples=60, deadline=None)
def test_chi_commutes_with_twist_substitution(c, c2):
    # chi of F(2) computed directly equals chi applied to the twisted data
    h = P2().gen("h")
    A = rank2(P2(), divisor(P2(), c), c2)
    twisted = twist_rank2(A, 2 * h)
    assert chi_rank2(twisted) == chi_rank2(
        chern_tower(P2(), 2, [A.cherns[0] + 4 * h, twisted.cherns[1]])
    )


# -- blow-up bookkeeping ---------------------------------------------------


def test_blowup_degree_frozen_values():
    assert blowup_degree(3, 8) == 7
    # the step from degree 1 leaves no positive degree, so no chain takes it
    assert blowup_degree(3, 1) == 0
    assert blowup_chain(3, 1) == ()
    assert blowup_degree(4, 5) == 4
    assert type(blowup_degree(3, 8)) is int


def test_blowup_degree_rejections():
    with pytest.raises(ValueError, match="positive"):
        blowup_degree(3, 0)
    with pytest.raises(ValueError, match="positive"):
        blowup_degree(4, -2)
    with pytest.raises(ValueError, match="dimension 3"):
        blowup_degree(2, 5)
    for d in (0, -2):
        with pytest.raises(ValueError, match="positive"):
            blowup_chain(3, d)


@pytest.mark.parametrize(
    "n,d", [(3, 2.5), (3.0, 4), (3, 4.0), (True, 4), (3, True), (3, 1.0)]
)
def test_blowup_degree_rejects_non_int(n, d):
    # (3, 2.5) would give degree 1.5; a chain from True or 1.0 takes no
    # step, yet is refused before it is built
    for blowup in (blowup_degree, blowup_chain):
        with pytest.raises(ValueError, match="must be an int"):
            blowup(n, d)


@given(d=st.integers(min_value=1, max_value=30))
@settings(max_examples=40, deadline=None)
def test_blowup_chain_has_d_minus_1_steps(d):
    chain = blowup_chain(3, d)
    assert len(chain) == d - 1
    assert chain == tuple(range(d - 1, 0, -1))
