"""Closed-form bundle formulas over data the program already holds:
section counts of a split bundle on P1 from its tuple of twists, rank-2
Riemann-Roch and twists on a rational surface S from the Chern-data
tower P(F) -> S, and blow-up degree bookkeeping.  The module defines no
type: a split bundle is its int tuple and a rank-2 bundle is its tower."""

from __future__ import annotations

from .chow import (
    Ambient,
    ChowElement,
    canonical_class,
    chern_tower,
    integrate,
)


def h0_split(a: tuple[int, ...]) -> int:
    """h^0(P1, O(a_1) + ... + O(a_r))."""
    return sum(max(ai + 1, 0) for ai in a)


def h1_split(a: tuple[int, ...]) -> int:
    """h^1(P1, O(a_1) + ... + O(a_r)); positive iff some a_i <= -2."""
    return sum(max(-ai - 1, 0) for ai in a)


def _rank2_cherns(A: Ambient) -> tuple[ChowElement, ChowElement]:
    """(c1, c2) of F for A = P(F), F of rank 2 on a surface.

    A tower of another rank or over a base of another dimension stores
    other classes (a rank-3 tower over a surface also stores two), so
    it is refused rather than read as if it were one.
    """
    if A.rank != 2 or A.base.dim != 2:
        raise ValueError(f"{A!r} is not P(F) for a rank-2 bundle F on a surface")
    return A.cherns


def chi_rank2(A: Ambient) -> int:
    """chi(F) = 2 + (c1^2 - c1.K_S)/2 - c2 on a rational surface, A = P(F)."""
    c1, c2 = _rank2_cherns(A)
    c1sq = integrate(c1 * c1)
    c1k = integrate(c1 * canonical_class(A.base))
    if (c1sq - c1k) % 2 != 0:
        raise ArithmeticError(
            f"parity violation in Riemann-Roch: c1^2 - c1.K = {c1sq - c1k} is odd"
        )
    return 2 + (c1sq - c1k) // 2 - integrate(c2)


def twist_rank2(A: Ambient, M: ChowElement) -> Ambient:
    """P(F(M)) for A = P(F): F tensor O(M) has c1 + 2M and c2 + c1.M + M^2."""
    c1, c2 = _rank2_cherns(A)
    if not isinstance(M, ChowElement) or M.ambient != A.base:
        raise ValueError("twist divisor must live on the same surface")
    if not M.is_zero() and M.degree != 1:
        raise ValueError(f"twist divisor has degree {M.degree}, expected 1")
    return chern_tower(A.base, 2, [c1 + 2 * M, c2 + c1 * M + M * M])


def blowup_degree(n: int, d: int) -> int:
    """(H')^n = H^n - 1 after blowing up a point of an n-fold of degree d."""
    for what, value in (("dimension", n), ("degree", d)):
        if type(value) is not int:
            raise ValueError(f"{what} must be an int, got {value!r}")
    if n < 3:
        raise ValueError("blow-up bookkeeping starts at dimension 3")
    if d <= 0:
        raise ValueError(f"degree must be positive, got {d}")
    return d - 1


def blowup_chain(n: int, d: int) -> tuple[int, ...]:
    """Degrees after each successive admissible point blow-up from degree d.

    Each step needs degree >= 2 (the resulting anticanonical class must
    stay big), so a chain from degree d has exactly d - 1 steps, down to 1.
    """
    blowup_degree(n, d)
    return tuple(range(d - 1, 0, -1))
