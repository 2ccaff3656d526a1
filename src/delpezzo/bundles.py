"""Closed-form bundle arithmetic: section counts of split bundles on P1,
rank-2 Riemann-Roch on rational surfaces, Chern-class twist formulas, and
blow-up degree bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .chow import Base, ChowElement, base_space, canonical_base_class, integrate


@dataclass(frozen=True)
class SplitBundle:
    """O(a_1) + ... + O(a_r) on P1, stored with a_1 <= ... <= a_r."""

    a: tuple[int, ...]

    def __init__(self, a: Iterable[int]):
        entries = tuple(a)
        if not entries:
            raise ValueError("a split bundle needs rank >= 1")
        for x in entries:
            if type(x) is not int:
                raise ValueError(f"split-bundle entries must be ints, got {x!r}")
        object.__setattr__(self, "a", tuple(sorted(entries)))

    @property
    def rank(self) -> int:
        return len(self.a)

    @property
    def degree(self) -> int:
        return sum(self.a)

    def __str__(self):
        return "(" + ", ".join(str(x) for x in self.a) + ")"


def h0_split(E: SplitBundle) -> int:
    """h^0(P1, E) for split E."""
    return sum(max(ai + 1, 0) for ai in E.a)


def h1_split(E: SplitBundle) -> int:
    """h^1(P1, E) for split E; positive iff some a_i <= -2."""
    return sum(max(-ai - 1, 0) for ai in E.a)


@dataclass(frozen=True)
class Rank2Data:
    """Chern data (c1, c2) of a rank-2 bundle on one of the surfaces."""

    surface: Base
    c1: ChowElement
    c2: int

    def __post_init__(self):
        if self.surface.dim != 2:
            raise ValueError(f"{self.surface!r} is not a supported surface")
        B = base_space(self.surface)
        if not isinstance(self.c1, ChowElement) or self.c1.ambient != B:
            raise ValueError("c1 must be a divisor class on the surface")
        if not self.c1.is_zero() and self.c1.degree != 1:
            raise ValueError(f"c1 has degree {self.c1.degree}, expected 1")
        if type(self.c2) is not int:
            raise ValueError(f"c2 must be an int, got {self.c2!r}")

    @property
    def degree(self) -> int:
        """c1^2 - c2, the degree of the associated projective bundle."""
        return integrate(self.c1 * self.c1) - self.c2


def chi_rank2(D: Rank2Data) -> int:
    """chi(F) = 2 + (c1^2 - c1.K_S)/2 - c2 on a rational surface."""
    c1sq = integrate(D.c1 * D.c1)
    c1k = integrate(D.c1 * canonical_base_class(D.surface))
    if (c1sq - c1k) % 2 != 0:
        raise ArithmeticError(
            f"parity violation in Riemann-Roch: c1^2 - c1.K = {c1sq - c1k} is odd"
        )
    return 2 + (c1sq - c1k) // 2 - D.c2


def twist_rank2(D: Rank2Data, M: ChowElement) -> Rank2Data:
    """Chern data of F(M) = F tensor O(M): c1 + 2M and c2 + c1.M + M^2."""
    B = base_space(D.surface)
    if not isinstance(M, ChowElement) or M.ambient != B:
        raise ValueError("twist divisor must live on the same surface")
    if not M.is_zero() and M.degree != 1:
        raise ValueError(f"twist divisor has degree {M.degree}, expected 1")
    c1p = D.c1 + 2 * M
    c2p = D.c2 + integrate(D.c1 * M) + integrate(M * M)
    return Rank2Data(D.surface, c1p, c2p)


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
