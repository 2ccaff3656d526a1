"""Exact intersection arithmetic, enumeration and verification for
almost del Pezzo manifolds: projective manifolds X of dimension n whose
anticanonical class is (n-1) H for a big and nef H."""

from .chow import (
    Base,
    P1,
    P2,
    P1xP1,
    Fe,
    P1xP2,
    Ambient,
    ChowElement,
    base_space,
    make_tower,
    chern_tower,
    integrate,
    canonical_class,
    canonical_base_class,
    adjunction,
    polarized_degree,
)

__all__ = [
    "Base",
    "P1",
    "P2",
    "P1xP1",
    "Fe",
    "P1xP2",
    "Ambient",
    "ChowElement",
    "base_space",
    "make_tower",
    "chern_tower",
    "integrate",
    "canonical_class",
    "canonical_base_class",
    "adjunction",
    "polarized_degree",
]
