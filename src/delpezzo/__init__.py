"""Exact intersection arithmetic, enumeration and verification for
almost del Pezzo manifolds: projective manifolds X of dimension n whose
anticanonical class is (n-1) H for a big and nef H.

The root loads nothing on import: `delpezzo.chow` and the names of
`__all__`, which come from it, load on first access, so a command that
never touches a ring never compiles the engine.  Other submodules are
attributes once imported, as in any package.
"""

from importlib import import_module

__all__ = [
    "Base",
    "P1",
    "P2",
    "P1xP1",
    "Fe",
    "P1xP2",
    "Ambient",
    "ChowElement",
    "make_tower",
    "chern_tower",
    "integrate",
    "canonical_class",
    "adjunction",
    "polarized_degree",
]


def __getattr__(name):
    if name == "chow" or name in __all__:
        chow = import_module(".chow", __name__)
        return chow if name == "chow" else getattr(chow, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
