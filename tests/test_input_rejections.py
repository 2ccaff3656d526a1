"""Every layer refuses input it cannot mean: one case per rejection the
rest of the suite never reaches, each with the error it must raise."""

import pytest

from delpezzo import (
    Base,
    Fe,
    P1,
    P2,
    adjunction,
    chern_tower,
    make_tower,
    polarized_degree,
)
from delpezzo.bundles import twist_rank2
from delpezzo.enumeration import FamilyCandidate, model_values

h = P2().gen("h")
F = P1().gen("F")  # a class on another base than P2
T = make_tower(P2(), [h, 0])
OTHER = make_tower(P2(), [0, 0])  # another ring over the same base


def _candidate(dim, degree):
    return FamilyCandidate(kind="k", dim=dim, degree=degree, picard=1, data=())


REJECTIONS = {
    "unknown-base": (lambda: Base("P3"), ValueError, "unsupported base kind 'P3'"),
    "e-off-Fe": (lambda: Base("P2", 1), ValueError, "only applies to Hirzebruch"),
    "negative-e": (lambda: Fe(-1), ValueError, "must be >= 0"),
    "unknown-gen": (lambda: T.gen("w"), ValueError, "no generator 'w'"),
    "zeta-on-base": (
        lambda: P2().zeta, ValueError, "no tautological class"
    ),
    "point-of-the-point": (
        lambda: Base("pt").point(), ValueError, "the point has no base"
    ),
    "pullback-other-base": (
        lambda: T.pullback(F), ValueError, "class on this tower's base"
    ),
    "twist-other-base": (
        lambda: make_tower(P2(), [F, 0]), ValueError, "does not live on the base"
    ),
    "chern-other-base": (
        lambda: chern_tower(P2(), 2, [F]), ValueError, "c1 must be a class on the base"
    ),
    "adjunction-other-ambient": (
        lambda: adjunction(T, OTHER.zeta), ValueError, "does not live on this ambient"
    ),
    "degree-other-ambient": (
        lambda: polarized_degree(T, OTHER.zeta, T.zeta),
        ValueError,
        "do not live on this ambient",
    ),
    "degree-non-divisor": (
        lambda: polarized_degree(T, T.zeta * T.zeta, T.zeta),
        ValueError,
        "needs divisor classes",
    ),
    "twist-of-degree-2": (
        lambda: twist_rank2(chern_tower(P2(), 2, [-1 * h]), h * h),
        ValueError,
        "twist divisor has degree 2, expected 1",
    ),
    "candidate-degree-0": (
        lambda: _candidate(3, 0), ValueError, "candidate degree must be >= 1"
    ),
    "candidate-dim-2": (
        lambda: _candidate(2, 1), ValueError, "candidate dimension must be >= 3"
    ),
    "weighted-indivisible": (
        lambda: model_values("weighted", (5, (1, 1, 1, 2, 3))),
        ArithmeticError,
        "weighted degree 5 not divisible by 6",
    ),
    "weighted-zero-weight": (
        lambda: model_values("weighted", (6, (0, 1, 1, 2, 3))),
        ValueError,
        "weights must be positive",
    ),
    "class-plus-int": (lambda: h + 1, TypeError, "unsupported operand"),
}


@pytest.mark.parametrize(
    "call, error, message", REJECTIONS.values(), ids=list(REJECTIONS)
)
def test_bad_input_is_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()
