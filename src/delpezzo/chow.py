"""Exact Chow-ring arithmetic on projective bundles over small rational bases.

The ambient spaces are towers P(V) -> B where B is the point, P1, P2,
P1 x P1, a Hirzebruch surface F_e, or P1 x P2, and V is either a sum of
line bundles or a bundle with prescribed Chern classes.  The ring is the
quotient of Z[base generators, z] by the base relations and the
Grothendieck relation

    z^r = sum_{i >= 1} (-1)^(i+1) c_i(V) z^(r-i),

with z the relative hyperplane class.  Every element is kept in a unique
normal form (no reducible generator power, z-exponent < rank), so
equality is dictionary equality and integration of a top-degree class
reads off a single coefficient.  All coefficients are Python ints, hence
exact at any size.

The point, with no generators, is the only base stated by hand.  Every
other base is a tower over an earlier kind (Fulton, Intersection Theory,
3.2): P1 and P2 over the point, and P1 x P1, F_e and P1 x P2 over P1.
Its generators, their caps and rewrite rules, and K_B are read off that
tower and `canonical_class`, once per kind and e.

The left side of every rewrite rule is a pure power of one generator
(h^3, C0^2, z^r, ...), so the rules are indexed by generator: a monomial
is in normal form exactly when each exponent is below its generator's
cap.  Each ambient memoizes normal forms as elements of its ring, each
normal monomial as itself from construction on and every other one once
met, so a memo miss is always a monomial to rewrite.  The unit terms
{m: 1} and degrees of the normal monomials depend only on the caps, so
they are built once per shape and process (`_unit_monomials`) and shared
by every ambient of that shape, each wrapping them in its own elements.
Rewritten forms are filled from the rules' right sides without
recursion, a zero rule (gen^cap = 0) first, so a monomial that one
divides is zero in one step.

The memo is the one source of unit monomials: `gen`, `one`, `point`,
`zeta`, a one-term `from_terms` with coefficient 1, a pulled-back unit
monomial and a product of two unit monomials all hand out the memo's
element itself, which carries its exponent vector as `mono`; `gen` only
rewrites a generator whose cap is 1, so all four are lookups on every
supported base.  A product takes one of two paths.  Two such elements
of one ambient, the common case in pairing tables, cost one exponent
sum and one lookup.  Anything else costs one pass over its raw terms
and `_reduce`, one memo lookup per raw monomial, which `from_terms`
also uses for the sum it was given.

The memo lives and dies with its ambient; its elements point back at the
ambient, so a dropped ring is freed by the cyclic garbage collector.
Every tower is built anew, but each base has one plain ambient per
process (`base_space` is memoized by the base), so base classes built
anywhere find their common ring by identity.  A split tower of rank r
over B takes c(V) = prod (1 + L_j) truncated at dim(B), since the higher
elementary symmetric classes vanish on the base: the product is expanded
on the twists' raw terms and each c_i reduced once at the end, which is
exact because the normal form is a ring map, so the build runs no class
product or sum.

Two ambients are equal when they present the same ring: the same base,
rank and Chern classes.  Both constructors store c_1 .. c_d of V with
d = min(rank, dim B), the classes that need not vanish on the base, so
equality compares them as stored.  Twists are kept for display only, so
a split tower and a Chern-data tower with the same c(V) are one ring and
their classes mix.

Values are immutable after construction and all operations are pure
(the memo only caches), so one element may be handed out many times,
and one unit terms dict to every ambient of its shape: nothing writes to
the `terms` of an element once it is built.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from operator import add
from typing import Sequence

# the point: no generators, hence no caps, rule right sides or K_B terms
_BASES = {"pt": ((), (), (), ())}

# every other base as a tower over an earlier kind: that kind, each
# summand's twist as coefficients on 1, e, ... of F on P1 (0 over the
# point), and the generator names in printed order, each with the tower
# generator it names (on F_e, C0 = z and f = F)
_BASE_TOWERS = {
    "P1": ("pt", ((0,), (0,)), (("F", "z"),)),
    "P2": ("pt", ((0,), (0,), (0,)), (("h", "z"),)),
    "P1xP1": ("P1", ((0,), (0,)), (("f1", "F"), ("f2", "z"))),
    "Fe": ("P1", ((0,), (0, -1)), (("C0", "z"), ("f", "F"))),
    "P1xP2": ("P1", ((0,), (0,), (0,)), (("p", "F"), ("h", "z"))),
}

# exponent-vector sum per number of generators (a plain base has none to
# two, a tower one more), unrolled: about a third of the cost of
# tuple(map(add, a, b)) on the product hot path
_EXPONENT_SUM = {
    0: lambda a, b: (),
    1: lambda a, b: (a[0] + b[0],),
    2: lambda a, b: (a[0] + b[0], a[1] + b[1]),
    3: lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]),
}


class Base:
    """The point or a base of `_BASE_TOWERS`, identified by kind (and e for F_e).

    The top monomial (each cap less one) integrates to 1; `dim` is its degree.
    """

    __slots__ = ("kind", "e", "gens", "caps", "rhss", "dim", "top_monomial")

    def __init__(self, kind: str, e: int = 0):
        if kind not in _BASES and kind not in _BASE_TOWERS:
            raise ValueError(f"unsupported base kind {kind!r}")
        if type(e) is not int:
            raise ValueError(f"parameter e must be an int, got {e!r}")
        if kind != "Fe" and e != 0:
            raise ValueError("parameter e only applies to Hirzebruch surfaces")
        if kind == "Fe" and e < 0:
            raise ValueError("Hirzebruch parameter e must be >= 0")
        self.kind = kind
        self.e = e
        self.gens, self.caps, self.rhss, _ = _presentation(kind, e)
        self.top_monomial = tuple(cap - 1 for cap in self.caps)
        self.dim = sum(self.top_monomial)

    def __eq__(self, other):
        return isinstance(other, Base) and self.kind == other.kind and self.e == other.e

    def __hash__(self):
        return hash((self.kind, self.e))

    def __repr__(self):
        if self.kind == "Fe":
            return f"F{self.e}"
        return self.kind


@cache
def _presentation(kind: str, e: int) -> tuple:
    """Generators, caps, rule right sides and K_B terms of a base kind."""
    if kind in _BASES:
        return _BASES[kind]
    over, twists, names = _BASE_TOWERS[kind]
    A = make_tower(Base(over), [sum(c * e**k for k, c in enumerate(t)) for t in twists])
    order = [A.gen_names.index(g) for _, g in names]

    def printed(terms) -> tuple:
        return tuple((tuple(m[i] for i in order), c) for m, c in terms)

    rhss = tuple(printed(A._rhss[i]) for i in order)
    canonical = printed(canonical_class(A).terms.items())
    return tuple(name for name, _ in names), tuple(A._caps[i] for i in order), rhss, canonical


def P1() -> Base:
    return Base("P1")


def P2() -> Base:
    return Base("P2")


def P1xP1() -> Base:
    return Base("P1xP1")


def Fe(e: int) -> Base:
    return Base("Fe", e)


def P1xP2() -> Base:
    return Base("P1xP2")


class ChowElement:
    """A homogeneous class on a fixed ambient, stored in normal form.

    `mono` is the exponent vector of the memo's normal monomial {mono: 1}
    and None on every other element; it only selects the product's fast
    path, so an element without it is still computed correctly.
    """

    __slots__ = ("ambient", "terms", "degree", "mono")

    def __init__(self, ambient: "Ambient", terms: dict, degree, mono=None):
        # internal constructor; terms must already be normal-form
        self.ambient = ambient
        self.terms = terms
        self.degree = degree
        self.mono = mono

    def is_zero(self) -> bool:
        return not self.terms

    def _check_same_ambient(self, other: "ChowElement"):
        if self.ambient is not other.ambient and self.ambient != other.ambient:
            raise ValueError("classes live on different ambients")

    def __add__(self, other):
        if not isinstance(other, ChowElement):
            return NotImplemented
        self._check_same_ambient(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError(
                f"cannot add classes of degrees {self.degree} and {other.degree}"
            )
        terms = dict(self.terms)
        for expo, c in other.terms.items():
            terms[expo] = terms.get(expo, 0) + c
            if terms[expo] == 0:
                del terms[expo]
        return ChowElement(self.ambient, terms, self.degree if terms else None)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ChowElement(
            self.ambient, {e: -c for e, c in self.terms.items()}, self.degree
        )

    def __rmul__(self, other):
        if type(other) is int:
            if other == 0:
                return ChowElement(self.ambient, {}, None)
            return ChowElement(
                self.ambient, {e: other * c for e, c in self.terms.items()}, self.degree
            )
        return NotImplemented

    def __mul__(self, other):
        e1 = self.mono
        if (
            e1 is not None
            and type(other) is ChowElement
            and other.mono is not None
            and other.ambient is self.ambient
        ):
            # two normal monomials of one memo: their product is the memo's
            # (`Ambient._monomial`, inlined on the hot path)
            A = self.ambient
            expo = A._expo_sum(e1, other.mono)
            nf = A._memo.get(expo)
            return nf if nf is not None else A._normal_form(expo)
        if not isinstance(other, ChowElement):
            return other * self if type(other) is int else NotImplemented
        A = self.ambient
        if other.ambient is not A:
            self._check_same_ambient(other)
        t1, t2 = self.terms, other.terms
        if not t1 or not t2:
            return ChowElement(A, {}, None)
        expo_sum = A._expo_sum
        raw: dict = {}
        for e1, c1 in t1.items():
            for e2, c2 in t2.items():
                expo = expo_sum(e1, e2)
                raw[expo] = raw.get(expo, 0) + c1 * c2
        terms = A._reduce(raw)
        return ChowElement(A, terms, self.degree + other.degree if terms else None)

    def __pow__(self, n: int):
        if type(n) is not int or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        if n == 0:
            return self.ambient.one()
        # repeated squaring, started from the square at the lowest set bit
        # so that the unit class is never a factor
        square = self
        while not n & 1:
            square = square * square
            n >>= 1
        result = square
        while n := n >> 1:
            square = square * square
            if n & 1:
                result = result * square
        return result

    def __eq__(self, other):
        return (
            isinstance(other, ChowElement)
            and (self.ambient is other.ambient or self.ambient == other.ambient)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ambient, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ambient.gen_names
        out = ""
        for expo in sorted(self.terms, reverse=True):
            coeff = self.terms[expo]
            factors = [name if k == 1 else f"{name}^{k}" for name, k in zip(names, expo) if k]
            mono = "*".join(factors)
            if not mono:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{abs(coeff)}*{mono}"
            sign = "-" if coeff < 0 else "+"
            if out:
                out += f" {sign} {body}"
            else:  # the leading term shows its sign only when it is negative
                out = body if coeff > 0 else f"-{body}"
        return out

    def __repr__(self):
        return f"<{self} on {self.ambient!r}>"


class Ambient:
    """A projective bundle P(V) -> B, or the plain base B itself.

    Towers have rank >= 2 and carry the tautological class z; a plain
    base is modelled with rank 1 and no z.  The Grothendieck relation is
    stored with the Chern classes of V truncated at dim(B): relations()
    exposes every stored rewrite rule.

    The shape is fixed at construction: `is_tower`, `dim`, `gen_names`,
    `nvars`, the top monomial that `integrate` reads, and the exponent
    cap and rule right side of every generator (the base's, then z^rank)
    are computed once in `__init__`, so products, `from_terms`, `gen`
    and `integrate` read plain attributes.
    """

    __slots__ = (
        "base", "rank", "twists", "cherns",
        "is_tower", "dim", "gen_names", "nvars", "top_monomial",
        "_expo_sum", "_caps", "_rhss", "_memo",
    )

    def __init__(self, base: Base, rank: int, twists, cherns):
        self.base = base
        self.rank = rank
        self.twists = twists
        self.cherns = cherns
        self.is_tower = rank >= 2
        self.dim = base.dim + rank - 1
        pad = (0,) if self.is_tower else ()
        self.gen_names = base.gens + (("z",) if self.is_tower else ())
        self.nvars = len(self.gen_names)
        self.top_monomial = base.top_monomial + ((rank - 1,) if self.is_tower else ())
        self._expo_sum = _EXPONENT_SUM[self.nvars]
        # every generator has one rule, which rewrites its pure power
        # gen^cap: the base's rules, then the Grothendieck relation for z
        caps = base.caps
        rhss = tuple(tuple((e + pad, c) for e, c in rhs) for rhs in base.rhss)
        if self.is_tower:
            rhs = []
            for i, ci in enumerate(cherns, start=1):
                sign = 1 if i % 2 == 1 else -1
                for bexpo, bcoeff in ci.terms.items():
                    rhs.append((bexpo + (rank - i,), sign * bcoeff))
            caps += (rank,)
            rhss += (tuple(rhs),)
        self._caps = caps
        self._rhss = rhss
        # monomial -> its normal form, an element shared by whoever gets
        # it: each normal monomial as itself from the start, others once met
        fill = _unit_monomials(caps)
        self._memo = {m: ChowElement(self, t, d, m) for m, t, d in fill}

    # -- structure ---------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Ambient)
            and self.base == other.base
            and self.rank == other.rank
            and self.cherns == other.cherns
        )

    def __hash__(self):
        return hash((self.base, self.rank))

    def __repr__(self):
        if not self.is_tower:
            return f"{self.base!r}"
        if self.twists:
            inner = ", ".join(str(t) for t in self.twists)
            return f"P({inner}) over {self.base!r}"
        # the stored classes do not fix the rank, so it is printed first
        classes = (f"c{i}={c}" for i, c in enumerate(self.cherns, start=1))
        inner = ", ".join((f"rank {self.rank}", *classes))
        return f"P({inner}) over {self.base!r}"

    # -- element construction ----------------------------------------

    def zero(self) -> ChowElement:
        return ChowElement(self, {}, None)

    def one(self) -> ChowElement:
        return self._memo[(0,) * self.nvars]

    def gen(self, name: str) -> ChowElement:
        names = self.gen_names
        if name not in names:
            raise ValueError(f"no generator {name!r} on {self!r}")
        return self._monomial(tuple(1 if g == name else 0 for g in names))

    @property
    def zeta(self) -> ChowElement:
        if not self.is_tower:
            raise ValueError("plain base carries no tautological class")
        return self.gen("z")

    def point(self) -> ChowElement:
        """The class of a point of the base (degree dim(B))."""
        expo = self.base.top_monomial
        if self.is_tower:
            expo = expo + (0,)
        return self._memo[expo]

    def from_terms(self, terms: dict) -> ChowElement:
        """Build an element from raw exponent->coefficient data (normalized here).

        Coefficients and exponent entries must be ints, checked on every
        term: 1.0 and True equal 1, so they would find the memo key of an
        int vector.  Length and sign are checked on a memo miss only, since
        every memo key is a valid exponent vector of this ambient.  A single
        term with coefficient 1 returns the memo's element itself, after
        those checks, rewritten only if it is not normal.  Terms with
        coefficient zero are dropped; the rest must share one degree.
        `_reduce` then sums the normal forms.
        """
        memo = self._memo
        single = len(terms) == 1
        degree = None
        for expo, coeff in terms.items():
            for k in expo:
                if type(k) is not int:
                    raise ValueError(f"exponent entry {k!r} of {expo} must be an int")
            if type(coeff) is not int:
                raise ValueError(f"coefficient {coeff!r} of {expo} must be an int")
            if expo not in memo and (len(expo) != self.nvars or min(expo) < 0):
                raise ValueError(f"bad exponent vector {expo} for {self!r}")
            if single and coeff == 1:
                return self._monomial(expo)
            if not coeff:
                continue
            d = sum(expo)
            if d != degree:
                if degree is not None:
                    raise ValueError(
                        f"mixed-degree input (degrees {degree} and {d}) rejected"
                    )
                degree = d
        out = self._reduce(terms)
        return ChowElement(self, out, degree if out else None)

    def pullback(self, x: ChowElement) -> ChowElement:
        """Pull a base class back to the tower."""
        if x.ambient.base != self.base or x.ambient.is_tower:
            raise ValueError("pullback expects a class on this tower's base")
        if not self.is_tower:
            return x
        return self.from_terms({e + (0,): c for e, c in x.terms.items()})

    # -- rewriting ---------------------------------------------------

    def relations(self) -> list[tuple[tuple[int, ...], list[tuple[tuple[int, ...], int]]]]:
        """All stored rewrite rules over the full generator tuple, one per
        generator in order: gen^cap -> right side."""
        n = self.nvars
        return [
            (tuple(cap if j == i else 0 for j in range(n)), list(rhs))
            for i, (cap, rhs) in enumerate(zip(self._caps, self._rhss))
        ]

    def _monomial(self, expo: tuple) -> ChowElement:
        """The memo's normal form of the monomial with this exponent vector."""
        nf = self._memo.get(expo)
        return nf if nf is not None else self._normal_form(expo)

    def _normal_form(self, expo: tuple) -> ChowElement:
        """Normal form of a monomial not yet in the memo, as a memoized element.

        The memo holds every normal monomial from construction, so this
        one, and every monomial on the explicit stack below it, is at or
        over the cap of some generator.  The element has degree sum(expo),
        or None when the form is zero, and is shared by whoever the memo
        hands it to: values are never mutated.  A monomial at or over the
        cap of a generator whose rule is gen^cap = 0 is zero, with nothing
        rewritten, so which monomials the memo holds does not depend on
        the order they were met in.  Otherwise the first generator at or
        over its cap is rewritten, and the rewritten monomials still
        unknown wait on the stack, so a deep rewriting chain (z^5000, say)
        never recurses; every monomial met is memoized on the way.
        """
        caps, rhss = self._caps, self._rhss
        memo = self._memo
        stack = [expo]
        while stack:
            m = stack[-1]
            if m in memo:
                stack.pop()
                continue
            # a zero rule gen^cap = 0 that divides m goes first: m then
            # has no images and is memoized as zero in this one pass
            over = [i for i, (k, cap) in enumerate(zip(m, caps)) if k >= cap]
            g = next((i for i in over if not rhss[i]), over[0])
            rest = list(m)
            rest[g] -= caps[g]
            images = [(tuple(map(add, rest, rexpo)), c) for rexpo, c in rhss[g]]
            waiting = [e for e, _ in images if e not in memo]
            if waiting:
                stack.extend(waiting)
                continue
            acc: dict = {}
            for e, c in images:
                for e2, c2 in memo[e].terms.items():
                    acc[e2] = acc.get(e2, 0) + c * c2
            terms = {e: c for e, c in acc.items() if c}
            memo[m] = ChowElement(self, terms, sum(m) if terms else None)
            stack.pop()
        return memo[expo]

    def _reduce(self, raw: dict) -> dict:
        """Normal form of exponent -> coefficient data, like terms merged."""
        memo = self._memo
        out: dict = {}
        for expo, coeff in raw.items():
            nf = memo.get(expo)
            if nf is None:
                nf = self._normal_form(expo)
            for e, c in nf.terms.items():
                out[e] = out.get(e, 0) + coeff * c
        # copied only when something cancelled, which most sums do not
        if 0 in out.values():
            out = {e: c for e, c in out.items() if c}
        return out


@cache
def _unit_monomials(caps: tuple) -> tuple:
    """(m, {m: 1}, sum(m)) for every normal monomial under these caps, in
    product order: one per shape and process, shared by every ambient of
    that shape, which wraps each in its own element."""
    return tuple((m, {m: 1}, sum(m)) for m in product(*map(range, caps)))


@cache
def base_space(base: Base) -> Ambient:
    """The base itself, as a rank-1 ambient without tautological class.

    One ambient per base and process, so that sums and products of base
    classes from different callers find the same ring by identity.
    """
    return Ambient(base, 1, (), ())


def _coerce_twist(B: Ambient, t) -> ChowElement:
    """t as a divisor class on B, the plain ambient of the tower's base."""
    base = B.base
    if type(t) is int:
        if t == 0:
            return B.zero()
        if base.kind == "P1":
            return t * B.gen("F")
        raise ValueError(
            f"integer twist {t} is only meaningful over P1; pass a divisor class"
        )
    if not isinstance(t, ChowElement):
        raise ValueError(f"twist must be a divisor class or 0, got {t!r}")
    if t.ambient is not B and (t.ambient.is_tower or t.ambient.base != base):
        raise ValueError(f"twist {t} does not live on the base {base!r}")
    if not t.is_zero() and t.degree != 1:
        raise ValueError(f"twist {t} is not a divisor class")
    return t


def make_tower(base: Base, twists: Sequence) -> Ambient:
    """P(O(L_1) + ... + O(L_r)) over base, r >= 2.

    Twists are divisor classes on the base; 0 denotes a trivial summand,
    and over P1 a plain integer n denotes O(n).
    """
    if not twists:
        raise ValueError("empty twist list: a tower needs at least two summands")
    B = base_space(base)
    coerced = tuple(_coerce_twist(B, t) for t in twists)
    if len(coerced) < 2:
        raise ValueError("a tower needs rank >= 2")
    rank = len(coerced)
    # e_1 .. e_d of the twists, expanded on their raw terms and reduced
    # once per degree at the end (the normal form is a ring map); e_i has
    # degree i, so it vanishes on the base for i > dim(B) and is not stored
    d = min(rank, base.dim)
    expo_sum = B._expo_sum
    es = [{(0,) * B.nvars: 1}] + [{} for _ in range(d)]
    for j, L in enumerate(coerced, start=1):
        for i in range(min(j, d), 0, -1):
            ei = es[i]
            for m1, c1 in es[i - 1].items():
                for m2, c2 in L.terms.items():
                    m = expo_sum(m1, m2)
                    ei[m] = ei.get(m, 0) + c1 * c2
    return Ambient(base, rank, coerced, tuple(map(B.from_terms, es[1:])))


def chern_tower(base: Base, rank: int, cherns: Sequence[ChowElement]) -> Ambient:
    """P(V) over base for V of the given rank with prescribed c_1, c_2, ...

    cherns[i] must be a class of degree i+1 on the base (or zero); classes
    beyond dim(base) are identically zero and must not be supplied.
    """
    if type(rank) is not int:
        raise ValueError(f"rank must be an int, got {rank!r}")
    if rank < 2:
        raise ValueError("a tower needs rank >= 2")
    if len(cherns) > min(rank, base.dim):
        raise ValueError("too many Chern classes for this rank and base")
    B = base_space(base)
    for i, c in enumerate(cherns, start=1):
        if not isinstance(c, ChowElement) or c.ambient != B:
            raise ValueError(f"c{i} must be a class on the base")
        if not c.is_zero() and c.degree != i:
            raise ValueError(f"c{i} has degree {c.degree}, expected {i}")
    padding = (B.zero(),) * (min(rank, base.dim) - len(cherns))
    return Ambient(base, rank, (), tuple(cherns) + padding)


def integrate(x: ChowElement) -> int:
    """Degree of a zero-cycle: x must be homogeneous of top degree."""
    A = x.ambient
    if not x.terms:
        return 0
    if x.degree != A.dim:
        raise ValueError(
            f"integrate needs degree {A.dim} on {A!r}, got degree {x.degree}"
        )
    return x.terms.get(A.top_monomial, 0)


def canonical_class(A: Ambient) -> ChowElement:
    """K_A = -rank * z + pullback(K_base + c1(V))."""
    if not A.is_tower:
        raise ValueError("canonical_class expects a genuine tower (rank >= 2)")
    k = canonical_base_class(A.base)
    if A.cherns:  # a tower over the point stores none: c1 = 0
        k = k + A.cherns[0]
    return (-A.rank) * A.zeta + A.pullback(k)


def canonical_base_class(base: Base) -> ChowElement:
    """K_B as a divisor class on the plain base, as its tower gave it."""
    *_, canonical = _presentation(base.kind, base.e)
    return base_space(base).from_terms(dict(canonical))


def adjunction(A: Ambient, X: ChowElement) -> ChowElement:
    """K_A + X: the ambient class restricting to K_X on a smooth member."""
    if X.ambient != A:
        raise ValueError("divisor does not live on this ambient")
    if X.degree != 1:
        raise ValueError(f"adjunction needs a divisor class, got degree {X.degree}")
    return canonical_class(A) + X


def polarized_degree(A: Ambient, X: ChowElement, H: ChowElement) -> int:
    """H^n . X for a divisor X on the (n+1)-dimensional ambient."""
    if X.ambient != A or H.ambient != A:
        raise ValueError("classes do not live on this ambient")
    if X.degree != 1 or H.degree != 1:
        raise ValueError("polarized_degree needs divisor classes")
    n = A.dim - 1
    return integrate(H**n * X)
