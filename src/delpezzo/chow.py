"""Exact Chow-ring arithmetic on towers of projective bundles.

An ambient is the point or a projective bundle P(V) -> B over any
ambient B, where V is either a sum of line bundles or a bundle with
prescribed Chern classes.  The ring of a tower is the quotient of
Z[base generators, z] by the base relations and the Grothendieck
relation

    z^r = sum_{i >= 1} (-1)^(i+1) c_i(V) z^(r-i),

with z the relative hyperplane class.  Every element is kept in a unique
normal form (no reducible generator power, z-exponent < rank), so
equality is dictionary equality and integration of a top-degree class
reads off a single coefficient.  All coefficients are Python ints, hence
exact at any size.

The point, with no generators, is the only ring stated by hand.  The
named bases are towers over an earlier kind, one row of `_BASE_TOWERS`
each (Fulton, Intersection Theory, 3.2): P1 and P2 over the point, and
P1 x P1, F_e and P1 x P2 over P1.  `Base(kind, e)` checks its arguments
and builds each once per process; the ring prints the generator names
of its row, in the row's order, so F_e's tautological class C0 comes
before f.  Over any other ambient the tautological class is z, the last
generator, and a z below it is renamed z1, z2, ... by level from the
bottom, so the names of a stack stay unique.  `base_space` is the
identity: a base is its own ring.  Each level adds its z to the Picard
group of its base, so a ring's generators are a basis of its Picard
group and `nvars` is its Picard number.

The left side of every rewrite rule is a pure power of one generator
(h^3, C0^2, z^r, ...), so the rules are indexed by generator: a monomial
is in normal form exactly when each exponent is below its generator's
cap.  Each ambient memoizes normal forms as elements of its ring, each
normal monomial as itself from construction on and every other one once
met, so a memo miss is always a monomial to rewrite.  The unit terms
{m: 1} and degrees of the normal monomials, and the table of their codes
by exponent tuple, depend only on the caps and the layout, so they are
built once per shape and process (`_unit_monomials`) and shared by every
ambient of that shape, each wrapping the units in its own elements.

Inside the engine a monomial is one int, its code (packed exponent
vectors, as in Monagan and Pearce, CASC 2007), one 16-bit field per
generator: a tower's z fills the field just above its base's fields, so
a base monomial's code is the code of its pullback.  A product of
monomials is the sum of their codes, a memo key hashes as an int, and
as 2^16 = 1 modulo 2^16 - 1, the degree of a monomial is code % 0xFFFF.
Both hold while no field carries into the next and the degree stays
below 0xFFFF: every monomial the engine meets has degree at most 2 dim,
that of a product of two normal monomials, since a rewrite keeps the
degree and a given monomial of degree above dim is zero before it is
packed.  So a ring of dimension above 32767 is refused when it is built.
Printed order and exponent tuples live only at the edges: each ring
keeps the bit offset of each printed generator's field, by which
`from_terms`, `terms` (a view built on each read), `relations()`,
`top_monomial`, `gen` and the printed form pack and unpack.  Only F_e,
which prints its z, C0, before P1's F, f, and the towers over it print
generators out of field order.

A monomial b z^N, b the code's fields below z and N its top field, is
rewritten one level at a time: b by the base's own memo, then, for
r <= N < r + dim B and b normal, by one step of the stored Grothendieck
rule, b z^(N-r) times its right side; z^N is zero from N = r + dim B on.
The monomials a step yields are rewritten the same way on an explicit
stack, not by recursion, since a chain of steps is as long as dim B.  A
lift, N < r, is b's form times z^N and needs no step, so a lift asked
for is built before any stack.  So the memo of a tower holds the
monomials met with their z-part, and the memo of its base every base
monomial that a rewrite met; a named base is one ring per process, so
its memo serves every tower over it.

The memo is the one source of unit monomials: `gen`, `one`, `point`,
`zeta`, a one-term `from_terms` with coefficient 1, a pulled-back unit
monomial and a product of two unit monomials all hand out the memo's
element itself, which carries its code as `mono`; `gen` only rewrites a
generator whose cap is 1, so all four are lookups on every supported
base.  A product takes one of two paths.  Two such elements of one
ambient, the common case in pairing tables, cost one int sum and one
lookup.  Anything else costs one pass over its raw terms and `_reduce`,
one memo lookup per raw monomial, where a normal monomial adds its
coefficient with no loop over its terms.

Only what is not normal is rewritten.  `from_terms` of normal monomials
and every `pullback` build their element straight from the data
(`_element`), with no `_reduce`: zero coefficients are dropped, and a
base class's terms are already the tower's normal form, since z is on
top and the base generators keep their caps, so its pullback shares
them.  `from_terms` sends data with any monomial that is not normal
through `_reduce`.  Each ring has one zero element, and every zero
class an operation returns is that object: `zero()`, a sum that
cancels, an empty product and each zero form the memo keeps.

The memo lives and dies with its ambient, as does its canonical class
(computed on the first `canonical_class` call); its elements point back
at the ambient, so a dropped ring is freed by the cyclic garbage
collector.
Every tower is built anew, but each named base once per process, so its
classes built anywhere find their common ring by identity.  A split
tower of rank r over B takes c(V) = prod (1 + L_j) truncated at dim(B),
since the higher elementary symmetric classes vanish on the base: the
product is expanded on the twists' raw terms and each c_i reduced once
at the end, which is exact because the normal form is a ring map, so
the build runs no class product or sum.

Two ambients are equal when they present the same ring in the same
layout: the same generator names, rank, base and Chern classes.  Both
constructors store c_1 .. c_d of V with d = min(rank, dim B), the
classes that need not vanish on the base, so equality compares them as
stored.  Twists are kept for display only, so a split tower and a
Chern-data tower with the same c(V) are one ring and their classes mix.
F_0 and P1 x P1 are both P(O + O) over P1, but name their generators
apart, so they are two rings and their classes do not mix.

Values are immutable after construction and all operations are pure
(the memo only caches), so one element may be handed out many times,
one unit terms dict to every ambient of its shape, and one terms dict
to a class and its pullback: nothing writes to the `_terms` of an
element once it is built.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from types import MappingProxyType
from typing import Sequence

# every named base but the point as a tower over an earlier kind: that
# kind, each summand's twist as coefficients on 1, e, ... of F on P1 (0
# over the point), and the generator names in printed order, each with
# the tower generator it names (on F_e, C0 = z and f = F)
_BASE_TOWERS = {
    "P1": ("pt", ((0,), (0,)), (("F", "z"),)),
    "P2": ("pt", ((0,), (0,), (0,)), (("h", "z"),)),
    "P1xP1": ("P1", ((0,), (0,)), (("f1", "F"), ("f2", "z"))),
    "Fe": ("P1", ((0,), (0, -1)), (("C0", "z"), ("f", "F"))),
    "P1xP2": ("P1", ((0,), (0,), (0,)), (("p", "F"), ("h", "z"))),
}

# a monomial is one int, one 16-bit field per generator, a tower's z just
# above its base's fields; as 2^16 = 1 modulo _FIELD, its degree is
# code % _FIELD
_FIELD = 0xFFFF
_MAX_DIM = _FIELD // 2  # so a product's degree, at most 2 dim, is below _FIELD


def _pack(expo: Sequence[int], offsets: tuple) -> int:
    """The code of an exponent tuple, by the field offset of each generator."""
    return sum(k << o for k, o in zip(expo, offsets))


def Base(kind: str, e: int = 0) -> Ambient:
    """The point or a named base of `_BASE_TOWERS`, by kind (and e for F_e).

    One ring per kind, e and process, built on first use.
    """
    if kind != "pt" and kind not in _BASE_TOWERS:
        raise ValueError(f"unsupported base kind {kind!r}")
    if type(e) is not int:
        raise ValueError(f"parameter e must be an int, got {e!r}")
    if kind != "Fe" and e != 0:
        raise ValueError("parameter e only applies to Hirzebruch surfaces")
    if kind == "Fe" and e < 0:
        raise ValueError("Hirzebruch parameter e must be >= 0")
    return _named(kind, e)


@cache
def _named(kind: str, e: int) -> Ambient:
    """The ring of a checked `Base(kind, e)`: its row's tower, renamed."""
    if kind == "pt":
        return Ambient(None, 1, (), (), (kind, e, ()))
    over, twists, names = _BASE_TOWERS[kind]
    A = make_tower(Base(over), [sum(c * e**k for k, c in enumerate(t)) for t in twists])
    return Ambient(A.base, A.rank, A.twists, A.cherns, (kind, e, names))


def base_space(base: Ambient) -> Ambient:
    """The base itself: a base is its own ring."""
    return base


def P1() -> Ambient:
    return Base("P1")


def P2() -> Ambient:
    return Base("P2")


def P1xP1() -> Ambient:
    return Base("P1xP1")


def Fe(e: int) -> Ambient:
    return Base("Fe", e)


def P1xP2() -> Ambient:
    return Base("P1xP2")


class ChowElement:
    """A homogeneous class on a fixed ambient, stored in normal form.

    `_terms` maps the packed code of each normal monomial to its
    coefficient; `terms` shows the same data keyed by exponent tuples.
    `mono` is the code of the memo's normal monomial {mono: 1} and None
    on every other element; it only selects the product's fast path, so
    an element without it is still computed correctly.
    """

    __slots__ = ("ambient", "_terms", "degree", "mono")

    def __init__(self, ambient: "Ambient", terms: dict, degree, mono=None):
        # internal constructor; terms must already be normal-form codes
        self.ambient = ambient
        self._terms = terms
        self.degree = degree
        self.mono = mono

    @property
    def terms(self) -> MappingProxyType:
        """Exponent tuple -> coefficient: a read-only view built on each read."""
        unpack = self.ambient._unpack
        return MappingProxyType({unpack(e): c for e, c in self._terms.items()})

    def is_zero(self) -> bool:
        return not self._terms

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
        terms = dict(self._terms)
        for expo, c in other._terms.items():
            terms[expo] = terms.get(expo, 0) + c
            if terms[expo] == 0:
                del terms[expo]
        return ChowElement(self.ambient, terms, self.degree) if terms else self.ambient._zero

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.ambient._element({e: -c for e, c in self._terms.items()}, self.degree)

    def __rmul__(self, other):
        if type(other) is not int:
            return NotImplemented
        terms = {e: other * c for e, c in self._terms.items()} if other else {}
        return ChowElement(self.ambient, terms, self.degree) if terms else self.ambient._zero

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
            m = e1 + other.mono
            nf = A._memo.get(m)
            return nf if nf is not None else A._normal_form(m)
        if not isinstance(other, ChowElement):
            return other * self if type(other) is int else NotImplemented
        A = self.ambient
        if other.ambient is not A:
            self._check_same_ambient(other)
        t1, t2 = self._terms, other._terms
        if not t1 or not t2:
            return A._zero
        raw: dict = {}
        for e1, c1 in t1.items():
            for e2, c2 in t2.items():
                m = e1 + e2
                raw[m] = raw.get(m, 0) + c1 * c2
        return A._reduce(raw, self.degree + other.degree)

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
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.ambient, frozenset(self._terms.items())))

    def __str__(self):
        terms = self.terms
        if not terms:
            return "0"
        names = self.ambient.gen_names
        out = ""
        for expo in sorted(terms, reverse=True):
            coeff = terms[expo]
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
    """The point, or a projective bundle P(V) -> B over an ambient B.

    A tower has rank >= 2 and a tautological class: z, the last
    generator, or on a named base the generator its row names z, at its
    printed place; either way its exponent fills the top field of a code.
    The point has no base and no generators, and rank 1.
    The Grothendieck relation is stored with the Chern classes of V
    truncated at dim(B): relations() exposes every stored rewrite rule.
    `named` is (kind, e, the row's names) for the point and a named base,
    which keep `kind` and `e` for display; every other tower has kind
    None and e 0.

    The shape is fixed at construction: `dim`, `gen_names`, `nvars`, the
    field offset of each printed generator (`_offsets`), the top monomial
    (`top_monomial`, and its code `_top` that `integrate` reads), the
    exponent cap and rule right side of every generator in field order
    (the base's, which serve the tower unchanged, then z's) and the codes
    of the normal monomials (`_codes`) are computed once in `__init__`,
    so products, `from_terms`, `gen` and `integrate` read plain
    attributes.  A ring of dimension above 32767 is refused, so that no
    exponent of a product of two classes overflows its 16-bit field.
    """

    __slots__ = (
        "base", "rank", "twists", "cherns", "kind", "e",
        "dim", "gen_names", "nvars", "top_monomial",
        "_offsets", "_top", "_caps", "_rhss", "_codes", "_memo", "_zero", "_canonical",
    )

    def __init__(self, base: Ambient | None, rank: int, twists, cherns, named=(None, 0, None)):
        self.base = base
        self.rank = rank
        self.twists = twists
        self.cherns = cherns
        self.kind, self.e, names = named
        if base is None:  # the point
            self.dim = 0
            self.gen_names, self._offsets, self._caps, self._rhss, self._top = (), (), (), (), 0
        else:
            self.dim = base.dim + rank - 1
            if self.dim > _MAX_DIM:
                raise ValueError(
                    f"dimension {self.dim} is above {_MAX_DIM}, the largest a ring supports"
                )
            shift = 16 * base.nvars  # z's field, just above the base's
            if names is None:  # z last; each z below is named by its level
                below = base.gen_names
                level = 1 + sum(g[:1] == "z" and g[1:].isdigit() for g in below)
                self.gen_names = tuple(f"z{level}" if g == "z" else g for g in below) + ("z",)
                self._offsets = base._offsets + (shift,)
            else:
                self.gen_names = tuple(name for name, _ in names)
                fields = dict(zip(base.gen_names, base._offsets), z=shift)
                self._offsets = tuple(fields[g] for _, g in names)
            # every generator has one rule, which rewrites its pure power
            # gen^cap, in field order: the base's rules, whose codes are
            # those of their pullbacks, and the Grothendieck relation for z
            rule = tuple(
                (bexpo + ((rank - i) << shift), (1 if i % 2 == 1 else -1) * bcoeff)
                for i, ci in enumerate(cherns, start=1)
                for bexpo, bcoeff in ci._terms.items()
            )
            self._caps = base._caps + (rank,)
            self._rhss = base._rhss + (rule,)
            self._top = base._top + ((rank - 1) << shift)
        self.nvars = len(self.gen_names)
        self.top_monomial = self._unpack(self._top)
        # monomial code -> its normal form, an element shared by whoever
        # gets it: each normal monomial as itself from the start, others
        # once met
        caps = tuple(self._caps[o >> 4] for o in self._offsets)
        fill, self._codes = _unit_monomials(caps, self._offsets)
        self._memo = {m: ChowElement(self, t, d, m) for m, t, d in fill}
        self._zero = ChowElement(self, {}, None)  # every zero form of this ring
        # K of this ambient, built on first use, so a build runs no class
        # product or sum
        self._canonical = None

    def _unpack(self, code: int) -> tuple:
        """The exponent tuple, in printed order, of a monomial code."""
        return tuple([(code >> o) & _FIELD for o in self._offsets])

    # -- structure ---------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Ambient)
            and self.gen_names == other.gen_names
            and self.rank == other.rank
            and self.base == other.base
            and self.cherns == other.cherns
        )

    def __hash__(self):
        return hash((self.gen_names, self.rank))

    def __repr__(self):
        if self.kind is not None:
            return f"F{self.e}" if self.kind == "Fe" else self.kind
        if self.twists:
            inner = ", ".join(str(t) for t in self.twists)
            return f"P({inner}) over {self.base!r}"
        # the stored classes do not fix the rank, so it is printed first
        classes = (f"c{i}={c}" for i, c in enumerate(self.cherns, start=1))
        inner = ", ".join((f"rank {self.rank}", *classes))
        return f"P({inner}) over {self.base!r}"

    # -- element construction ----------------------------------------

    def zero(self) -> ChowElement:
        return self._zero

    def one(self) -> ChowElement:
        return self._memo[0]

    def gen(self, name: str) -> ChowElement:
        names = self.gen_names
        if name not in names:
            raise ValueError(f"no generator {name!r} on {self!r}")
        return self._monomial(1 << self._offsets[names.index(name)])

    @property
    def zeta(self) -> ChowElement:
        if "z" not in self.gen_names:
            raise ValueError(f"{self!r} carries no tautological class named z")
        return self.gen("z")

    def point(self) -> ChowElement:
        """The class of a point of the base, pulled back (degree dim(B)).

        On a tower over the point, P1 and P2 among them, it is the unit.
        """
        if self.base is None:
            raise ValueError("the point has no base to take a point of")
        return self._memo[self.base._top]

    def from_terms(self, terms: dict) -> ChowElement:
        """Build an element from raw exponent->coefficient data (normalized here).

        Coefficients and exponent entries must be ints, checked on every
        term before any lookup: 1.0 and True equal 1, so they would find
        the code of an int vector.  A normal monomial's code is read from
        `_codes`, and as a single term with coefficient 1, the common
        case, it returns the memo's element itself.  Length and sign are
        checked on a miss only, since every key there is a valid exponent
        vector of this ambient, and any other monomial is packed, or
        dropped as zero if its degree is above `dim`.  Terms with
        coefficient zero are dropped from the degree check; the rest must
        share one degree.  Data of normal monomials alone is already the
        normal form, so `_element` builds it, without its zero
        coefficients, and `_reduce` sums anything else.
        """
        codes, dim = self._codes, self.dim
        single = len(terms) == 1
        raw = {}
        degree, normal = None, True
        for expo, coeff in terms.items():
            for k in expo:
                if type(k) is not int:
                    raise ValueError(f"exponent entry {k!r} of {expo} must be an int")
            if type(coeff) is not int:
                raise ValueError(f"coefficient {coeff!r} of {expo} must be an int")
            code = codes.get(expo)
            if code is None:
                if len(expo) != self.nvars or min(expo) < 0:
                    raise ValueError(f"bad exponent vector {expo} for {self!r}")
                d = sum(expo)
                if d <= dim:  # above dim every monomial is zero
                    raw[_pack(expo, self._offsets)] = coeff
                    normal = False
            elif single and coeff == 1:
                return self._memo[code]
            else:
                d = code % _FIELD
                if coeff:
                    raw[code] = coeff
            if coeff and d != degree:
                if degree is not None:
                    raise ValueError(
                        f"mixed-degree input (degrees {degree} and {d}) rejected"
                    )
                degree = d
        return self._element(raw, degree) if normal else self._reduce(raw, degree)

    def pullback(self, x: ChowElement) -> ChowElement:
        """Pull a class of the base back to the tower.

        A normal code of the base is the tower's normal code of the
        pulled-back monomial, so the element wraps `x`'s own terms, with
        no rewriting; a single term with coefficient 1 is the memo's
        element, whether or not `x` carries `mono`.
        """
        if x.ambient is not self.base and x.ambient != self.base:
            raise ValueError("pullback expects a class on this tower's base")
        return self._element(x._terms, x.degree)

    # -- rewriting ---------------------------------------------------

    def relations(self) -> list[tuple[tuple[int, ...], list[tuple[tuple[int, ...], int]]]]:
        """All stored rewrite rules over the full generator tuple, one per
        generator in order: gen^cap -> right side."""
        unpack = self._unpack
        return [
            (unpack(self._caps[o >> 4] << o), [(unpack(r), c) for r, c in self._rhss[o >> 4]])
            for o in self._offsets
        ]

    def _element(self, terms: dict, degree) -> ChowElement:
        """The element of normal-form data of this degree, with no
        coefficient zero: a single term with coefficient 1 is the memo's
        element, no term the ring's zero, and anything else wraps `terms`
        as it is, so the caller must not write to it afterwards."""
        if len(terms) == 1 and 1 in terms.values():
            return self._memo[next(iter(terms))]
        return ChowElement(self, terms, degree) if terms else self._zero

    def _monomial(self, code: int) -> ChowElement:
        """The memo's normal form of the monomial with this code."""
        nf = self._memo.get(code)
        return nf if nf is not None else self._normal_form(code)

    def _normal_form(self, code: int) -> ChowElement:
        """Normal form of a monomial not yet in the memo, as a memoized element.

        A monomial b * z^N, b on the base, is rewritten one level at a
        time: the base's own `_monomial` gives the normal form of b, so a
        named base, one ring per process, answers every base rewrite
        after the first from its memo.
          * N < rank: that form, lifted with z^N.  A lift asked for is
            built at once, with no stack; one met as an image has b not
            normal (a normal monomial is in the memo from the start), so
            it is the next case, whose images are all normal.
          * N >= rank + dim B: zero, since z^N is.
          * b not normal: the images are e * z^N, one per term e of its
            form.
          * b normal: the images are one step of the stored Grothendieck
            rule, b * z^(N - rank) times each term of its right side.
        The images still unknown wait on an explicit stack, above the
        monomial that needs them, which is memoized once all of them are.
        A step lowers N or makes b normal, and a chain of steps can be as
        long as dim B (z^(n+1) on P(O(1) + O) over P^n walks n steps), so
        it must not recurse: a stack recurses once per level, never once
        per exponent.  This memo gains the monomial asked for and every
        image met on the way.  On codes, N is a shift of the monomial, and
        taking b off it, a lift by z^N and a rule step are each one sum.
        The element has the degree of the monomial, or is the ring's zero
        when the form is zero, and is shared by whoever the memo hands it
        to: values are never mutated.
        """
        rank, base = self.rank, self.base
        memo, shift = self._memo, 16 * base.nvars
        n = code >> shift
        if n < rank:  # a lift, taken before any stack is built
            zn = n << shift
            terms = {e + zn: c for e, c in base._monomial(code - zn)._terms.items()}
            nf = memo[code] = ChowElement(self, terms, code % _FIELD) if terms else self._zero
            return nf
        top, rule = rank + base.dim, self._rhss[-1]
        # (monomial, its images, or None before they are computed): a
        # monomial waits under the images it needs, so it is popped again
        # only once they are all memoized
        stack = [(code, None)]
        while stack:
            m, images = stack.pop()
            if m in memo:  # pushed again before its first copy was resolved
                continue
            if images is None:
                n = m >> shift
                images = ()  # z^N is zero from N = rank + dim B on
                if n < top:
                    zn = n << shift
                    below = base._monomial(m - zn)
                    if below.mono is None:
                        images = [(e + zn, c) for e, c in below._terms.items()]
                    else:
                        rest = m - (rank << shift)
                        images = [(rest + r, c) for r, c in rule]
                    waiting = [(e, None) for e, _ in images if e not in memo]
                    if waiting:
                        stack.append((m, images))
                        stack += waiting
                        continue
            terms = {}
            for e, c in images:
                for e2, c2 in memo[e]._terms.items():
                    terms[e2] = terms.get(e2, 0) + c * c2
            if 0 in terms.values():
                terms = {e: c for e, c in terms.items() if c}
            memo[m] = ChowElement(self, terms, m % _FIELD) if terms else self._zero
        return memo[code]

    def _reduce(self, raw: dict, degree) -> ChowElement:
        """The element of code -> coefficient data of this degree: a single
        term with coefficient 1 is the memo's element itself, rewritten only
        if it is not normal, and anything else sums the normal forms."""
        if len(raw) == 1 and 1 in raw.values():
            return self._monomial(next(iter(raw)))
        memo = self._memo
        out: dict = {}
        for m, coeff in raw.items():
            nf = memo.get(m)
            if nf is None:
                nf = self._normal_form(m)
            if nf.mono is None:
                for e, c in nf._terms.items():
                    out[e] = out.get(e, 0) + coeff * c
            else:  # m is normal, its own one term with coefficient 1
                out[m] = out.get(m, 0) + coeff
        # copied only when something cancelled, which most sums do not
        if 0 in out.values():
            out = {e: c for e, c in out.items() if c}
        return self._element(out, degree)


@cache
def _unit_monomials(caps: tuple, offsets: tuple) -> tuple:
    """(code, {code: 1}, degree) for every normal monomial under these
    printed caps, in product order, and the table of their codes by exponent
    tuple: one per shape, layout and process, shared by every ambient of
    that shape, which wraps each unit in its own element."""
    fill, codes = [], {}
    for m in product(*map(range, caps)):
        code = codes[m] = _pack(m, offsets)
        fill.append((code, {code: 1}, sum(m)))
    return tuple(fill), codes


def _coerce_twist(B: Ambient, t) -> ChowElement:
    """t as a divisor class on B, the tower's base."""
    if type(t) is int:
        if t == 0:
            return B.zero()
        if B.kind == "P1":
            return t * B.gen("F")
        raise ValueError(
            f"integer twist {t} is only meaningful over P1; pass a divisor class"
        )
    if not isinstance(t, ChowElement):
        raise ValueError(f"twist must be a divisor class or 0, got {t!r}")
    if t.ambient is not B and t.ambient != B:
        raise ValueError(f"twist {t} does not live on the base {B!r}")
    if not t.is_zero() and t.degree != 1:
        raise ValueError(f"twist {t} is not a divisor class")
    return t


def make_tower(base: Ambient, twists: Sequence) -> Ambient:
    """P(O(L_1) + ... + O(L_r)) over any ambient, r >= 2.

    Twists are divisor classes on the base; 0 denotes a trivial summand,
    and over P1 a plain integer n denotes O(n).
    """
    if not twists:
        raise ValueError("empty twist list: a tower needs at least two summands")
    coerced = tuple(_coerce_twist(base, t) for t in twists)
    if len(coerced) < 2:
        raise ValueError("a tower needs rank >= 2")
    rank = len(coerced)
    # e_1 .. e_d of the twists, expanded on their raw terms and reduced
    # once per degree at the end (the normal form is a ring map); e_i has
    # degree i, so it vanishes on the base for i > dim(B) and is not stored
    d = min(rank, base.dim)
    es = [{0: 1}] + [{} for _ in range(d)]
    for j, L in enumerate(coerced, start=1):
        for i in range(min(j, d), 0, -1):
            ei = es[i]
            for m1, c1 in es[i - 1].items():
                for m2, c2 in L._terms.items():
                    m = m1 + m2
                    ei[m] = ei.get(m, 0) + c1 * c2
    cherns = tuple(base._reduce(ei, i) for i, ei in enumerate(es[1:], start=1))
    return Ambient(base, rank, coerced, cherns)


def chern_tower(base: Ambient, rank: int, cherns: Sequence[ChowElement]) -> Ambient:
    """P(V) over any ambient for V of the given rank with prescribed c_1, c_2, ...

    cherns[i] must be a class of degree i+1 on the base (or zero); classes
    beyond dim(base) are identically zero and must not be supplied.
    """
    if type(rank) is not int:
        raise ValueError(f"rank must be an int, got {rank!r}")
    if rank < 2:
        raise ValueError("a tower needs rank >= 2")
    if len(cherns) > min(rank, base.dim):
        raise ValueError("too many Chern classes for this rank and base")
    for i, c in enumerate(cherns, start=1):
        if not isinstance(c, ChowElement) or (c.ambient is not base and c.ambient != base):
            raise ValueError(f"c{i} must be a class on the base")
        if not c.is_zero() and c.degree != i:
            raise ValueError(f"c{i} has degree {c.degree}, expected {i}")
    padding = (base.zero(),) * (min(rank, base.dim) - len(cherns))
    return Ambient(base, rank, (), tuple(cherns) + padding)


def integrate(x: ChowElement) -> int:
    """Degree of a zero-cycle: x must be homogeneous of top degree."""
    A = x.ambient
    if not x._terms:
        return 0
    if x.degree != A.dim:
        raise ValueError(
            f"integrate needs degree {A.dim} on {A!r}, got degree {x.degree}"
        )
    return x._terms.get(A._top, 0)


def canonical_class(A: Ambient) -> ChowElement:
    """K_A = -rank * z + pullback(K_B + c1(V)), with K_B = 0 on the point.

    Computed on the first call and kept on the ambient, so it lives and
    dies with its ring.
    """
    K = A._canonical
    if K is None:
        B = A.base
        if B is None:
            raise ValueError("the point has no canonical class: a tower has rank >= 2")
        k = B.zero() if B.base is None else canonical_class(B)
        if A.cherns:  # a tower over the point stores none: c1 = 0
            k = k + A.cherns[0]
        z = A._memo[1 << 16 * B.nvars]
        K = A._canonical = (-A.rank) * z + A.pullback(k)
    return K


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
