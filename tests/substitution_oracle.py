"""Brute-force reducer used as an independent oracle for the Chow engine.

Normal forms here are computed by literal repeated substitution of the
ambient's stored relations: keep a flat list of (exponent, coefficient)
pairs, pick any pair that any relation applies to (rule order and pair
order reshuffled from a seed on every step), substitute, and repeat
until nothing applies.  Only then are coefficients summed per monomial.
A pair that a relation with zero right side applies to is dropped at
once: that is one legal substitution order, and it keeps the
Grothendieck relation from expanding terms that are already zero, which
branches without bound on z-powers far above the rank.  For the same
reason a pair of degree above the top monomial's (from the oracle's own
table) is dropped before any substitution: every rule keeps the degree
and no normal monomial lies above the top, so it reduces to nothing in
any order, and on a stack of towers its expansion is exponential.  No
normal-ordering strategy, no dict-based accumulation during the run, and
an integration table of its own; agreement with the engine is then
evidence for the engine's reduction order and bookkeeping, not just for
the shared relation data.
"""

import random

_TOP = {
    "pt": (),
    "P1": (1,),
    "P2": (2,),
    "P1xP1": (1, 1),
    "Fe": (1, 1),
    "P1xP2": (1, 2),
}


def oracle_reduce(ambient, raw_terms, seed=0):
    """Fully reduce a list of (exponent tuple, coeff) pairs; returns a dict."""
    rng = random.Random(seed)
    rules = list(ambient.relations())
    top = sum(_top(ambient))
    pairs = [(tuple(e), int(c)) for e, c in raw_terms if sum(e) <= top]
    while True:
        rng.shuffle(rules)
        rules.sort(key=lambda rule: bool(rule[1]))  # stable: zero rules first
        order = list(range(len(pairs)))
        rng.shuffle(order)
        hit = None
        for idx in order:
            expo, _ = pairs[idx]
            for lhs, rhs in rules:
                if all(a >= b for a, b in zip(expo, lhs)):
                    hit = (idx, lhs, rhs)
                    break
            if hit is not None:
                break
        if hit is None:
            break
        idx, lhs, rhs = hit
        expo, coeff = pairs.pop(idx)
        rest = tuple(a - b for a, b in zip(expo, lhs))
        for rexpo, rcoeff in rhs:
            pairs.append(
                (tuple(a + b for a, b in zip(rest, rexpo)), coeff * rcoeff)
            )
    out = {}
    for expo, coeff in pairs:
        out[expo] = out.get(expo, 0) + coeff
    return {e: c for e, c in out.items() if c != 0}


def oracle_mul(ambient, terms_a, terms_b, seed=0):
    """Product of two raw term lists, reduced by substitution."""
    raw = []
    for ea, ca in terms_a:
        for eb, cb in terms_b:
            raw.append((tuple(x + y for x, y in zip(ea, eb)), ca * cb))
    return oracle_reduce(ambient, raw, seed)


def _top(ambient):
    """The table's top monomial of a named kind; over any other base, the
    base's top with z^(rank - 1), walking down to a named kind."""
    if ambient.kind in _TOP:
        return _TOP[ambient.kind]
    return _top(ambient.base) + (ambient.rank - 1,)


def oracle_integrate(ambient, raw_terms, seed=0):
    """Integral of a top-degree class given as raw terms."""
    return oracle_reduce(ambient, raw_terms, seed).get(_top(ambient), 0)
