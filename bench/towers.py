"""`towers`: one operation is one seeded random projective bundle.

Each operation builds a tower P(V) -> B with `make_tower` (random line
bundle twists) or `chern_tower` (random Chern data), computes the full
Poincare pairing table between normal-form monomials of complementary
degree, and integrates D^dim for a seeded divisor D.  Only `chow` runs,
and operations almost never share a tower.

The outputs are checked outside the timed region against arithmetic that
shares nothing with the engine but the input data:
  * every pairing block is unimodular (determinant +1 or -1);
  * the fibre class integrates to 1;
  * every pairing number and the D^dim integral equal the projective
    bundle formula: pi_*(z^(r-1+k)) = s_k with
    sum_k s_k t^k = 1 / (1 - c_1 t + c_2 t^2 - ...), over a hand-written
    ring of the base;
  * a seeded sample of pairing numbers matches the substitution oracle
    of the test suite.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

import common

OP_UNIT = "one random tower: pairing table and D^dim"
TAIL_PERCENTILE = 99.0
TRACE_OPS = 400
MAX_RANK = 16
MAX_E = 50
ORACLE_SAMPLES = 2
DIGEST_OPS = 1000
# coefficient bounds: twists by number of base generators, Chern classes
# by degree
TWIST_RANGE = {1: 30, 2: 3}
CHERN_RANGE = {1: 10, 2: 100, 3: 100}
PROBE_NOMINAL_NS = common.PROBE_NOMINAL_NS

# generator names and, per generator, the largest exponent a normal-form
# monomial of the base ring may carry
_GENS = {
    "P1": (("F",), (1,)),
    "P2": (("h",), (2,)),
    "P1xP1": (("f1", "f2"), (1, 1)),
    "Fe": (("C0", "f"), (1, 1)),
    "P1xP2": (("p", "h"), (1, 2)),
}
_DIM = {"P1": 1, "P2": 2, "P1xP1": 2, "Fe": 2, "P1xP2": 3}


class BaseRing:
    """Integer Chow ring of a base, written independently of the engine.

    Elements are dicts exponent tuple -> int in normal form.  Relations:
    F^2 = 0; h^3 = 0; f1^2 = f2^2 = 0; f^2 = 0 and C0^2 = -e C0 f;
    p^2 = 0 and h^3 = 0.  The point class is the monomial of top degree.
    """

    def __init__(self, kind: str, e: int = 0):
        self.kind, self.e = kind, e
        self.gens, self.caps = _GENS[kind]
        self.dim = _DIM[kind]
        self.top = self.caps

    def monomials(self):
        return list(itertools.product(*(range(c + 1) for c in self.caps)))

    def _normal(self, expo, coeff):
        expo = list(expo)
        if self.kind == "Fe":
            while expo[0] >= 2:  # C0^2 = -e C0 f
                expo[0] -= 1
                expo[1] += 1
                coeff *= -self.e
        if any(a > c for a, c in zip(expo, self.caps)) or coeff == 0:
            return None
        return tuple(expo), coeff

    def mul(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for ex, cx in x.items():
            for ey, cy in y.items():
                hit = self._normal([a + b for a, b in zip(ex, ey)], cx * cy)
                if hit is not None:
                    out[hit[0]] = out.get(hit[0], 0) + hit[1]
        return {k: v for k, v in out.items() if v}

    def add(self, x: dict, y: dict, scale: int = 1) -> dict:
        out = dict(x)
        for k, v in y.items():
            out[k] = out.get(k, 0) + scale * v
        return {k: v for k, v in out.items() if v}

    def integral(self, x: dict) -> int:
        return x.get(self.top, 0)

    def divisor(self, coeffs) -> dict:
        n = len(self.gens)
        return {
            tuple(int(i == j) for j in range(n)): c for i, c in enumerate(coeffs) if c
        }


# (base kind, rank, built from Chern data?) classes; over P1 every bundle
# splits, so P1 towers always come from twists
_CLASSES = [
    (kind, rank, chern)
    for kind in sorted(_GENS)
    for rank in range(2, MAX_RANK + 1)
    for chern in ((False,) if kind == "P1" else (False, True))
]


@functools.lru_cache(maxsize=2)
def _cycle_order(seed: int, cycle: int) -> tuple:
    order = list(_CLASSES)
    random.Random(f"towers:{seed}:cycle:{cycle}").shuffle(order)
    return tuple(order)


def make_spec(seed: int, i: int) -> dict:
    """Tower spec i of the seed's stream, as plain data.

    The stream walks all classes of (base, rank, construction) in a
    seeded order, once per cycle, so every run of a given length has
    the same mix; e and the coefficients are drawn per operation.
    Coefficient ranges are wide enough that two operations of one run
    almost never draw the same tower; the measured share of distinct
    towers is `chow.tower_build.distinct_ratio`.
    """
    cycle, pos = divmod(i, len(_CLASSES))
    kind, rank, chern = _cycle_order(seed, cycle)[pos]
    rng = random.Random(f"towers:{seed}:{i}")
    e = rng.randint(0, MAX_E) if kind == "Fe" else 0
    ring = BaseRing(kind, e)
    ngens = len(ring.gens)
    spec = {"kind": kind, "e": e, "rank": rank}
    if chern:
        spec["cherns"] = [
            [[list(m), rng.randint(-CHERN_RANGE[k], CHERN_RANGE[k])]
             for m in ring.monomials() if sum(m) == k]
            for k in range(1, min(rank, ring.dim) + 1)
        ]
    else:
        bound = TWIST_RANGE[ngens]
        spec["twists"] = [[rng.randint(-bound, bound) for _ in range(ngens)] for _ in range(rank)]
    spec["divisor"] = [rng.randint(1, 3), [rng.randint(-2, 3) for _ in range(ngens)]]
    return spec


def given_cherns(spec: dict) -> list[dict]:
    """The Chern data of a `chern_tower` spec as exponent -> coefficient dicts."""
    return [{tuple(m): c for m, c in ci if c} for ci in spec["cherns"]]


def chern_classes(spec: dict) -> list[dict]:
    """c_1, ..., c_dim(B) of V, computed on the independent base ring."""
    ring = BaseRing(spec["kind"], spec["e"])
    if "cherns" in spec:
        out = given_cherns(spec)
    else:
        es = [{(0,) * len(ring.gens): 1}]
        for t in spec["twists"]:
            L = ring.divisor(t)
            es.append({})
            for i in range(len(es) - 1, 0, -1):
                es[i] = ring.add(es[i], ring.mul(es[i - 1], L))
        out = es[1:]
    out = out[: ring.dim]
    return out + [{}] * (ring.dim - len(out))


def segre(ring: BaseRing, cherns: list[dict]) -> list[dict]:
    """s_0..s_dim(B) with sum s_k t^k = 1 / (1 - c_1 t + c_2 t^2 - ...)."""
    s = [{(0,) * len(ring.gens): 1}]
    for k in range(1, ring.dim + 1):
        acc: dict = {}
        for i in range(1, k + 1):
            acc = ring.add(acc, ring.mul(cherns[i - 1], s[k - i]), (-1) ** (i + 1))
        s.append(acc)
    return s


def basis(spec: dict) -> dict[int, list[tuple]]:
    """Normal-form monomials (base exponents + z exponent) by degree."""
    ring = BaseRing(spec["kind"], spec["e"])
    out: dict[int, list[tuple]] = {}
    for m in ring.monomials():
        for j in range(spec["rank"]):
            expo = m + (j,)
            out.setdefault(sum(expo), []).append(expo)
    return out


class Workload(common.InProcessWorkload):
    def __init__(self, dp, seed: int):
        self.dp = dp
        self.seed = seed
        # the stream is endless; its first DIGEST_OPS specs identify it
        self.inputs = [self.prepare(i) for i in range(DIGEST_OPS)]

    def prepare(self, i: int) -> dict:
        return make_spec(self.seed, i)

    def run(self, spec: dict):
        """The timed operation: build, pair, integrate."""
        chow = self.dp.chow
        base = chow.Base(spec["kind"], spec["e"])
        B = chow.base_space(base)
        ring = BaseRing(spec["kind"], spec["e"])
        if "twists" in spec:
            A = chow.make_tower(base, [B.from_terms(ring.divisor(t)) for t in spec["twists"]])
        else:
            A = chow.chern_tower(base, spec["rank"], [B.from_terms(c) for c in given_cherns(spec)])
        mons = basis(spec)
        elems = {k: [A.from_terms({m: 1}) for m in ms] for k, ms in mons.items()}
        dim = A.dim
        integrate = chow.integrate
        blocks = [
            [[integrate(x * y) for y in elems.get(dim - k, [])] for x in elems[k]]
            for k in range(dim + 1)
        ]
        fibre = integrate(A.point() * A.zeta ** (spec["rank"] - 1))
        a, beta = spec["divisor"]
        D = a * A.zeta + A.pullback(B.from_terms(ring.divisor(beta)))
        top = integrate(D**dim)
        return {"blocks": blocks, "fibre": fibre, "top": top, "ambient": A}

    def check(self, spec: dict, out) -> bool:
        return check_tower(spec, out, self.seed)


def expected(spec: dict):
    """Pairing blocks and the D^dim integral from the projective bundle formula."""
    ring = BaseRing(spec["kind"], spec["e"])
    r = spec["rank"]
    s = segre(ring, chern_classes(spec))
    mons = basis(spec)
    dim = ring.dim + r - 1

    def pair(x, y):
        k = x[-1] + y[-1] - (r - 1)
        if not 0 <= k <= ring.dim:
            return 0
        return ring.integral(ring.mul(ring.mul({x[:-1]: 1}, {y[:-1]: 1}), s[k]))

    blocks = [[[pair(x, y) for y in mons.get(dim - k, [])] for x in mons[k]] for k in range(dim + 1)]
    a, beta_c = spec["divisor"]
    beta = ring.divisor(beta_c)
    top = 0
    for j in range(r - 1, dim + 1):
        power = {(0,) * len(ring.gens): 1}
        for _ in range(dim - j):
            power = ring.mul(power, beta)
        top += math.comb(dim, j) * a**j * ring.integral(ring.mul(power, s[j - (r - 1)]))
    return blocks, top


def determinant(m: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def check_tower(spec: dict, out, seed: int) -> bool:
    """Check one operation's outputs; see the module docstring."""
    from substitution_oracle import oracle_integrate

    blocks = out["blocks"]
    if any(abs(determinant(b)) != 1 for b in blocks):
        return False
    if out["fibre"] != 1:
        return False
    want_blocks, want_top = expected(spec)
    if blocks != want_blocks or out["top"] != want_top:
        return False
    rng = random.Random(f"oracle:{seed}:{repr(spec)}")
    mons = basis(spec)
    dim = max(mons)
    for _ in range(ORACLE_SAMPLES):
        k = rng.randrange(dim + 1)
        i = rng.randrange(len(mons[k]))
        j = rng.randrange(len(mons[dim - k]))
        expo = tuple(x + y for x, y in zip(mons[k][i], mons[dim - k][j]))
        if oracle_integrate(out["ambient"], [(expo, 1)], seed) != blocks[k][i][j]:
            return False
    return True
