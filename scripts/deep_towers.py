#!/usr/bin/env python3
"""Time the engine on full flag varieties Fl(n), n = 5..8, built as
stacks of Chern-data towers.

Fl(n) is P^(n-1) over the point, then at each level the projective
bundle of the kernel K of pi^*V -> O(1) of the level below, with
c(K) = c(V) / (1 + z): n - 1 towers of ranks n, n - 1, ..., 2, of
dimension N = n(n - 1)/2.  With z_k the tautological class of level k,
the script integrates D^N for D = sum_k k z_k, whose weight is rho up
to sign, so the Weyl dimension formula gives the degree
(-1)^((n - 1)(n - 2)/2) N!, checked for every n.  For n <= 5 the
substitution oracle of the test suite also rebuilds the power one
factor at a time: each D^(k+1), term by term from the engine's D^k, and
the integral of the last product (not timed).  The brute-force oracle
takes seconds per monomial on Fl(6), so it stops at Fl(5).

Each Fl(n) up to Fl(7) is built and integrated RUNS times in this
process, each time as a fresh stack after a garbage collection, and
Fl(8) once, since one run takes about a minute.  It prints the median
and the range of the times to build the stack and integrate D^N (one
run on a shared host varies by a third), the number of entries in the
memos of all the stack's levels, and the peak resident memory of the
process so far (`ru_maxrss`, which never goes down, so each line bounds
the runs before it too).  Only the first run of an Fl(n) builds the
per-shape tables of unit monomials; the later ones share them, as any
later tower of a shape met before does.

    python3 scripts/deep_towers.py [--max-n 8]

The package is loaded from `src/` and the oracle from `tests/` of the
checkout this script lives in.  Fl(5) .. Fl(7), five runs each, take
about three seconds in all on a 2-core x86-64 host, and Fl(8) about a
minute.
"""

import argparse
import gc
import resource
import sys
import time
from math import factorial
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
ORACLE_MAX_N = 5
RUNS = 5  # per Fl(n) for n <= REPEAT_MAX_N, and one run above it
REPEAT_MAX_N = 7


def flag_variety(chow, n: int):
    """Fl(n) as a stack of towers over the point, and its levels, bottom up."""
    A = chow.Base("pt")
    c, levels = [A.one()], []  # c_0, c_1, ... of V on the current top
    for rank in range(n, 1, -1):
        d = min(rank, A.dim)
        A = chow.chern_tower(A, rank, [c[i] if i < len(c) else A.zero() for i in range(1, d + 1)])
        levels.append(A)
        pulled = [A.pullback(x) for x in c]
        # c_i(K) = c_i(V) - z c_(i-1)(K), for K of rank - 1
        kernel = [A.one()]
        for i in range(1, rank):
            kernel.append((pulled[i] if i < len(pulled) else A.zero()) - A.zeta * kernel[-1])
        c = kernel
    return A, levels


def oracle_power(A, D, oracle_reduce, oracle_integrate) -> int:
    """The integral of D^dim by the oracle, one factor at a time.

    Each D^(k+1) is reduced by the oracle from the engine's D^k times D,
    one raw term at a time, and must equal the engine's D^(k+1).
    """
    x = D
    for _ in range(A.dim - 2):
        want: dict = {}
        for m, c in x.terms.items():
            for g, k in D.terms.items():
                raw = tuple(a + b for a, b in zip(m, g))
                for e, v in oracle_reduce(A, [(raw, c * k)]).items():
                    want[e] = want.get(e, 0) + v
        x = x * D
        if {e: v for e, v in want.items() if v} != x.terms:
            raise AssertionError(f"oracle and engine disagree on a power of D on {A!r}")
    raw = [
        (tuple(a + b for a, b in zip(m, g)), c * k)
        for m, c in x.terms.items()
        for g, k in D.terms.items()
    ]
    return sum(oracle_integrate(A, [term]) for term in raw)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=8)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from delpezzo import chow
    from substitution_oracle import oracle_integrate, oracle_reduce

    for n in range(5, args.max_n + 1):
        times = []
        for _ in range(RUNS if n <= REPEAT_MAX_N else 1):
            A = levels = D = None  # the last run's stack is collected untimed
            gc.collect()
            start = time.perf_counter()
            A, levels = flag_variety(chow, n)
            D = sum((k * A.gen(g) for k, g in enumerate(A.gen_names, start=1)), A.zero())
            value = chow.integrate(D**A.dim)
            times.append(1000 * (time.perf_counter() - start))
            if value != (-1) ** ((n - 1) * (n - 2) // 2) * factorial(A.dim):
                print(f"Fl({n}): integral {value} is not +-{A.dim}!")
                return 1
        memo = sum(len(L._memo) for L in levels)
        check = "closed form"
        if n <= ORACLE_MAX_N:
            if oracle_power(A, D, oracle_reduce, oracle_integrate) != value:
                print(f"Fl({n}): the oracle's integral differs from {value}")
                return 1
            check += " + oracle"
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        print(
            f"Fl({n})  dim {A.dim:2d}  median {median(times):9.1f} ms"
            f"  range {min(times):.1f}-{max(times):.1f} ms ({len(times)} runs)"
            f"  memo {memo:7d}  peak RSS {rss:6.1f} MiB  {check} ok"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
