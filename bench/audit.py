"""`audit`: one operation is one catalog verified.

The catalog is either the built-in one (pristine) or a copy with one
planted single-field error.  The mutation space is one the
verification catches in full: every degree d +- 1..3 (and the value 7)
on records that have construction models, every removed or wrong flop
partner, and every wrong smoothing id; 1797 distinct mutations for the
55-record catalog.  The seed shuffles that space; every
PRISTINE_EVERY-th operation is pristine.

Each operation runs the four catalog reports the mutation sweep of the
test suite runs.  A pristine catalog must give 0 failed checks, a mutated
one at least 1.
"""

from __future__ import annotations

import dataclasses
import random

import common

OP_UNIT = "one catalog verified by four reports"
TAIL_PERCENTILE = 95.0
TRACE_OPS = 120
PRISTINE_EVERY = 8
DEGREE_DELTAS = (1, -1, 2, -2, 3, -3)
PROBED_DEGREE = 7
PROBE_NOMINAL_NS = common.PROBE_NOMINAL_NS


def mutation_space(records, construction_models) -> list[tuple]:
    """Every planted error as (record id, field, new value)."""
    ids = [r.id for r in records]
    space = []
    for r in records:
        if construction_models(r.id):
            for value in [r.degree + d for d in DEGREE_DELTAS] + [PROBED_DEGREE]:
                if value >= 1 and value != r.degree:
                    space.append((r.id, "degree", value))
        if r.flop_partner is not None:
            space.append((r.id, "flop_partner", None))
            space += [(r.id, "flop_partner", o) for o in ids if o != r.flop_partner]
        if r.smoothing is not None:
            space += [(r.id, "smoothing", o) for o in ids if o != r.smoothing]
    return list(dict.fromkeys(space))


def mutate(records, mutation):
    if mutation is None:
        return list(records)
    rid, fname, value = mutation
    return [dataclasses.replace(r, **{fname: value}) if r.id == rid else r for r in records]


class Workload(common.InProcessWorkload):
    def __init__(self, dp, seed: int):
        import delpezzo.verify

        self.verify = delpezzo.verify
        self.records = dp.catalog.builtin_catalog()
        self.space = mutation_space(self.records, dp.catalog.construction_models)
        self._rng = random.Random(f"audit:{seed}")
        self._order: list = []
        # one full cycle through the space identifies the stream
        cycle = len(self.space) * PRISTINE_EVERY // (PRISTINE_EVERY - 1) + 1
        self.inputs = [self.mutation(i) for i in range(cycle)]

    def mutation(self, i: int):
        """The planted error of operation i, or None for a pristine catalog."""
        if i % PRISTINE_EVERY == 0:
            return None
        k = i - i // PRISTINE_EVERY - 1
        while len(self._order) <= k:
            batch = list(self.space)
            self._rng.shuffle(batch)
            self._order += batch
        return self._order[k]

    def prepare(self, i: int):
        m = self.mutation(i)
        return m, mutate(self.records, m)

    def run(self, x) -> int:
        """The timed operation: failed checks over the four reports."""
        _, catalog = x
        V = self.verify
        reports = (
            V.verify_families(catalog),
            V.verify_flops(catalog),
            V.verify_smoothings(catalog),
            V.verify_enumeration_matches_catalog(catalog),
        )
        return sum(rep.failed for rep in reports)

    def check(self, x, failed_checks: int) -> bool:
        mutation, _ = x
        return failed_checks == 0 if mutation is None else failed_checks >= 1
