"""Tests of the benchmark itself: its output checks must reject wrong
outputs, and its definitions must match BENCHMARK.json.

    python3 -m pytest bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import audit  # noqa: E402
import cli  # noqa: E402
import common  # noqa: E402
import towers  # noqa: E402
from tracer import COUNT_METRICS, PER_LAYER, Tracer  # noqa: E402

dp = common.import_delpezzo()

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _h(coeff):
    return [[[1], coeff]]


def test_towers_check_rejects_numbers_of_another_tower():
    # make_tower(P2, [2h, h, 0, 0]) and chern_tower(P2, 4, [3h, 0]) share
    # c1 and the monomial basis but not c2, so only the pairing numbers
    # tell them apart
    claimed = {"kind": "P2", "e": 0, "rank": 4, "twists": [[2], [1], [0], [0]],
               "divisor": [1, [1]]}
    impostor = {"kind": "P2", "e": 0, "rank": 4, "cherns": [_h(3), []],
                "divisor": [1, [1]]}
    wl = towers.Workload(dp, seed=0)
    honest = wl.run(claimed)
    assert wl.check(claimed, honest)
    swapped = dict(wl.run(impostor), ambient=honest["ambient"])
    assert all(abs(towers.determinant(b)) == 1 for b in swapped["blocks"])
    assert swapped["fibre"] == 1
    assert not wl.check(claimed, swapped)


def test_towers_stream_is_seeded_and_distinct():
    a, b = towers.Workload(dp, seed=5), towers.Workload(dp, seed=5)
    assert common.digest(a.inputs) == common.digest(b.inputs)
    assert common.digest(a.inputs) != common.digest(towers.Workload(dp, seed=6).inputs)
    keys = [repr({k: v for k, v in s.items() if k != "divisor"}) for s in a.inputs]
    assert len(set(keys)) >= 0.99 * len(keys)


def test_audit_noop_mutation_counts_as_failed():
    wl = audit.Workload(dp, seed=0)
    r = wl.records[0]
    noop = (r.id, "degree", r.degree)
    x = (noop, audit.mutate(wl.records, noop))
    assert wl.run(x) == 0
    assert not wl.check(x, wl.run(x))


def test_audit_space_and_interleaving():
    wl = audit.Workload(dp, seed=0)
    assert len(set(wl.space)) == len(wl.space) > 1500
    ops = [wl.mutation(i) for i in range(40)]
    assert [i for i, m in enumerate(ops) if m is None] == list(range(0, 40, audit.PRISTINE_EVERY))
    assert all(wl.check(wl.prepare(i), wl.run(wl.prepare(i))) for i in (0, 1, 2))


def test_cli_check_rejects_altered_bytes():
    wl = cli.Workload(dp, seed=0)
    argv = ("show", "thm3.5-1")
    expected = wl.expected[argv]
    out = wl.run(argv)
    assert wl.check(argv, out)
    altered = bytes([expected[0] ^ 1]) + expected[1:]
    assert not cli.check_output(out[0], out[1], altered)
    assert not cli.check_output(1, expected, expected)


def test_tracer_counts_repeat_and_restore():
    wl = audit.Workload(dp, seed=3)
    import delpezzo.chow

    mul = delpezzo.chow.ChowElement.__mul__
    runs = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            for i in range(3):
                tracer.op = i
                wl.run(wl.prepare(i))
        finally:
            tracer.uninstall()
        runs.append(tracer.metrics())
    assert delpezzo.chow.ChowElement.__mul__ is mul
    assert all(runs[0][m] == runs[1][m] for m in runs[0] if m in COUNT_METRICS)
    assert runs[0]["verify.families.calls"] == 3
    assert runs[0]["chow.mul.calls"] > 0


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [m["name"] for m in SPEC["per_layer"]] == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == ["audit", "towers", "cli"]
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mib", "ok_ratio"
    }
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("n,percentile", [(1000, 99.0), (200, 95.0), (100, 90.0)])
def test_tail_keeps_ten_samples_beyond(n, percentile):
    assert common.samples_beyond(n, percentile) == 10
    assert common.tail(list(range(n)), percentile) == n - 11
