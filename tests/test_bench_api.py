"""The engine API that the `towers` benchmark reads, run on one full cycle.

`bench/towers.py` builds each tower through `chow.Base(kind, e)`,
`chow.base_space`, `from_terms` on exponent vectors in printed base order
(then z), `make_tower` or `chern_tower`, `point`, `zeta` and `pullback`,
and checks it with `oracle_integrate` from the test suite;
`bench/tracer.py` reads `A.base.kind` and `A.base.e`.  The first
`len(towers._CLASSES)` specs of a seed visit every base, rank and
construction once, so a change that breaks one of these reads fails
here before the benchmark runs.
"""

from pathlib import Path

import delpezzo

ROOT = Path(__file__).resolve().parent.parent


def test_one_towers_cycle_runs_and_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tests"))
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import towers

    seed = 1
    workload = towers.Workload(delpezzo, seed)
    cycle = workload.inputs[: len(towers._CLASSES)]
    assert len(cycle) == 135
    assert {(s["kind"], s["rank"], "cherns" in s) for s in cycle} == set(towers._CLASSES)
    for spec in cycle:
        out = workload.run(spec)
        assert out["fibre"] == 1
        assert towers.check_tower(spec, out, seed), spec
        A = out["ambient"]
        assert (A.base.kind, A.base.e) == (spec["kind"], spec["e"])
    chow = delpezzo.chow
    assert chow.base_space(chow.Base("Fe", 3)) is chow.Fe(3)
