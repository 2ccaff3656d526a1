"""Command line behaviour: golden bytes, exit codes, determinism."""

import argparse
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from delpezzo import chow, cli, render
from delpezzo.catalog import export
from delpezzo.verify import REPORTS, CheckResult, Report

from checkout import child_env

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "delpezzo", *args],
        capture_output=True,
        env=child_env(),
        timeout=120,
    )


def _script(name):
    """The module of `scripts/<name>.py`, loaded from this checkout."""
    script = Path(__file__).parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# golden outputs
# ---------------------------------------------------------------------------


# `SECTIONS` of the script names each golden file and the argv it pins
REPRODUCE_TABLES = _script("reproduce_tables")


@pytest.mark.parametrize(
    "args,golden", [(argv, name) for name, argv in REPRODUCE_TABLES.SECTIONS]
)
def test_golden_bytes(args, golden):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_bytes()


def test_output_is_deterministic():
    first = run_cli("enumerate", "--case", "highdim", "--dim", "5")
    second = run_cli("enumerate", "--case", "highdim", "--dim", "5")
    assert first.stdout == second.stdout
    assert run_cli("export", "--format", "csv").stdout == export("csv")


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_verify_exits_zero_when_green():
    proc = run_cli("verify")
    assert proc.returncode == 0
    assert b"all checks pass" in proc.stdout


def test_show_unknown_id_exits_two():
    proc = run_cli("show", "nosuch")
    assert proc.returncode == 2
    assert b"no family" in proc.stderr


def test_bad_arguments_exit_two():
    assert run_cli("enumerate", "--case", "bogus").returncode == 2
    assert run_cli("export", "--format", "xml").returncode == 2
    assert run_cli().returncode == 2


def test_highdim_below_four_exits_two():
    proc = run_cli("enumerate", "--case", "highdim", "--dim", "3")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.count(b"\n") == 1
    assert b"n = 4" in proc.stderr


def test_unwritable_export_target_exits_two(tmp_path):
    target = tmp_path / "missing" / "x.json"
    proc = run_cli("export", "--format", "json", "--out", str(target))
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.count(b"\n") == 1
    assert b"cannot write" in proc.stderr
    assert not target.exists()


def test_console_script_names_a_cli_callable():
    # read without a TOML parser, which Python 3.10 does not ship
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text("utf-8")
    section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    (line,) = [line for line in section.splitlines() if line.strip()]
    module, _, attr = line.split("=", 1)[1].strip().strip('"').partition(":")
    assert module == "delpezzo.cli"
    assert callable(getattr(cli, attr))


def test_verify_exit_code_reports_failures(monkeypatch, capsys):
    bad = Report(
        title="families",
        checks=(
            CheckResult(
                name="degree-model:ci",
                subject="thm2.1-3",
                expected="3",
                computed="4",
                status="fail",
            ),
        ),
    )
    monkeypatch.setattr("delpezzo.verify.verify_all", lambda: [bad])
    assert cli.run(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL degree-model:ci" in out
    assert "1 checks FAILED" in out


# ---------------------------------------------------------------------------
# cold start: each command imports only the layers it runs
# ---------------------------------------------------------------------------

EVERY_LAYER = {
    "delpezzo",
    "delpezzo.bundles",
    "delpezzo.catalog",
    "delpezzo.chow",
    "delpezzo.cli",
    "delpezzo.enumeration",
    "delpezzo.render",
    "delpezzo.verify",
}


def loaded_layers(argv):
    """The `delpezzo*` modules a fresh interpreter holds after `cli.run(argv)`,
    plus `json` when the command loaded it.

    Only package modules and `json` are compared: `site` may preload stdlib
    ones, so a preloaded `json` is dropped before the import and only the
    command can bring it back.
    """
    code = (
        "import contextlib, io, sys\n"
        "sys.modules.pop('json', None)\n"
        "from delpezzo import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = cli.run({list(argv)!r})\n"
        "print(rc, *sorted(m for m in sys.modules\n"
        "                  if m.split('.')[0] == 'delpezzo' or m == 'json'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rc, *modules = proc.stdout.decode().split()
    assert rc == "0"
    return set(modules)


def test_cold_commands_import_only_their_layers():
    catalog_only = {"delpezzo", "delpezzo.catalog", "delpezzo.cli"}
    assert loaded_layers(["show", "thm3.5-1"]) == catalog_only
    assert loaded_layers(["export", "--format", "csv"]) == catalog_only
    # `enumerate` loads `render` to print its result, as a table or as
    # JSON; no other command loads it
    engine = EVERY_LAYER - {"delpezzo.verify"}
    assert loaded_layers(["enumerate", "--case", "quadric"]) == engine
    json_argv = ["enumerate", "--case", "quadric", "--format", "json"]
    assert loaded_layers(json_argv) == engine | {"json"}
    # text output leaves `json` unloaded, so the set is the package alone
    assert loaded_layers(["verify", "--only", "flops"]) == EVERY_LAYER - {
        "delpezzo.render"
    }


# ---------------------------------------------------------------------------
# content spot checks
# ---------------------------------------------------------------------------


def test_show_resolves_alias(capsys):
    assert cli.run(["show", "V2.2"]) == 0
    out = capsys.readouterr().out
    assert "thm2.1-2" in out
    assert "quartic" in out or "degree" in out


def test_json_format_parses():
    proc = run_cli("enumerate", "--case", "p2bundle", "--format", "json")
    payload = json.loads(proc.stdout.decode("utf-8"))
    assert len(payload["candidates"]) == 4
    assert len(payload["exclusions"]) == 1
    assert payload["candidates"][0]["family"] == "thm3.5-1"


def test_quadric_json_lists_all_verdicts():
    proc = run_cli("enumerate", "--case", "quadric", "--format", "json")
    payload = json.loads(proc.stdout.decode("utf-8"))
    assert len(payload) == 38
    smalls = [row for row in payload if row["verdict"] == "Small"]
    assert len(smalls) == 6


def test_quadric_table_prints_a_small_verdict_without_family(monkeypatch, capsys):
    # with a label missing, the Small verdict prints "-" for its family,
    # as the partner column does, and the command exits 0: reporting the
    # gap is `verify`'s work
    from delpezzo import enumeration

    labels = {a: f for a, f in enumeration.QUADRIC_FAMILIES.items() if f != "thm3.4-1"}
    monkeypatch.setattr(enumeration, "QUADRIC_FAMILIES", labels)
    table = enumeration.enumerate_quadric_fibrations.__wrapped__()
    monkeypatch.setattr(enumeration, "enumerate_quadric_fibrations", lambda: table)
    assert cli.run(["enumerate", "--case", "quadric"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    small_table = captured.out.split("\n\n")[2].split("\n")[2:]
    rows = [line.split() for line in small_table]
    assert rows[0] == ["-", "0", "0", "0", "0", "2", "2", "-"]
    assert [row[0] for row in rows[1:]] == [f"thm3.4-{i}" for i in range(2, 7)]


def test_blowup_table_without_exclusions_has_no_excluded_block(monkeypatch, capsys):
    # with degree 6 planted in Fujita's list every degree of the window is
    # a candidate, and the table ends after its five rows
    from delpezzo import enumeration

    monkeypatch.setattr(enumeration, "FUJITA_RANK1_DEGREES", (2, 3, 4, 5, 6, 8))
    enumeration.enumerate_point_blowups.cache_clear()
    try:
        assert cli.run(["enumerate", "--case", "blowup"]) == 0
    finally:
        enumeration.enumerate_point_blowups.cache_clear()
    out = capsys.readouterr().out
    assert "excluded:" not in out
    rows = out.rstrip("\n").split("\n")[4:]
    assert [row.split()[0] for row in rows] == [str(d) for d in range(1, 6)]


def test_rho3_table_prints_a_candidate_without_record(monkeypatch, capsys):
    # a candidate whose family has no record prints "-" for psi, as the
    # partner column does, and the command exits 0
    from delpezzo import catalog

    monkeypatch.delitem(catalog._BY_ID, "thm4.1-p1p1-c7")
    assert cli.run(["enumerate", "--case", "rho3"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split()[:4] for line in captured.out.split("\n\n")[1].split("\n")]
    assert rows[-1] == ["7", "1", "thm4.1-p1p1-c7", "-"]


def test_rho3_surface_flag(capsys):
    assert cli.run(["enumerate", "--case", "rho3", "--surface", "f2"]) == 0
    f2_out = capsys.readouterr().out
    assert "mirrored" in f2_out
    assert cli.run(["enumerate", "--case", "rho3"]) == 0
    default_out = capsys.readouterr().out
    assert "mirrored" not in default_out  # default base is P1 x P1


def test_searches_and_renderers_name_the_same_cases():
    # the `--case` choices come from `cli._ENUMERATIONS`, and each case
    # needs its renderer in `render.BLOCKS`: one list of names, one order
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (case,) = [a for a in sub.choices["enumerate"]._actions if a.dest == "case"]
    cases = ["quadric", "p2bundle", "blowup", "rho3", "highdim"]
    assert list(case.choices) == cases
    assert list(cli._ENUMERATIONS) == cases
    assert list(render.BLOCKS) == cases


@pytest.mark.parametrize("case", list(render.BLOCKS))
def test_renderers_leave_blank_lines_to_the_join(case):
    # `_cmd_enumerate` joins a renderer's blocks with one blank line, the
    # only place one is written: no block holds an empty line of its own
    from delpezzo import enumeration

    args = cli._build_parser().parse_args(["enumerate", "--case", case])
    blocks = render.BLOCKS[case](cli._ENUMERATIONS[case](enumeration, args), args)
    assert len(blocks) >= 2
    assert all("" not in block.split("\n") for block in blocks)


def test_verify_only_unknown_name_exits_two(capsys):
    assert cli.run(["verify", "--only", "nosuch"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("delpezzo: error: ")
    assert "'nosuch'" in captured.err
    for name in REPORTS:
        assert name in captured.err


@pytest.mark.parametrize("name", list(REPORTS))
def test_verify_only_accepts_every_report(name, capsys):
    assert cli.run(["verify", "--only", name]) == 0
    assert f"report {name}:" in capsys.readouterr().out


def test_verify_only_selects_one_report(capsys):
    assert cli.run(["verify", "--only", "constructions"]) == 0
    out = capsys.readouterr().out
    assert "report constructions:" in out
    assert "report flops:" not in out


def test_export_to_file(tmp_path, capsys):
    out_path = tmp_path / "catalog.csv"
    assert cli.run(["export", "--format", "csv", "--out", str(out_path)]) == 0
    assert out_path.read_bytes() == export("csv")
    assert "wrote" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# scripts/reproduce_tables.py
# ---------------------------------------------------------------------------


def assert_golden_set(out):
    """`out` holds exactly the files of `tests/golden/`, each byte-equal."""
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(p.name for p in GOLDEN.iterdir())
    for name in written:
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_reproduce_tables_writes_the_golden_outputs(tmp_path):
    assert REPRODUCE_TABLES.main(["--out", str(tmp_path)]) == 0
    assert_golden_set(tmp_path)


def test_reproduce_tables_runs_from_a_bare_checkout(tmp_path):
    # no PYTHONPATH and a working directory outside the checkout: the
    # script finds the package in its own checkout's `src/`
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, REPRODUCE_TABLES.__file__, "--out", "tables"],
        capture_output=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert_golden_set(tmp_path / "tables")


def test_reproduce_tables_unwritable_out_exits_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "tables"
    assert REPRODUCE_TABLES.main(["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"reproduce_tables: error: cannot write {out}: ")


# ---------------------------------------------------------------------------
# scripts/deep_towers.py
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 5, 6])
def test_full_flag_varieties_integrate_by_the_weyl_formula(n):
    # Fl(n) as the script stacks it, n - 1 Chern-data towers over the
    # point: D = sum k z_k has D^N = (-1)^((n-1)(n-2)/2) N!, N = dim Fl(n)
    A, levels = _script("deep_towers").flag_variety(chow, n)
    N = n * (n - 1) // 2
    assert A.dim == N and [L.rank for L in levels] == list(range(n, 1, -1))
    D = sum((k * A.gen(g) for k, g in enumerate(A.gen_names, start=1)), A.zero())
    assert chow.integrate(D**N) == (-1) ** ((n - 1) * (n - 2) // 2) * math.factorial(N)


def test_deep_towers_refuses_a_max_n_that_checks_nothing(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["deep_towers.py", "--max-n", "4"])
    assert _script("deep_towers").main() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "deep_towers: error: --max-n must be at least 5, got 4\n"


# ---------------------------------------------------------------------------
# scripts/cli_digest.py, in-process
# ---------------------------------------------------------------------------

# sha256 over the argv, exit code, stdout and stderr of every argv of
# `scripts/cli_digest.runs()`, run in-process through `cli.run`
CLI_OUTPUT_SHA256 = "53b85076f92c326cd73fe6c697c3e55bc3145df79e652e471036aebcd385aad0"


def test_every_cli_output_is_pinned(tmp_path, monkeypatch, capsys):
    # an empty working directory, so the relative `--out` names a missing
    # directory and nothing is written
    monkeypatch.chdir(tmp_path)
    argvs = _script("cli_digest").runs()
    digest = hashlib.sha256()
    for argv in argvs:
        code = cli.run(argv)
        out, err = capsys.readouterr()
        digest.update(repr((argv, code, out, err)).encode())
    assert len(argvs) == 99
    assert list(tmp_path.iterdir()) == []
    assert digest.hexdigest() == CLI_OUTPUT_SHA256


# the same digest from a `python -O` child, which strips every `assert`
# statement: the package holds none, so its output cannot depend on them
OPTIMIZED_DIGEST = """\
import contextlib, hashlib, io, sys
sys.path.insert(0, {scripts!r})
from cli_digest import runs
from delpezzo import cli
digest = hashlib.sha256()
for argv in runs():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    digest.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
print(sys.flags.optimize, digest.hexdigest())
"""


def test_every_cli_output_is_pinned_under_optimize(tmp_path):
    scripts = str(Path(__file__).parents[1] / "scripts")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_DIGEST.format(scripts=scripts)],
        capture_output=True,
        cwd=tmp_path,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split() == ["1", CLI_OUTPUT_SHA256]
    assert list(tmp_path.iterdir()) == []
