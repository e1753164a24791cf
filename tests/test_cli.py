import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from circlecolor import bnb, cli, instances, simplex
from circlecolor.cli import main
from circlecolor.errors import InstanceFormatError, NumericalFailureError
from circlecolor.intervals import format_instance, parse_instance
from test_mwis import _solve_mwis_reference

GOLDEN = Path(__file__).parent / "golden"
C5_FILE = str(GOLDEN / "c5.txt")


def run_cli(args, expect=0):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    assert code == expect, (args, code)
    return buf.getvalue()


def golden(name: str) -> str:
    return (GOLDEN / name).read_text()


def test_solve_human_golden():
    assert run_cli(["solve", C5_FILE, "--clique"]) == golden("solve.txt")


def test_solve_json_golden():
    out = run_cli(["solve", C5_FILE, "--json", "--no-timing", "--clique"])
    assert out == golden("solve.json")
    payload = json.loads(out)
    assert payload["chi"] == 3
    assert payload["chi_f"] == 2.5
    assert payload["omega"] == 2
    assert payload["schema_version"] == 1
    assert "timings" not in payload


def test_json_repeatable():
    a = run_cli(["solve", C5_FILE, "--json", "--no-timing"])
    b = run_cli(["solve", C5_FILE, "--json", "--no-timing"])
    assert a == b


def test_relax_golden():
    assert run_cli(["relax", C5_FILE, "--json", "--no-timing"]) == golden("relax.json")


def test_mwis_golden():
    assert run_cli(["mwis", C5_FILE, "--json"]) == golden("mwis.json")
    out = run_cli(["mwis", C5_FILE, "--weights", "1,1,1,1,1", "--json"])
    assert out == golden("mwis.json")


def test_stacks_golden():
    out = run_cli(["stacks", C5_FILE, "--height", "2", "--json", "--no-timing"])
    assert out == golden("stacks.json")


def test_gen_golden_and_trivial():
    assert run_cli(["gen", "-n", "5", "--seed", "7", "--count", "2"]) == golden("gen.txt")
    out = run_cli(["gen", "-n", "1", "--seed", "7"])
    assert out.strip().splitlines() == ["1", "1 2"]


def test_export_goldens():
    out = run_cli(["export", C5_FILE, "--formulation", "cg", "--format", "lp"])
    assert out == golden("export_cg.lp")
    assert out == golden("c5_cg.lp")
    assert run_cli(["export", C5_FILE, "--format", "dimacs"]) == golden("export.dimacs")


def test_export_cgh_goldens():
    args = ["export", C5_FILE, "--formulation", "cgh", "--height", "2", "--format"]
    assert run_cli(args + ["lp"]) == golden("c5_cgh2.lp")
    assert run_cli(args + ["mps"]) == golden("c5_cgh2.mps")


def test_export_mps_matches_writer_golden():
    out = run_cli(["export", C5_FILE, "--formulation", "cg", "--format", "mps"])
    assert out == golden("c5_cg.mps")


def test_export_to_file_writes_sidecar(tmp_path):
    target = tmp_path / "model.lp"
    run_cli(["export", C5_FILE, "--format", "lp", "-o", str(target)])
    assert target.read_text() == golden("c5_cg.lp")
    meta = json.loads((tmp_path / "model.lp.meta.json").read_text())
    assert meta["metadata"]["formulation"] == "CG"
    assert meta["metadata"]["relaxed"] is False
    for formulation in ("cg", "cgh", "cl", "as"):
        relaxed = tmp_path / f"{formulation}.lp"
        run_cli(["export", C5_FILE, "--formulation", formulation, "--relax", "-o", str(relaxed)])
        meta = json.loads((tmp_path / f"{formulation}.lp.meta.json").read_text())
        assert meta["metadata"]["relaxed"] is True
        assert "Binary" not in relaxed.read_text() and "General" not in relaxed.read_text()


def test_verify_golden():
    assert run_cli(["verify", "--n-max", "6", "--trials", "5", "--seed", "3"]) == golden("verify.txt")


def test_verify_checks_omega(capsys, monkeypatch):
    monkeypatch.setattr(cli, "max_clique_exact", lambda graph: graph.n + 1)
    run_cli(["verify", "--n-max", "4", "--trials", "2", "--seed", "3"], expect=3)
    assert "FAIL trial 0: omega " in capsys.readouterr().err


def test_verify_checks_stacks(capsys, monkeypatch):
    monkeypatch.setattr(cli, "stacks_exact", lambda rep, graph, height: rep.n + 1)
    run_cli(["verify", "--n-max", "4", "--trials", "2", "--seed", "3"], expect=3)
    err = capsys.readouterr().err
    assert "FAIL trial 0: stacks " in err and " at H = 1" in err and "stacks LP" not in err
    monkeypatch.undo()
    monkeypatch.setattr(cli, "stacks_lp_exact", lambda rep, graph, height: rep.n + 0.5)
    run_cli(["verify", "--n-max", "4", "--trials", "2", "--seed", "3"], expect=3)
    assert "FAIL trial 1: stacks LP " in capsys.readouterr().err


def test_bench_csv_shape():
    out = run_cli(["bench", "--n", "3,4", "--samples", "4", "--seed", "2"])
    lines = out.strip().splitlines()
    assert lines[0] == "|V|,|E|,Ours,# ω = χ,# χ_f = χ,max. χ - χ_f"
    assert len(lines) == 3
    assert lines[1].startswith("3,") and lines[2].startswith("4,")


def test_bench_reports_failed_solves(capsys, monkeypatch):
    def fail(rep, options=None):
        raise NumericalFailureError("no progress")

    monkeypatch.setattr(instances, "solve_chromatic", fail)
    with pytest.warns(UserWarning, match="failed: no progress"):
        out = run_cli(["bench", "--n", "3,4", "--samples", "2", "--seed", "2"], expect=3)
    assert out.splitlines()[0] == "|V|,|E|,Ours,# ω = χ,# χ_f = χ,max. χ - χ_f"
    assert len(out.splitlines()) == 3
    assert capsys.readouterr().err == "error: 4 of 4 instances failed\n"


def test_oversized_tableau_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(simplex, "_MAX_TABLEAU_BYTES", 64)
    for cmd in (["solve", C5_FILE], ["relax", C5_FILE], ["stacks", C5_FILE, "--height", "2"]):
        assert run_cli(cmd, expect=3) == ""
        assert "tableau needs" in capsys.readouterr().err


def test_solve_writes_certificate(tmp_path):
    cert = tmp_path / "cert.txt"
    run_cli(["solve", C5_FILE, "-o", str(cert)])
    lines = cert.read_text().strip().splitlines()
    assert len(lines) == 5
    assert all(len(ln.split()) == 3 for ln in lines)


def test_stacks_writes_plan(tmp_path):
    plan = tmp_path / "plan.txt"
    run_cli(["stacks", C5_FILE, "--height", "2", "-o", str(plan)])
    rows = [ln.split() for ln in plan.read_text().strip().splitlines()]
    assert sorted(int(v) for row in rows for v in row) == [1, 2, 3, 4, 5]


def test_gen_to_files(tmp_path):
    base = tmp_path / "inst.txt"
    run_cli(["gen", "-n", "4", "--seed", "9", "--count", "3", "-o", str(base)])
    for k in range(3):
        rep = parse_instance((tmp_path / f"inst.txt.{k:03d}").read_text())
        assert rep.n == 4


def test_exit_codes(tmp_path):
    run_cli(["nonsense"], expect=1)
    run_cli(["solve"], expect=1)
    missing = str(tmp_path / "missing.txt")
    run_cli(["solve", missing], expect=2)
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 2\n")
    run_cli(["solve", str(bad)], expect=2)


@pytest.mark.parametrize("args", [["solve"], ["relax"], ["mwis"], ["stacks", "--height", "2"],
                                  ["export"]])
def test_unreadable_instance_paths_exit_2(tmp_path, capsys, args):
    undecodable = tmp_path / "bytes.txt"
    undecodable.write_bytes(b"\xff\xfe")
    for path in (undecodable, tmp_path):  # text that is not UTF-8, then a directory
        run_cli([args[0], str(path), *args[1:]], expect=2)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("args", [["solve", C5_FILE, "--json", "--no-timing", "--clique", "-v"],
                                  ["stacks", C5_FILE, "--height", "2", "-v"]])
def test_verbose_logs_one_line_per_node_to_stderr(capsys, args):
    out = run_cli(args)
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert re.fullmatch(r"node depth=0 bound=3 incumbent=3 pivots=\d+", lines[0])
    if args[0] == "solve":
        assert out == golden("solve.json")


def test_env_tolerance_honored(monkeypatch):
    monkeypatch.setenv("CIRCLECOLOR_TOL", "1e-8")
    assert run_cli(["relax", C5_FILE]).strip() == "chi_f=2.5"


def test_mwis_negative_weights_after_a_space():
    spaced = run_cli(["mwis", C5_FILE, "--weights", "-3,1,2,-1.5,1", "--json"])
    assert spaced == run_cli(["mwis", C5_FILE, "--weights=-3,1,2,-1.5,1", "--json"])
    payload = json.loads(spaced)
    assert payload["value"] == 3.0 and payload["set"] == [3, 5]
    run_cli(["mwis", C5_FILE, "--weights", "a,1,1,1,1"], expect=2)


# Every typed error of the instance parser with its text: parse_instance
# raises it as InstanceFormatError, and the CLI turns it into exit code 2.
BAD_INSTANCES = [
    ("2\n1 2 3\n3 4\n", "bad interval line: '1 2 3'"),
    ("2\n1\n3 4\n", "bad interval line: '1'"),
    ("2\n1 x\n3 4\n", "bad interval line: '1 x'"),
    ("3\n1 x\n1 2 3\n5 6\n", "bad interval line: '1 x'"),  # the first bad line
    ("3\n3 2\n2 1\n1 4\n", "endpoint 2 appears twice"),  # 1 repeats too, later
    ("3\n2 3\n3 4\n1 1\n", "degenerate interval (1, 1)"),  # before any repeat
    ("3\n1 2\n3 4\n", "expected 3 interval lines, found 2"),
    ("x\n1 2\n", "bad vertex count line: 'x'"),
    ("0\n", "no intervals given"),
    ("# only a comment\n\n", "empty instance file"),
]


@pytest.mark.parametrize("text, message", BAD_INSTANCES)
def test_parse_instance_errors_keep_their_text(tmp_path, capsys, text, message):
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(text)
    assert str(err.value) == message
    path = tmp_path / "bad.txt"
    path.write_text(text)
    run_cli(["mwis", str(path), "--json"], expect=2)
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("k", range(3))
def test_mwis_json_matches_the_reference_label_dp(tmp_path, k):
    # beyond the C5 golden: the whole CLI path at a size with deep nesting
    rep = instances.generate_one(120, 31, k)
    rng = random.Random(k)
    ints = [rng.randint(-5, 5) for _ in rep.vertices]
    path = tmp_path / "rep.txt"
    path.write_text(format_instance(rep))
    out = run_cli(["mwis", str(path), f"--weights={','.join(map(str, ints))}", "--json"])
    weights = {v: float(w) for v, w in zip(rep.vertices, ints)}
    value, ell, chosen = _solve_mwis_reference(rep, weights)
    want = {"command": "mwis", "value": value, "set": sorted(chosen),
            "labels": {str(v): ell[v] for v in sorted(ell)}, "schema_version": cli.SCHEMA_VERSION}
    assert out == json.dumps(want, sort_keys=True) + "\n"


def test_mwis_rejects_non_finite_weights():
    for bad in ("nan", "inf", "-inf"):
        run_cli(["mwis", C5_FILE, f"--weights={bad},1,1,1,1"], expect=2)


def _usage_error(capsys, args):
    """Run args, expect exit 1, and return the error line, which must be
    the last line of stderr and come with no traceback."""
    capsys.readouterr()
    run_cli(args, expect=1)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err.strip().splitlines()[-1]


def test_bad_tolerances_are_usage_errors(capsys):
    # relax never branches, so --int-tol is checked on solve
    for command, flag in (("relax", "--feas-tol"), ("relax", "--opt-tol"), ("solve", "--int-tol")):
        for value in ("-1", "0", "nan", "inf", "abc"):
            line = _usage_error(capsys, [command, C5_FILE, flag, value])
            assert f"argument {flag}: expected a finite number > 0" in line


def test_an_int_tol_of_one_half_or_more_is_a_usage_error(capsys):
    # every number lies within 0.5 of an integer, so at such a tolerance
    # branch-and-bound could never branch
    for args in (["solve", C5_FILE], ["stacks", C5_FILE, "--height", "2"], ["bench", "--n", "5"],
                 ["verify"]):
        for value in ("0.5", "0.75", "1"):
            line = _usage_error(capsys, [*args, "--int-tol", value])
            assert line.endswith(f"argument --int-tol: expected a finite number > 0 and < 0.5, "
                                 f"got {value!r}"), args
    assert run_cli(["solve", C5_FILE, "--int-tol", "0.49"]) == "chi=3 chi_f=2.5\n"


def test_bad_counts_are_usage_errors(capsys):
    for args in (["gen", "-n", "0"], ["gen", "-n", "3", "--count", "0"],
                 ["verify", "--n-max", "0"], ["verify", "--trials", "-2"],
                 ["gen", "-n", "2.5"], ["bench", "--n", "a"], ["bench", "--n", "3,0"],
                 ["bench", "--n", "3", "--samples", "0"], ["stacks", C5_FILE, "--height", "0"],
                 ["export", C5_FILE, "--height", "0"],
                 ["export", C5_FILE, "--formulation", "cl", "--colors", "0"],
                 ["verify", "--n-max", "13"]):
        line = _usage_error(capsys, args)
        assert f"argument {args[-2]}: expected an integer >= 1" in line


def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys):
    for args in (["relax", C5_FILE, "-v"], ["relax", C5_FILE, "--int-tol", "0.3"],
                 ["mwis", C5_FILE, "--feas-tol", "1e-8"],
                 ["mwis", C5_FILE, "--no-timing"], ["export", C5_FILE, "--json"],
                 ["export", C5_FILE, "--formulation", "cg", "--height", "3"],
                 ["export", C5_FILE, "--formulation", "cg", "--colors", "9"],
                 ["export", C5_FILE, "--formulation", "cgh", "--colors", "2"],
                 ["export", C5_FILE, "--formulation", "cl", "--height", "2"],
                 ["export", C5_FILE, "--format", "dimacs", "--relax"],
                 ["export", C5_FILE, "--format", "dimacs", "--formulation", "cg"],
                 ["export", C5_FILE, "--format", "dimacs", "--formulation", "cgh",
                  "--height", "2"],
                 ["export", C5_FILE, "--format", "dimacs", "--colors", "3"]):
        line = _usage_error(capsys, args)
        assert line.startswith("circlecolor: error: unrecognized arguments: ")


def test_an_output_path_outside_an_existing_directory_is_refused_before_the_solve(
        capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr(cli, "solve_chromatic", refuse)
    monkeypatch.setattr(cli, "solve_stacks", refuse)
    monkeypatch.setattr(cli, "load_instance", refuse)
    for path in (str(tmp_path / "missing" / "x.txt"), str(tmp_path), ""):
        for args in (["solve", C5_FILE], ["stacks", C5_FILE, "--height", "2"],
                     ["export", C5_FILE], ["gen", "-n", "3"], ["bench", "--n", "3"]):
            line = _usage_error(capsys, args + ["-o", path])
            assert line.endswith("argument -o/--output: expected a file path in an existing "
                                 f"directory, got {path!r}"), line
    assert not any(tmp_path.iterdir())


def test_bad_env_tolerance_is_a_usage_error(capsys, monkeypatch):
    for value in ("abc", "-1", "0", "nan"):
        monkeypatch.setenv("CIRCLECOLOR_TOL", value)
        line = _usage_error(capsys, ["relax", C5_FILE])
        assert line == f"error: CIRCLECOLOR_TOL: expected a finite number > 0, got {value!r}"


def test_parser_is_built_once_and_env_read_per_call(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setenv("CIRCLECOLOR_TOL", "abc")
    _usage_error(capsys, ["relax", C5_FILE])
    monkeypatch.setenv("CIRCLECOLOR_TOL", "1e-8")
    assert run_cli(["relax", C5_FILE]).strip() == "chi_f=2.5"


def test_cli_import_does_not_load_networkx():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    check = ("import circlecolor.cli, sys; "
             "assert 'networkx' not in sys.modules and 'scipy' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_solve_builds_no_graph(monkeypatch):
    monkeypatch.setattr(cli, "build_graph", None)
    monkeypatch.setattr(bnb, "build_graph", None)
    assert run_cli(["solve", C5_FILE, "--clique"]) == golden("solve.txt")


NO_NETWORKX = """
import sys
sys.modules["networkx"] = None  # any import of networkx now fails
from circlecolor.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_solve_clique_and_bench_run_without_networkx():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))

    def run(*args):
        proc = subprocess.run([sys.executable, "-c", NO_NETWORKX, *args],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    solved = json.loads(run("solve", C5_FILE, "--clique", "--json"))
    solved.pop("timings")
    assert json.dumps(solved, sort_keys=True) + "\n" == golden("solve.json")
    lines = run("bench", "--n", "5", "--samples", "2").splitlines()
    assert lines[0] == "|V|,|E|,Ours,# ω = χ,# χ_f = χ,max. χ - χ_f"
    row = lines[1].split(",")
    assert len(lines) == 2 and row[:2] + row[3:] == ["5", "3.00", "2", "2", "0.0"]


def test_relax_runs_no_branch_and_bound(monkeypatch):
    monkeypatch.setattr(bnb, "solve_ip", None)
    monkeypatch.setattr(bnb, "build_graph", None)
    assert run_cli(["relax", C5_FILE, "--json", "--no-timing"]) == golden("relax.json")


def test_verify_passes_under_optimize():
    # asserts vanish under -O; every certificate and oracle check must not
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-O", "-m", "circlecolor.cli", "verify", "--n-max", "12",
                           "--trials", "30"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "verify: 30 trials passed (n <= 12)\n"


CORRUPT_DECODE = """
import sys
from circlecolor import bnb
from circlecolor.cli import main
from circlecolor.intervals import Coloring
assert sys.flags.optimize == 1
bnb.decode_arborescence = lambda rep, arcs, c: Coloring(colors={v: 1 for v in rep.vertices})
sys.exit(main(sys.argv[1:]))
"""


def test_corrupted_decode_fails_under_optimize():
    # asserts vanish under -O; the certificate check must not
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", CORRUPT_DECODE, "solve", C5_FILE],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: decoded coloring")


CORRUPT_PLAN = """
import sys
from circlecolor import bnb
from circlecolor.cli import main
from circlecolor.stowage import StackPlan
assert sys.flags.optimize == 1
corrupt = StackPlan(stacks=((1, 2), (3, 4), (5,)))  # 1 and 2 overlap
bnb.decode_plan = lambda *args: corrupt
bnb.greedy_stack_plan = lambda rep, height: corrupt
sys.exit(main(sys.argv[1:]))
"""


def test_corrupted_plan_fails_under_optimize():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", CORRUPT_PLAN, "stacks", C5_FILE,
                           "--height", "2"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: stack (1, 2) holds overlapping 1 and 2"), proc.stderr


CORRUPT_CLIQUE = """
import sys
from circlecolor import bnb
from circlecolor.cli import main
assert sys.flags.optimize == 1
bnb.max_clique = lambda rep: (1, 3)  # 1 and 3 are disjoint
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("args", [["relax", C5_FILE], ["solve", C5_FILE],
                                  ["stacks", C5_FILE, "--height", "2"]])
def test_a_false_clique_fails_under_optimize(args):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", CORRUPT_CLIQUE, *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "error: clique (1, 3) holds 1 and 3, which do not overlap\n"


CORRUPT_WITNESS = """
import sys
from circlecolor import mwis
from circlecolor.cli import main
assert sys.flags.optimize == 1
mwis._trace_witness = lambda *args: frozenset({1, 2})  # 1 and 2 overlap
sys.exit(main(sys.argv[1:]))
"""


def test_corrupted_mwis_witness_fails_under_optimize():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", CORRUPT_WITNESS, "mwis", C5_FILE],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "error: independent set holds overlapping 1 and 2\n", proc.stderr
