import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from circlecolor import bnb, cli
from circlecolor.cli import main
from circlecolor.intervals import parse_instance

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
    monkeypatch.setattr(cli, "clique_number", lambda rep: rep.n + 1)
    run_cli(["verify", "--n-max", "4", "--trials", "2", "--seed", "3"], expect=3)
    assert "FAIL trial 0: omega " in capsys.readouterr().err


def test_bench_csv_shape():
    out = run_cli(["bench", "--n", "3,4", "--samples", "4", "--seed", "2"])
    lines = out.strip().splitlines()
    assert lines[0] == "|V|,|E|,Ours,# ω = χ,# χ_f = χ,max. χ - χ_f"
    assert len(lines) == 3
    assert lines[1].startswith("3,") and lines[2].startswith("4,")


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


def test_env_tolerance_honored(monkeypatch):
    monkeypatch.setenv("CIRCLECOLOR_TOL", "1e-8")
    assert run_cli(["relax", C5_FILE]).strip() == "chi_f=2.5"


def test_mwis_negative_weights_after_a_space():
    spaced = run_cli(["mwis", C5_FILE, "--weights", "-3,1,2,-1.5,1", "--json"])
    assert spaced == run_cli(["mwis", C5_FILE, "--weights=-3,1,2,-1.5,1", "--json"])
    payload = json.loads(spaced)
    assert payload["value"] == 3.0 and payload["set"] == [3, 5]
    run_cli(["mwis", C5_FILE, "--weights", "a,1,1,1,1"], expect=2)


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
    for flag in ("--feas-tol", "--opt-tol", "--int-tol"):
        for value in ("-1", "0", "nan", "inf", "abc"):
            line = _usage_error(capsys, ["relax", C5_FILE, flag, value])
            assert f"argument {flag}: expected a finite number > 0" in line


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
    for args in (["relax", C5_FILE, "-v"], ["mwis", C5_FILE, "--feas-tol", "1e-8"],
                 ["mwis", C5_FILE, "--no-timing"], ["export", C5_FILE, "--json"],
                 ["export", C5_FILE, "--formulation", "cg", "--height", "3"],
                 ["export", C5_FILE, "--formulation", "cg", "--colors", "9"],
                 ["export", C5_FILE, "--formulation", "cgh", "--colors", "2"],
                 ["export", C5_FILE, "--formulation", "cl", "--height", "2"]):
        line = _usage_error(capsys, args)
        assert line.startswith("circlecolor: error: unrecognized arguments: ")


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
    check = "import circlecolor.cli, sys; assert 'networkx' not in sys.modules"
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
