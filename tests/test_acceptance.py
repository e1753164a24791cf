"""Acceptance suite: one test per contract criterion, each printing a
single pass/fail line.  Everything is checked against the built-in
brute-force oracles at the stated tolerances."""

import time
from pathlib import Path

import numpy as np

from circlecolor.bnb import first_fit, solve_chromatic, solve_ip, solve_stacks
from circlecolor.instances import generate_one, run_experiment
from circlecolor.intervals import (
    build_clique_matrix,
    build_dag,
    build_graph,
    max_clique,
    normalize,
    topological_order,
    validate_coloring,
)
from circlecolor.lpmodels import (
    build_as,
    build_cg,
    build_cl,
    build_isd,
    build_lc,
    export_model,
    parse_lp_text,
    parse_mps,
    write_lp_text,
    write_mps,
)
from circlecolor.mwis import solve_mwis
from circlecolor.oracle import (
    chromatic_exact,
    fractional_chromatic_exact,
    mwis_exact,
    stacks_exact,
    stacks_lp_exact,
)
from circlecolor.simplex import solve_lp

GOLDEN = Path(__file__).parent / "golden"
TOL = 1e-6

_solved_cache = {}


def _report(capsys, num, label, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"\n[criterion {num}] {status} {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def _instances_n12():
    """The shared 100-instance sample with n <= 12, solved once."""
    if "n12" not in _solved_cache:
        rng = np.random.default_rng(12001)
        batch = []
        for k in range(100):
            n = int(rng.integers(1, 13))
            rep = generate_one(n, 12001, k)
            batch.append((rep, build_graph(rep), solve_chromatic(rep)))
        _solved_cache["n12"] = batch
    return _solved_cache["n12"]


def test_criterion_1_pentagon(capsys):
    t0 = time.perf_counter()
    rep = normalize([(1, 4), (3, 6), (5, 8), (7, 10), (2, 9)])
    report = solve_chromatic(rep)
    omega = len(max_clique(rep))
    elapsed = time.perf_counter() - t0
    ok = (report.chromatic_number == 3
          and abs(report.fractional_chromatic - 2.5) <= TOL
          and omega == 2
          and elapsed < 1.0)
    _report(capsys, 1, "pentagon values chi=3 chi_f=2.5 omega=2", ok,
            f"chi={report.chromatic_number} chi_f={report.fractional_chromatic:.6f} "
            f"omega={omega} {elapsed:.2f}s")


def test_criterion_2_fractional_chromatic(capsys):
    worst = 0.0
    for rep, graph, report in _instances_n12():
        want = fractional_chromatic_exact(graph)
        worst = max(worst, abs(report.fractional_chromatic - want))
    _report(capsys, 2, "root LP equals oracle fractional chromatic on 100 instances",
            worst <= TOL, f"max deviation {worst:.2e}")


def test_criterion_3_chromatic_and_certificates(capsys):
    bad = []
    for k, (rep, graph, report) in enumerate(_instances_n12()):
        want = chromatic_exact(graph)
        if report.chromatic_number != want:
            bad.append(f"instance {k}: chi {report.chromatic_number} != {want}")
        elif not validate_coloring(graph, report.coloring):
            bad.append(f"instance {k}: improper coloring")
        elif report.coloring.num_colors != want:
            bad.append(f"instance {k}: wrong color count")
    _report(capsys, 3, "branch-and-bound chi and proper certificates on 100 instances",
            not bad, bad[0] if bad else "100/100 exact")


def test_criterion_4_isd_duality(capsys):
    rng = np.random.default_rng(4001)
    worst = 0.0
    for k in range(200):
        n = int(rng.integers(1, 13))
        rep = generate_one(n, 4001, k)
        graph = build_graph(rep)
        w = {v: float(rng.integers(-5, 6)) for v in rep.vertices}
        dp, _, _ = solve_mwis(rep, w)
        isd = solve_lp(build_isd(rep, build_dag(rep), build_clique_matrix(rep), w))
        brute = mwis_exact(graph, w)
        worst = max(worst, abs(isd.objective - dp), abs(dp - brute))
    _report(capsys, 4, "ISD = DP = brute-force MWIS on 200 weighted instances",
            worst <= TOL, f"max deviation {worst:.2e}")


def test_criterion_5_lc_integrality(capsys):
    rng = np.random.default_rng(5001)
    checked = 0
    bad = []
    k = 0
    while checked < 100:
        rep = generate_one(int(rng.integers(2, 13)), 5001, k)
        k += 1
        dag = build_dag(rep)
        matrix = build_clique_matrix(rep)
        values = {v: float(rng.integers(-5, 6)) for v in rep.vertices}
        for i in [0] + sorted(dag.branching):
            if checked >= 100:
                break
            model = build_lc(i, rep, dag, matrix, values)
            sol = solve_lp(model)
            checked += 1
            frac = max(abs(x - round(x)) for x in sol.primal.tolist())
            support = [int(name.rsplit("_", 1)[1])
                       for name, x in zip(model.var_names, sol.primal.tolist()) if x > 0.5]
            if frac > TOL:
                bad.append(f"LC_{i} not integral (dev {frac:.2e})")
            elif not rep.is_chain(support):
                bad.append(f"LC_{i} support not a chain")
    _report(capsys, 5, "LC vertex solutions integral with chain support, 100 programs",
            not bad, bad[0] if bad else "100/100 integral chains")


def test_criterion_6_table_distribution(capsys):
    expected_edges = {5: 3.35, 10: 14.17, 30: 145.39, 50: 413.40}
    rows = run_experiment([5, 10, 30, 50], samples=100, seed=6001)
    problems = []
    for row in rows:
        want = expected_edges[row.n]
        if abs(row.mean_edges - want) > 0.15 * want:
            problems.append(f"n={row.n} mean |E| {row.mean_edges:.2f} vs {want}")
        if row.max_chi_minus_chi_f >= 1.0:
            problems.append(f"n={row.n} gap {row.max_chi_minus_chi_f}")
        if row.failures:
            problems.append(f"n={row.n} {row.failures} solver failures")
    frac30 = next(r.count_chi_f_eq_chi for r in rows if r.n == 30)
    if abs(frac30 - 94) > 10:
        problems.append(f"n=30 chi_f=chi count {frac30} outside 94+-10")
    detail = ", ".join(
        f"n={r.n}: |E|={r.mean_edges:.2f}" for r in rows) + f", n=30 agree={frac30}"
    _report(capsys, 6, "random-instance distribution matches the reference table",
            not problems, problems[0] if problems else detail)


def test_criterion_7_stacks(capsys):
    rng = np.random.default_rng(7001)
    worst_lp = 0.0
    bad = []
    for k in range(50):
        rep = generate_one(int(rng.integers(1, 9)), 7001, k)
        graph = build_graph(rep)
        for h in (1, 2, 3):
            report = solve_stacks(rep, h)
            want = stacks_exact(rep, graph, h)
            if report.chromatic_number != want:
                bad.append(f"instance {k} H={h}: {report.chromatic_number} != {want}")
            worst_lp = max(worst_lp,
                           abs(report.fractional_chromatic - stacks_lp_exact(rep, graph, h)))
    ok = not bad and worst_lp <= TOL
    _report(capsys, 7, "layered formulation matches the stack oracle, 50 x H in {1,2,3}",
            ok, bad[0] if bad else f"max LP deviation {worst_lp:.2e}")


def test_criterion_8_formulation_agreement(capsys):
    rng = np.random.default_rng(8001)
    bad = []
    for k in range(50):
        n = int(rng.integers(1, 11))
        rep = generate_one(n, 8001, k)
        graph = build_graph(rep)
        chi = solve_chromatic(rep).chromatic_number
        ff = first_fit(graph, topological_order(rep)).num_colors
        cl, _, _ = solve_ip(build_cl(graph, ff), incumbent_value=ff)
        as_value, _, _ = solve_ip(build_as(graph))
        if not chi == cl == as_value:
            bad.append(f"instance {k}: cg={chi} cl={cl} as={as_value}")
    _report(capsys, 8, "CL, AS, and CG optima agree on 50 instances",
            not bad, bad[0] if bad else "50/50 agree")


def test_criterion_9_export_round_trip(capsys):
    rng = np.random.default_rng(9001)
    worst = 0.0
    for k in range(20):
        rep = generate_one(int(rng.integers(1, 9)), 9001, k)
        model = build_cg(rep, build_dag(rep), build_clique_matrix(rep))
        direct = solve_lp(model.relaxed()).objective
        for fmt, parse in (("lp", parse_lp_text), ("mps", parse_mps)):
            again = parse(export_model(model, fmt).decode())
            worst = max(worst, abs(solve_lp(again.relaxed()).objective - direct))
    c5 = normalize([(1, 4), (3, 6), (5, 8), (7, 10), (2, 9)])
    c5_model = build_cg(c5, build_dag(c5), build_clique_matrix(c5))
    bytes_ok = (write_lp_text(c5_model) == (GOLDEN / "c5_cg.lp").read_text()
                and write_mps(c5_model) == (GOLDEN / "c5_cg.mps").read_text())
    ok = worst <= TOL and bytes_ok
    _report(capsys, 9, "LP/MPS round-trip and golden byte equality", ok,
            f"max deviation {worst:.2e}, golden {'match' if bytes_ok else 'MISMATCH'}")
