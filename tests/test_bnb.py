import math

import numpy as np
import pytest
from hypothesis import given, settings
from strategies import interval_reps

from circlecolor import bnb, intervals, stowage
from circlecolor.bnb import cg_root, first_fit, solve_chromatic, solve_stacks
from circlecolor.errors import CertificateError
from circlecolor.instances import generate_one
from circlecolor.intervals import (
    Coloring,
    build_graph,
    normalize,
    topological_order,
    validate_coloring,
)
from circlecolor.lpmodels import LpModel
from circlecolor.mwis import arborescence_of_coloring
from circlecolor.oracle import chromatic_exact, fractional_chromatic_exact
from circlecolor.stowage import greedy_stack_plan, nesting_depth, plan_arcs


def test_first_fit_edgeless():
    g = build_graph(normalize([(1, 2), (3, 4), (5, 6)]))
    coloring = first_fit(g)
    assert set(coloring.colors.values()) == {1}


def test_first_fit_p3(p3):
    g = build_graph(p3)
    coloring = first_fit(g, [1, 2, 3])
    assert coloring.colors == {1: 1, 2: 2, 3: 1}


def test_first_fit_c5(c5, c5_graph):
    coloring = first_fit(c5_graph, topological_order(c5))
    assert coloring.num_colors <= 3
    assert validate_coloring(c5_graph, coloring)


@settings(max_examples=200, deadline=None)
@given(interval_reps(max_n=14))
def test_greedy_plan_with_no_cap_is_first_fit_and_its_arborescence(rep):
    # the CG root starts from this plan
    plan = greedy_stack_plan(rep, rep.n)
    want = first_fit(build_graph(rep), topological_order(rep))
    classes = {}
    for v, c in want.colors.items():
        classes.setdefault(c, []).append(v)
    assert [sorted(s) for s in plan.stacks] == [sorted(classes[c]) for c in sorted(classes)]
    arcs = {(i, j) for (i, _), (j, _) in plan_arcs(rep, plan)}
    assert arcs == arborescence_of_coloring(rep, want)


def test_solve_chromatic_c5(c5, c5_graph):
    report = solve_chromatic(c5)
    assert report.chromatic_number == 3
    assert report.fractional_chromatic == pytest.approx(2.5, abs=1e-6)
    assert report.coloring.num_colors == 3
    assert validate_coloring(c5_graph, report.coloring)
    assert report.coloring.certificate is not None


def test_solve_chromatic_single():
    report = solve_chromatic(normalize([(1, 2)]))
    assert report.chromatic_number == 1
    assert report.fractional_chromatic == pytest.approx(1.0, abs=1e-6)


def test_solve_chromatic_matches_oracle():
    rng = np.random.default_rng(41)
    for k in range(60):
        rep = generate_one(int(rng.integers(1, 13)), 555, k)
        g = build_graph(rep)
        report = solve_chromatic(rep)
        assert report.chromatic_number == chromatic_exact(g), k
        assert validate_coloring(g, report.coloring)
        assert report.coloring.num_colors == report.chromatic_number


def test_root_lp_is_fractional_chromatic():
    rng = np.random.default_rng(42)
    for k in range(30):
        rep = generate_one(int(rng.integers(1, 13)), 556, k)
        g = build_graph(rep)
        report = solve_chromatic(rep)
        want = fractional_chromatic_exact(g)
        assert report.fractional_chromatic == pytest.approx(want, abs=1e-6), k


def test_report_invariants():
    rng = np.random.default_rng(43)
    for k in range(25):
        rep = generate_one(int(rng.integers(1, 13)), 557, k)
        report = solve_chromatic(rep)
        assert math.ceil(report.fractional_chromatic - 1e-6) <= report.chromatic_number
        assert report.root_gap == pytest.approx(
            report.chromatic_number - report.fractional_chromatic)
        assert report.nodes_explored >= 1
        for phase in ("build", "root_lp", "search", "decode"):
            assert phase in report.timings


def test_stacks_reaches_chromatic_with_big_height():
    rng = np.random.default_rng(44)
    for k in range(15):
        rep = generate_one(int(rng.integers(1, 9)), 558, k)
        chi = solve_chromatic(rep).chromatic_number
        assert solve_stacks(rep, rep.n).chromatic_number == chi


@settings(max_examples=100, deadline=None)
@given(interval_reps(max_n=10))
def test_stacks_at_the_nesting_depth_are_colors(rep):
    # with no capacity that binds, CG_H is CG with layered copies, and both
    # go through the same root LP and branch-and-bound
    colors = solve_chromatic(rep)
    stacks = solve_stacks(rep, nesting_depth(rep))
    assert stacks.chromatic_number == colors.chromatic_number
    assert stacks.fractional_chromatic == pytest.approx(colors.fractional_chromatic, abs=1e-9)


def test_node_log(c5):
    lines = []
    solve_chromatic(c5, log=lines.append)
    # C5's root LP is fractional (2.5), so branching happens and logs appear
    assert lines
    assert all(ln.startswith("node depth=") for ln in lines)


def test_corrupted_coloring_is_rejected(c5, monkeypatch):
    good = solve_chromatic(c5).coloring.colors
    assert sorted(set(good.values())) == [1, 2, 3]
    for colors in ({v: 1 for v in c5.vertices},                   # improper
                   {v: 4 if c == 3 else c for v, c in good.items()},  # a color above chi
                   {v: c for v, c in good.items() if v != 5}):      # vertex 5 uncolored
        monkeypatch.setattr(bnb, "decode_arborescence",
                            lambda rep, arcs, c, colors=colors: Coloring(colors=colors))
        with pytest.raises(CertificateError, match="^decoded coloring is not a proper 3-coloring"):
            solve_chromatic(c5)


def test_root_lp_is_not_solved_twice(c5, monkeypatch):
    # C5's root is fractional, so branch-and-bound runs; it takes the root
    # from the driver and prunes it against first fit without an LP solve
    calls = []
    solve_lp = bnb.solve_lp
    monkeypatch.setattr(bnb, "solve_lp", lambda *a, **k: calls.append(a) or solve_lp(*a, **k))
    report = solve_chromatic(c5)
    assert len(calls) == 1
    assert report.nodes_explored == 2


def test_solve_stacks_builds_the_dag_once(monkeypatch):
    calls = []
    build_dag = intervals.build_dag
    for module in (intervals, bnb, stowage):  # every name it could be called by
        monkeypatch.setattr(module, "build_dag",
                            lambda rep: calls.append(rep) or build_dag(rep), raising=False)
    for k in range(5):
        solve_stacks(generate_one(16, 9103, k), 2)
    assert len(calls) == 5


def test_cg_root_starts_from_one_stack_of_any_height(monkeypatch):
    starts = []
    solve_lp = bnb.solve_lp
    monkeypatch.setattr(bnb, "solve_lp",
                        lambda *a, **k: starts.append(k.get("start")) or solve_lp(*a, **k))
    cg_root(normalize([(1, 8), (2, 7), (3, 6)]))  # one nested chain, no overlaps
    assert starts == [{"x_0_1": 1.0, "x_1_2": 1.0, "x_2_3": 1.0, "c": 1}]


def test_solves_make_no_relaxed_copy(c5, monkeypatch):
    # both roots are fractional on C5, so branch-and-bound runs too
    monkeypatch.setattr(LpModel, "relaxed", None)
    assert solve_chromatic(c5).nodes_explored > 1
    assert solve_stacks(c5, 2).nodes_explored > 1


def test_cg_root_is_the_fractional_chromatic_number(c5, monkeypatch):
    monkeypatch.setattr(bnb, "solve_ip", None)
    monkeypatch.setattr(bnb, "build_graph", None)
    timings = {}
    dag, model, root = cg_root(c5, timings=timings)
    assert root.objective == pytest.approx(2.5, abs=1e-9)
    assert model.name == "CG" and dag.n == 5
    assert set(timings) == {"build", "root_lp"}


def test_roots_start_from_the_heuristic_solutions(c5, monkeypatch):
    starts = []
    solve_lp = bnb.solve_lp
    monkeypatch.setattr(bnb, "solve_lp",
                        lambda *a, **k: starts.append(k.get("start")) or solve_lp(*a, **k))
    cg_root(c5)
    solve_stacks(c5, 2)
    # first fit along the left endpoints colors 1 3 | 5 2 | 4, and 2 hangs below 5
    assert starts[0] == {"x_0_1": 1.0, "x_0_3": 1.0, "x_0_5": 1.0, "x_5_2": 1.0,
                         "x_0_4": 1.0, "c": 3}
    # the greedy plan at height 2 stacks 1 3 | 5 2 | 4 the same way
    assert starts[1] == {"x_0.0_1": 1.0, "x_0.0_3": 1.0, "x_0.0_5": 1.0, "x_5.1_2": 1.0,
                         "x_0.0_4": 1.0, "c": 3}
