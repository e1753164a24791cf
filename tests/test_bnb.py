import math

import numpy as np
import pytest
from hypothesis import given, settings
from strategies import interval_reps

from circlecolor import bnb
from circlecolor.bnb import cg_root, first_fit, first_fit_arborescence, solve_chromatic, solve_stacks
from circlecolor.errors import CertificateError
from circlecolor.instances import generate_one
from circlecolor.intervals import (
    Coloring,
    build_graph,
    normalize,
    topological_order,
    validate_coloring,
)
from circlecolor.mwis import arborescence_of_coloring
from circlecolor.oracle import chromatic_exact, fractional_chromatic_exact
from circlecolor.stowage import nesting_depth


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
def test_first_fit_arborescence_is_first_fit_and_its_arborescence(rep):
    coloring, arcs = first_fit_arborescence(rep)
    want = first_fit(build_graph(rep), topological_order(rep))
    assert list(coloring.colors.items()) == list(want.colors.items())
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
    monkeypatch.setattr(bnb, "decode_arborescence",
                        lambda rep, arcs, c: Coloring(colors={v: 1 for v in rep.vertices}))
    with pytest.raises(CertificateError):
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
