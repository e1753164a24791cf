import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from strategies import interval_reps

from circlecolor import bnb, intervals, simplex, stowage
from circlecolor.bnb import (
    cg_root,
    first_fit,
    fractional_chromatic,
    solve_chromatic,
    solve_ip,
    solve_stacks,
)
from circlecolor.errors import CertificateError
from circlecolor.instances import generate_one
from circlecolor.intervals import (
    Coloring,
    build_clique_matrix,
    build_dag,
    build_graph,
    max_antichain,
    normalize,
    topological_order,
    validate_coloring,
)
from circlecolor.lpmodels import BINARY, LpModel, build_fcp
from circlecolor.mwis import check_clique
from circlecolor.oracle import chromatic_exact, fractional_chromatic_exact
from circlecolor.simplex import SimplexOptions
from circlecolor.stowage import (
    StackPlan,
    arborescence_of_coloring,
    check_plan,
    greedy_stack_plan,
    nesting_depth,
    stack_plan_within,
)


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
    arcs = {(i, j) for i, _, j in check_plan(rep, plan, rep.n, plan.num_stacks)}
    assert arcs == arborescence_of_coloring(rep, want)


def test_coloring_certificate_sweeps_no_antichain(c5, monkeypatch):
    # check_plan reads a stack's height off its nesting, and a color class
    # has at most n vertices, so its height is not even read
    def sweep(rep, subset):
        raise AssertionError("max_antichain called")

    monkeypatch.setattr(stowage, "max_antichain", sweep)
    assert solve_chromatic(c5).chromatic_number == 3


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


def blown_up_odd_cycle(m: int, k: int, offset: int = 0) -> list:
    """C_{2m+1}[K_k] as raw intervals, every endpoint shifted by offset.

    C_{2m+1} is the intervals (2i - 1, 2i + 2) for i = 1..2m and (2, 4m + 1)
    (for m = 2, tests/golden/c5.txt).  Each interval (l, r) becomes k twins
    (lK + t, rK + t), t < k, with K = k + 1: the twins overlap pairwise and
    meet every other interval as (l, r) did.  For m >= 2, omega = 2k,
    chi_f = k(2m + 1)/m and chi = ceil(k(2m + 1)/m), the k-tuple chromatic
    number of the odd cycle (Stahl, J. Combin. Theory B 20, 1976)."""
    cycle = [(2 * i - 1, 2 * i + 2) for i in range(1, 2 * m + 1)] + [(2, 4 * m + 1)]
    return [(offset + lo * (k + 1) + t, offset + hi * (k + 1) + t)
            for lo, hi in cycle for t in range(k)]


# every (m, k) with m in {2, 3, 4} and k(2m + 1) <= 60 vertices: 26 instances
ODD_CYCLE_BLOWUPS = [(m, k) for m in (2, 3, 4) for k in range(1, 60 // (2 * m + 1) + 1)]


@pytest.mark.parametrize("m, k", ODD_CYCLE_BLOWUPS)
def test_blown_up_odd_cycles_have_their_closed_forms(m, k, monkeypatch):
    # chi_f > omega here, which random instances almost never give, so no
    # omega-coloring exists and every answer comes from the LP
    rep = normalize(blown_up_odd_cycle(m, k))
    lps = _count_lps(monkeypatch)
    report = solve_chromatic(rep)
    assert lps and report.nodes_explored >= 1
    assert report.chromatic_number == -(-k * (2 * m + 1) // m)
    assert report.fractional_chromatic == pytest.approx(k * (2 * m + 1) / m, abs=1e-9)
    assert len(intervals.max_clique(rep)) == len(report.clique) == 2 * k
    lps.clear()
    assert fractional_chromatic(rep) == report.fractional_chromatic
    assert len(lps) == 1


@pytest.mark.parametrize("n, m, k", [(12, 2, 3), (20, 3, 2), (30, 2, 5), (16, 4, 2), (40, 2, 1)])
def test_a_disjoint_union_takes_the_larger_part(n, m, k):
    # the gadget is the larger part in chi_f on the first four, the random part on the last
    random_part = generate_one(n, 7001, 0)
    raw = [(random_part.left[v], random_part.right[v]) for v in random_part.vertices]
    union = solve_chromatic(normalize(raw + blown_up_odd_cycle(m, k, offset=2 * n)))
    part = solve_chromatic(random_part)
    assert union.chromatic_number == max(part.chromatic_number, -(-k * (2 * m + 1) // m))
    chi_f = max(part.fractional_chromatic, k * (2 * m + 1) / m)
    assert union.fractional_chromatic == pytest.approx(chi_f, abs=1e-9)


def test_cg_root_at_n80_solves_on_the_maximal_rows():
    # with every sweep row in it the tableau had 1,991 constraint rows
    model, root = cg_root(generate_one(80, 6001, 0))
    assert root.objective == pytest.approx(11.0, abs=1e-9)
    assert len(root.tableau.basis) <= 500 < len(model.constraints)


def _invariant_sample():
    rng = np.random.default_rng(43)
    return [generate_one(int(rng.integers(1, 13)), 557, k) for k in range(25)]


def _count_lps(monkeypatch) -> list:
    """From here on every solve_lp call of bnb is appended to the list
    returned."""
    calls = []
    solve_lp = bnb.solve_lp
    monkeypatch.setattr(bnb, "solve_lp", lambda *a, **k: calls.append(a) or solve_lp(*a, **k))
    return calls


def _check_common_invariants(rep, report):
    assert math.ceil(report.fractional_chromatic - 1e-6) <= report.chromatic_number
    assert report.root_gap == pytest.approx(
        report.chromatic_number - report.fractional_chromatic)
    assert len(report.clique) == len(intervals.max_clique(rep)) <= report.chromatic_number


def test_report_invariants(monkeypatch):
    # with no omega-coloring to hand every request takes the LP path
    monkeypatch.setattr(bnb, "color_within", lambda rep, colors: None)
    for rep in _invariant_sample():
        report = solve_chromatic(rep)
        _check_common_invariants(rep, report)
        assert report.nodes_explored >= 1
        for phase in ("clique", "build", "root_lp", "search", "decode"):
            assert phase in report.timings


def test_report_invariants_on_both_paths(monkeypatch):
    lps = _count_lps(monkeypatch)
    took_lp = []
    for rep in _invariant_sample():
        lps.clear()
        report = solve_chromatic(rep)
        _check_common_invariants(rep, report)
        took_lp.append(bool(lps))
        if lps:
            assert report.nodes_explored >= 1
            assert {"clique", "build", "root_lp", "search", "decode"} <= set(report.timings)
        else:
            assert report.nodes_explored == 0 and set(report.timings) == {"clique"}
            assert report.chromatic_number == len(report.clique) == report.fractional_chromatic
    assert 0 < sum(took_lp) < len(took_lp)


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


@settings(max_examples=100, deadline=None)
@given(interval_reps(max_n=10))
def test_the_color_plan_is_the_certified_color_classes(rep):
    report = solve_chromatic(rep)
    chi, colors = report.chromatic_number, report.coloring.colors
    assert report.plan == StackPlan(stacks=tuple(
        tuple(v for v in rep.vertices if colors[v] == c) for c in range(1, chi + 1)))
    check_plan(rep, report.plan, rep.n, chi)


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
    calls = _count_lps(monkeypatch)
    report = solve_chromatic(c5)
    assert len(calls) == 1
    assert report.nodes_explored == 1


def test_an_omega_coloring_answers_with_no_lp(monkeypatch):
    # chi = omega = 17 at n = 120, where the LP path branches over 20 nodes
    rep = generate_one(120, 6001, 0)
    lps = _count_lps(monkeypatch)
    report = solve_chromatic(rep)
    assert (report.chromatic_number, report.fractional_chromatic) == (17, 17.0)
    assert report.nodes_explored == 0 and not lps
    check_clique(rep, report.clique)
    assert len(report.clique) == 17
    chi, colors = report.chromatic_number, report.coloring.colors
    assert report.plan == StackPlan(stacks=tuple(
        tuple(v for v in rep.vertices if colors[v] == c) for c in range(1, chi + 1)))
    check_plan(rep, report.plan, rep.n, chi)
    assert report.coloring.certificate == arborescence_of_coloring(rep, report.coloring)
    assert fractional_chromatic(rep) == 17.0 and not lps


def test_a_greedy_plan_of_omega_stacks_answers_with_no_lp(monkeypatch):
    # and so does any plan of lb = max(omega, d/H) stacks, d the deepest
    # overlap: no LP and nodes 0 exactly when the greedy plan or, for an
    # integer lb that it misses, the search finds one
    lps = _count_lps(monkeypatch)
    settled = by_search = 0
    for k in range(20):
        rep = generate_one(16, 9103, k)
        for height in (2, 3):
            lps.clear()
            report = solve_stacks(rep, height)
            h = min(height, nesting_depth(rep))
            lb = max(len(report.clique), max_antichain(rep, rep.vertices) / h)
            plan = greedy_stack_plan(rep, h)
            if lb == int(lb) and plan.num_stacks > lb:
                plan = stack_plan_within(rep, h, int(lb)) or plan
                by_search += plan.num_stacks == lb
            if plan.num_stacks == lb:
                settled += 1
                assert not lps and report.nodes_explored == 0
                assert report.plan == plan and report.fractional_chromatic == plan.num_stacks
            else:
                assert lps and report.nodes_explored >= 1
            assert report.chromatic_number == report.plan.num_stacks
    assert settled > by_search > 0


@pytest.mark.parametrize("solve", [solve_chromatic, lambda rep: solve_stacks(rep, 2),
                                   fractional_chromatic])
def test_a_clique_that_is_not_one_gives_no_answer(solve, monkeypatch):
    # 1 and 2 are disjoint, and the check runs before any plan is made
    rep = normalize([(1, 2), (3, 4)])
    monkeypatch.setattr(bnb, "max_clique", lambda rep: (1, 2))
    with pytest.raises(CertificateError, match="do not overlap"):
        solve(rep)


def test_the_clique_phase_times_the_greedy_stack_plan(monkeypatch):
    # the stacks start plan is made with the clique, before any build
    greedy = bnb.greedy_stack_plan
    monkeypatch.setattr(bnb, "greedy_stack_plan",
                        lambda rep, height: time.sleep(0.05) or greedy(rep, height))
    for k in range(4):
        report = solve_stacks(generate_one(16, 9103, k), 2)
        assert report.timings["clique"] >= 0.05
        assert report.timings.get("build", 0.0) < 0.05


def test_solve_stacks_builds_the_dag_once(monkeypatch):
    calls = []
    build_dag = intervals.build_dag
    for module in (intervals, bnb, stowage):  # every name it could be called by
        monkeypatch.setattr(module, "build_dag",
                            lambda rep: calls.append(rep) or build_dag(rep), raising=False)
    # a request settled with no LP builds no program, so no DAG
    lp_path = sum(solve_stacks(generate_one(16, 9103, k), 2).nodes_explored > 0 for k in range(5))
    assert len(calls) == lp_path == 4


def _spy_starts(monkeypatch):
    """Record each solve_lp start given through bnb as a dict of its
    nonzero values by variable name."""
    starts = []
    solve_lp = bnb.solve_lp

    def spy(model, *args, **kw):
        values = zip(model.var_names, kw["start"].tolist())
        starts.append({name: x for name, x in values if x})
        return solve_lp(model, *args, **kw)

    monkeypatch.setattr(bnb, "solve_lp", spy)
    return starts


def test_cg_root_starts_from_one_stack_of_any_height(monkeypatch):
    starts = _spy_starts(monkeypatch)
    cg_root(normalize([(1, 8), (2, 7), (3, 6)]))  # one nested chain, no overlaps
    assert starts == [{"x_0_1": 1.0, "x_1_2": 1.0, "x_2_3": 1.0, "c": 1}]


def test_solves_make_no_relaxed_copy(c5, monkeypatch):
    # both roots are fractional on C5, so branch-and-bound runs too
    monkeypatch.setattr(LpModel, "relaxed", None)
    searches = []
    solve_ip = bnb.solve_ip
    monkeypatch.setattr(bnb, "solve_ip", lambda *a, **k: searches.append(a) or solve_ip(*a, **k))
    assert solve_chromatic(c5).nodes_explored >= 1
    assert solve_stacks(c5, 2).nodes_explored >= 1
    assert len(searches) == 2


def test_solve_ip_rejects_a_max_model(c5):
    # FCP maximizes; solve_ip must refuse it, also under -O
    fcp = build_fcp(c5, build_dag(c5), build_clique_matrix(c5))
    with pytest.raises(ValueError, match="max model"):
        solve_ip(fcp)


def test_branching_fixes_the_most_fractional_smallest_name_first(monkeypatch):
    # x_b and x_a sit at 0.5 at the root, and so does x_0, which may not be
    # branched on; the first child fixes x_a although x_b comes first
    model = LpModel(name="tie", sense="min")
    for name in ("x_b", "x_a", "x_0"):
        model.add_var(name, 0.0, 1.0, BINARY, 0.0 if name == "x_0" else -1.0)
        model.add_constraint(f"half_{name}", {name: 2.0}, "=" if name == "x_0" else "<=", 1.0)
    fixed = []
    solve_lp = bnb.solve_lp
    monkeypatch.setattr(bnb, "solve_lp", lambda *a, **k: fixed.append(
        tuple(b.tolist() for b in k["bounds"])) or solve_lp(*a, **k))
    value, primal, nodes = solve_ip(model, branch=[0, 1])  # x_b and x_a
    assert value == 0 and primal[1] == primal[0] == 0
    assert fixed[:2] == [([0.0] * 3, [1.0] * 3), ([0.0] * 3, [1.0, 0.0, 1.0])]
    assert all(lower[2] == 0.0 and upper[2] == 1.0 for lower, upper in fixed)


def test_cg_root_is_the_fractional_chromatic_number(c5, monkeypatch):
    monkeypatch.setattr(bnb, "solve_ip", None)
    monkeypatch.setattr(bnb, "build_graph", None)
    timings = {}
    model, root = cg_root(c5, timings=timings)
    assert root.objective == pytest.approx(2.5, abs=1e-9)
    assert model.name == "CG" and model.metadata["n"] == 5
    assert set(timings) == {"build", "root_lp"}


def test_roots_start_from_the_heuristic_solutions(c5, monkeypatch):
    starts = _spy_starts(monkeypatch)
    cg_root(c5)
    solve_stacks(c5, 2)
    # first fit along the left endpoints colors 1 3 | 5 2 | 4, and 2 hangs below 5
    assert starts[0] == {"x_0_1": 1.0, "x_0_3": 1.0, "x_0_5": 1.0, "x_5_2": 1.0,
                         "x_0_4": 1.0, "c": 3}
    # the greedy plan at height 2 stacks 1 3 | 5 2 | 4 the same way
    assert starts[1] == {"x_0.0_1": 1.0, "x_0.0_3": 1.0, "x_0.0_5": 1.0, "x_5.1_2": 1.0,
                         "x_0.0_4": 1.0, "c": 3}


def _dual_objective(model, sol, bounds):
    """y'b plus each reduced cost d = c - A'y times the bound it points at,
    with the node's bounds in effect (a min model)."""
    lower, upper = np.maximum(model.lower, bounds[0]), np.minimum(model.upper, bounds[1])
    y = sol.dual
    z = model.cost - np.bincount(model.var, weights=model.val * y[model.row],
                                 minlength=len(model.cost))
    big = np.abs(z) > 1e-12  # c has no upper bound
    return float(y @ model.rhs + z[big] @ np.where(z < 0, upper, lower)[big])


def _check_node_lps(monkeypatch):
    """From here on every node LP is also solved cold and must agree in
    status and objective; it must find its parent's tableau kept, resume
    without falling back, and return duals that close the duality gap.
    Returns the list the node statuses go to."""
    nodes = []
    real_solve_lp, real_resume = bnb.solve_lp, simplex._resume

    def node_lp(model, opts=None, **kw):
        sol = real_solve_lp(model, opts, **kw)
        if "warm" in kw:  # a node LP; the root starts from a point instead
            assert kw["warm"] is not None and kw["warm"].tableau is not None
            cold = real_solve_lp(model, opts, bounds=kw["bounds"])
            assert sol.status == cold.status
            if cold.status == "optimal":
                assert sol.objective == pytest.approx(cold.objective, abs=1e-9)
                assert _dual_objective(model, sol, kw["bounds"]) == pytest.approx(
                    sol.objective, abs=1e-9)
            nodes.append(sol.status)
        return sol

    def resume(*args):
        sol, pivots = real_resume(*args)
        assert sol is not None, "the resume fell back to the cold solve"
        return sol, pivots

    monkeypatch.setattr(bnb, "solve_lp", node_lp)
    monkeypatch.setattr(simplex, "_resume", resume)
    return nodes


def test_warm_node_lps_match_the_cold_solve_on_stacks(monkeypatch):
    nodes = _check_node_lps(monkeypatch)
    for k in range(100):
        rep = generate_one(16, 9103, k)
        for height in (2, 3):
            solve_stacks(rep, height)
    assert len(nodes) > 50


def test_warm_node_lps_match_the_cold_solve_on_colors(monkeypatch):
    nodes = _check_node_lps(monkeypatch)
    for k in range(100):
        solve_chromatic(generate_one(22, 9101, k))
    assert len(nodes) > 10


def test_fixed_columns_never_enter_after_a_warm_restart(monkeypatch):
    # a column fixed by a branch is excluded from the dual ratio test, so
    # its reduced cost may turn negative; phase 2 must not enter it, as its
    # zero-length flips would reset the degeneracy count and let Devex
    # cycle.  On these three instances a node's phase 2 meets such a column
    depth = [0]
    optimize, complement = simplex._optimize, simplex._complement

    def in_phase2(*args):
        depth[0] += 1
        try:
            return optimize(*args)
        finally:
            depth[0] -= 1

    def flip(T, cols, upper, flipped):
        for col in np.atleast_1d(cols).tolist():
            assert not (depth[0] and upper[col] == 0.0), f"phase 2 entered the fixed column {col}"
        complement(T, cols, upper, flipped)

    monkeypatch.setattr(simplex, "_optimize", in_phase2)
    monkeypatch.setattr(simplex, "_complement", flip)
    report = solve_stacks(generate_one(16, 42, 1207), 3, SimplexOptions(max_iter=5000))
    assert report.chromatic_number == 5
    for k in (368, 1045):
        solve_stacks(generate_one(16, 42, k), 3)
