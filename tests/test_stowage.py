from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import interval_reps

from circlecolor import bnb, stowage
from circlecolor.bnb import solve_chromatic, solve_ip, solve_stacks
from circlecolor.errors import CertificateError, InvalidHeightError, LayerConditionError
from circlecolor.instances import generate_one
from circlecolor.intervals import build_clique_matrix, build_dag, build_graph, max_antichain, normalize
from circlecolor.oracle import stacks_exact, stacks_lp_exact
from circlecolor.simplex import solve_lp
from circlecolor.stowage import (
    StackPlan,
    build_cgh,
    build_layered_dag,
    check_plan,
    decode_plan,
    effective_height,
    greedy_stack_plan,
    nesting_depth,
    plan_arcs,
)


def _layered(rep, height):
    return build_layered_dag(rep, build_dag(rep), height)


def test_layered_dag_nested_pair(nested):
    lay = _layered(nested, 2)
    arcs = set(lay.arcs())
    assert arcs == {((0, 0), (1, 1)), ((0, 0), (2, 1)), ((1, 1), (2, 2))}


def test_layered_dag_height_one(c5):
    lay = _layered(c5, 1)
    assert set(lay.arcs()) == {((0, 0), (j, 1)) for j in c5.vertices}


def test_layered_dag_c5_height_three(c5):
    lay = _layered(c5, 3)
    non_root = {a for a in lay.arcs() if a[0][0] != 0}
    assert non_root == {
        ((5, 1), (2, 2)), ((5, 1), (3, 2)), ((5, 2), (2, 3)), ((5, 2), (3, 3))}


def test_invalid_height(c5):
    with pytest.raises(InvalidHeightError):
        build_layered_dag(c5, build_dag(c5), 0)
    with pytest.raises(InvalidHeightError):
        effective_height(c5, 0)
    with pytest.raises(InvalidHeightError):
        greedy_stack_plan(c5, -1)


def test_effective_height_cap(c5, nested):
    assert nesting_depth(nested) == 2
    assert effective_height(nested, 10) == 2
    assert nesting_depth(c5) == 2
    assert effective_height(c5, 1) == 1


@settings(max_examples=150, deadline=None)
@given(interval_reps(max_n=8))
def test_nesting_depth_matches_brute_force(rep):
    def nested_chain(vs):
        return all(rep.contains(a, b) for a, b in zip(vs, vs[1:]))

    longest = max(
        size
        for size in range(1, rep.n + 1)
        for vs in combinations(sorted(rep.vertices, key=lambda v: rep.left[v]), size)
        if nested_chain(vs)
    )
    assert nesting_depth(rep) == longest


def _reference_cgh_rows(rep, layered, matrix):
    """CG_H rows straight from the definitions, scanning every vertex for
    the copies that feed a vertex and every interval for the vertices at
    each sweep point: (name, coefficient items, relation, rhs) in build
    order."""
    def var(i, h, j):
        return f"x_{i}.{h}_{j}"

    def at(p, j):
        return rep.left[j] <= p <= rep.right[j]

    def sources(j, h):
        if h == 1:
            return [(0, 0)]
        return [(i, h - 1) for i in rep.vertices if j in layered.containment_children[i]]

    rows = []
    for p in matrix.points:
        coeffs = {var(0, 0, j): 1.0 for j in rep.vertices if at(p, j)}
        rows.append((f"root_p{p}", list(coeffs.items()) + [("c", -1.0)], "<=", 0.0))
    for i in sorted(layered.branching):
        kids = layered.containment_children[i]
        for h in range(1, layered.height):
            inflow = [(var(s, hs, i), -1.0) for s, hs in sources(i, h)]
            for p in matrix.points:
                coeffs = [(var(i, h, j), 1.0) for j in kids if at(p, j)]
                if coeffs:
                    rows.append((f"chain_{i}.{h}_p{p}", coeffs + inflow, "<=", 0.0))
    for j in rep.vertices:
        coeffs = [(var(i, hs, j), 1.0)
                  for h in range(1, layered.height + 1) for i, hs in sources(j, h)]
        rows.append((f"enter_{j}", coeffs, "=", 1.0))
    return rows


@settings(max_examples=100, deadline=None)
@given(interval_reps(max_n=10), st.integers(1, 4), st.booleans())
def test_build_cgh_rows_match_the_definitions(rep, height, full_points):
    layered = _layered(rep, effective_height(rep, height))
    matrix = build_clique_matrix(rep, full_points=full_points)
    model = build_cgh(rep, layered, matrix)
    got = [(c.name, list(c.coeffs.items()), c.relation, c.rhs) for c in model.constraints]
    assert got == _reference_cgh_rows(rep, layered, matrix)


def test_cgh_nested_pair_optima(nested):
    m = build_clique_matrix(nested)
    for h, want in ((1, 2), (2, 1)):
        model = build_cgh(nested, _layered(nested, h), m)
        value, _, _ = solve_ip(model, no_branch=frozenset(["c"]))
        assert value == want


def test_solve_stacks_examples(nested):
    assert solve_stacks(nested, 1).chromatic_number == 2
    assert solve_stacks(nested, 2).chromatic_number == 1
    single = normalize([(1, 2)])
    report = solve_stacks(single, 1)
    assert report.chromatic_number == 1
    assert report.plan.stacks == ((1,),)


def test_solve_stacks_matches_oracle():
    rng = np.random.default_rng(61)
    for k in range(25):
        rep = generate_one(int(rng.integers(1, 9)), 661, k)
        g = build_graph(rep)
        for h in (1, 2, 3):
            report = solve_stacks(rep, h)
            assert report.chromatic_number == stacks_exact(rep, g, h), (k, h)
            _check_plan(rep, g, report.plan, h)


def test_cgh_lp_equals_set_cover_lp():
    rng = np.random.default_rng(62)
    for k in range(15):
        rep = generate_one(int(rng.integers(1, 9)), 662, k)
        g = build_graph(rep)
        m = build_clique_matrix(rep)
        for h in (1, 2, 3):
            h_eff = effective_height(rep, h)
            model = build_cgh(rep, _layered(rep, h_eff), m).relaxed()
            lhs = solve_lp(model).objective
            rhs = stacks_lp_exact(rep, g, h)
            assert lhs == pytest.approx(rhs, abs=1e-6), (k, h)


def test_solve_stacks_monotone_and_reaches_chi():
    rng = np.random.default_rng(63)
    for k in range(10):
        rep = generate_one(int(rng.integers(1, 9)), 663, k)
        vals = [solve_stacks(rep, h).chromatic_number for h in range(1, rep.n + 1)]
        assert vals == sorted(vals, reverse=True)
        assert vals[-1] == solve_chromatic(rep).chromatic_number


def _check_plan(rep, g, plan: StackPlan, height):
    seen = sorted(v for stack in plan.stacks for v in stack)
    assert seen == list(rep.vertices)
    for stack in plan.stacks:
        for a in stack:
            for b in stack:
                if a < b:
                    assert b not in g.adj[a]
        assert max_antichain(rep, stack) <= height


def test_decode_plan_examples(nested, c5):
    lay = _layered(nested, 2)
    plan = decode_plan(nested, lay, {((0, 0), (1, 1)), ((1, 1), (2, 2))}, 1)
    assert plan.stacks == ((1, 2),)
    lay5 = _layered(c5, 1)
    plan5 = decode_plan(c5, lay5, {((0, 0), (v, 1)) for v in c5.vertices}, 3)
    assert plan5.num_stacks == 3
    assert all(max_antichain(c5, s) == 1 for s in plan5.stacks)


def test_decode_plan_rejects_bad_arcs(nested):
    lay = _layered(nested, 2)
    with pytest.raises(LayerConditionError):
        decode_plan(nested, lay, {((0, 0), (1, 1))}, 1)  # vertex 2 never enters
    with pytest.raises(LayerConditionError):
        # vertex 2 hangs under a copy of 1 at the wrong layer
        decode_plan(nested, lay, {((0, 0), (1, 1)), ((1, 2), (2, 3))}, 1)


def test_greedy_plan_is_feasible():
    rng = np.random.default_rng(64)
    for k in range(20):
        rep = generate_one(int(rng.integers(1, 11)), 664, k)
        g = build_graph(rep)
        for h in (1, 2, 3):
            _check_plan(rep, g, greedy_stack_plan(rep, h), h)


def _trial_greedy_plan(rep, height):
    """The first-fit plan by trial: each vertex, by left endpoint, joins
    the first stack that stays independent with a maximum antichain within
    the height; stacks are then ordered by nesting depth and left endpoint."""
    stacks = []
    for v in sorted(rep.vertices, key=lambda u: rep.left[u]):
        for stack in stacks:
            trial = stack + [v]
            if all(not rep.overlaps(u, v) for u in stack) and max_antichain(rep, trial) <= height:
                stack.append(v)
                break
        else:
            stacks.append([v])
    ordered = []
    for stack in stacks:
        depth = {}
        for v in sorted(stack, key=lambda u: -(rep.right[u] - rep.left[u])):
            outer = [depth[u] for u in stack if u != v and rep.contains(u, v) and u in depth]
            depth[v] = 1 + max(outer, default=0)
        ordered.append(tuple(sorted(stack, key=lambda v: (depth[v], rep.left[v]))))
    return StackPlan(stacks=tuple(ordered))


@settings(max_examples=200, deadline=None)
@given(interval_reps(max_n=14), st.sampled_from([1, 2, 3, 4, None]))
def test_greedy_plan_equals_the_trial_greedy(rep, height):
    height = height or rep.n
    assert greedy_stack_plan(rep, height) == _trial_greedy_plan(rep, height)


@settings(max_examples=150, deadline=None)
@given(interval_reps(max_n=12), st.integers(1, 4))
def test_plan_arcs_decode_back_to_a_plan(rep, height):
    h = effective_height(rep, height)
    plan = greedy_stack_plan(rep, h)
    decoded = decode_plan(rep, _layered(rep, h), plan_arcs(rep, plan), plan.num_stacks)
    check_plan(rep, decoded, h, plan.num_stacks)


def test_plan_format(nested):
    plan = StackPlan(stacks=((1, 2),))
    assert plan.format() == "1 2\n"
    assert plan.stack_of() == {1: 1, 2: 1}


def test_check_plan_rejects_corrupted_plans(c5):
    three = normalize([(1, 8), (2, 7), (3, 6)])  # one nested chain
    check_plan(three, StackPlan(stacks=((1, 2, 3),)), 3, 1)
    bad = [
        (three, StackPlan(stacks=((1, 2, 3),)), 2, 1),     # height 3 over capacity 2
        (three, StackPlan(stacks=((1, 2), (3,))), 3, 1),   # wrong stack count
        (three, StackPlan(stacks=((1, 2),)), 3, 1),        # vertex 3 missing
        (three, StackPlan(stacks=((1, 2, 3, 3),)), 3, 1),  # vertex 3 twice
        (three, StackPlan(stacks=((1, 2, 3), ())), 3, 2),  # an empty stack
        (c5, StackPlan(stacks=((1, 2), (3, 4), (5,))), 2, 3),  # 1 and 2 overlap
    ]
    for rep, plan, height, count in bad:
        with pytest.raises(CertificateError):
            check_plan(rep, plan, height, count)


def test_solve_stacks_rejects_a_corrupted_decode(c5, monkeypatch):
    corrupt = StackPlan(stacks=((1, 2), (3, 4), (5,)))  # 1 and 2 overlap
    monkeypatch.setattr(bnb, "decode_plan", lambda *args: corrupt)
    monkeypatch.setattr(bnb, "greedy_stack_plan", lambda rep, h: corrupt)
    with pytest.raises(CertificateError):
        solve_stacks(c5, 2)


def test_decode_plan_rejects_a_stack_over_capacity(nested, monkeypatch):
    # a root width of 3 is within c = 3; a stack of height 3 is not within 2
    monkeypatch.setattr(stowage, "max_antichain", lambda rep, subset: 3)
    with pytest.raises(CertificateError):
        decode_plan(nested, _layered(nested, 2), {((0, 0), (1, 1)), ((1, 1), (2, 2))}, 3)
