from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import interval_reps

from circlecolor import bnb, stowage
from circlecolor.bnb import first_fit, solve_chromatic, solve_ip, solve_stacks
from circlecolor.errors import (
    AntichainBoundError,
    CertificateError,
    ChainConditionError,
    InvalidHeightError,
    LayerConditionError,
    NotArborescenceError,
)
from circlecolor.instances import generate_one
from circlecolor.intervals import (
    ROOT,
    build_clique_matrix,
    build_dag,
    build_graph,
    max_antichain,
    max_clique,
    normalize,
)
from circlecolor.mwis import check_independent, check_overlap, decode_arborescence
from circlecolor.oracle import stacks_exact, stacks_lp_exact
from circlecolor.simplex import solve_lp
from circlecolor.stowage import (
    StackPlan,
    arborescence_of_coloring,
    build_cgh,
    check_plan,
    decode_plan,
    deepest_overlap,
    effective_height,
    greedy_stack_plan,
    nesting_depth,
    stack_plan_within,
)


def _cgh(rep, height):
    return build_cgh(rep, build_dag(rep), build_clique_matrix(rep), height)


def _layered_arcs(rep, height):
    """The arcs (i, h, j) of CG_H at this height."""
    return {tuple(arc) for arc in _cgh(rep, height).metadata["arcs"].values()}


def test_layered_dag_nested_pair(nested):
    assert _layered_arcs(nested, 2) == {(0, 0, 1), (0, 0, 2), (1, 1, 2)}


def test_layered_dag_height_one(c5):
    assert _layered_arcs(c5, 1) == {(0, 0, j) for j in c5.vertices}


def test_layered_dag_c5_height_three(c5):
    non_root = {a for a in _layered_arcs(c5, 3) if a[0] != 0}
    assert non_root == {(5, 1, 2), (5, 1, 3), (5, 2, 2), (5, 2, 3)}


def test_invalid_height(c5):
    with pytest.raises(InvalidHeightError):
        _cgh(c5, 0)
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


def _reference_cgh_rows(rep, dag, matrix, height):
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
        return [(i, h - 1) for i in rep.vertices if j in dag.children[i]]

    rows = []
    for p in matrix.points:
        coeffs = {var(0, 0, j): 1.0 for j in rep.vertices if at(p, j)}
        rows.append((f"root_p{p}", list(coeffs.items()) + [("c", -1.0)], "<=", 0.0))
    for i in sorted(dag.branching):
        kids = dag.children[i]
        for h in range(1, height):
            inflow = [(var(s, hs, i), -1.0) for s, hs in sources(i, h)]
            for p in matrix.points:
                coeffs = [(var(i, h, j), 1.0) for j in kids if at(p, j)]
                if coeffs:
                    rows.append((f"chain_{i}.{h}_p{p}", coeffs + inflow, "<=", 0.0))
    for j in rep.vertices:
        coeffs = [(var(i, hs, j), 1.0)
                  for h in range(1, height + 1) for i, hs in sources(j, h)]
        rows.append((f"enter_{j}", coeffs, "=", 1.0))
    return rows


@settings(max_examples=100, deadline=None)
@given(interval_reps(max_n=10), st.integers(1, 4), st.booleans())
def test_build_cgh_rows_match_the_definitions(rep, height, full_points):
    dag, h = build_dag(rep), effective_height(rep, height)
    matrix = build_clique_matrix(rep, full_points=full_points)
    model = build_cgh(rep, dag, matrix, h)
    got = [(c.name, list(c.coeffs.items()), c.relation, c.rhs) for c in model.constraints]
    assert got == _reference_cgh_rows(rep, dag, matrix, h)


def test_cgh_nested_pair_optima(nested):
    for h, want in ((1, 2), (2, 1)):
        model = _cgh(nested, h)
        arcs = np.arange(len(model.var_names) - 1)  # c is the last variable
        value, _, _ = solve_ip(model, branch=arcs)
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
        for h in (1, 2, 3):
            model = _cgh(rep, effective_height(rep, h)).relaxed()
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
    plan = decode_plan(nested, {(0, 0, 1), (1, 1, 2)}, 1, 2)
    assert plan.stacks == ((1, 2),)
    plan5 = decode_plan(c5, {(0, 0, v) for v in c5.vertices}, 3, 1)
    assert plan5.num_stacks == 3
    assert all(max_antichain(c5, s) == 1 for s in plan5.stacks)


def test_decode_plan_rejects_bad_arcs(nested):
    three = normalize([(1, 8), (2, 7), (3, 6)])  # one nested chain
    bad = [
        (nested, {(0, 0, 1)}, 1, 2, "D0"),  # vertex 2 never enters
        # copies of layers 0 and 1 both feed vertex 2
        (nested, {(0, 0, 1), (0, 0, 2), (1, 1, 2)}, 2, 2, "D0"),
        # vertex 3 hangs under copy (1, 2), but 1 entered at layer 1
        (three, {(0, 0, 1), (0, 0, 2), (1, 2, 3)}, 2, 3, "D1"),
        (nested, {(0, 1, 1), (1, 2, 2)}, 1, 3, "D1"),  # the root has no copy at layer 1
        (three, {(0, 0, 1), (1, 1, 2), (2, 2, 3)}, 1, 2, "D1"),  # 3 enters above height 2
    ]
    for rep, arcs, c, height, condition in bad:
        with pytest.raises(LayerConditionError) as err:
            decode_plan(rep, arcs, c, height)
        assert err.value.condition == condition, arcs
    # 2 does not contain 1: containment is decode_arborescence's check
    with pytest.raises(NotArborescenceError):
        decode_plan(nested, {(0, 0, 2), (2, 1, 1)}, 1, 2)
    # the children of copy (1, 1) overlap: C1 of decode_arborescence is the
    # chain half of D1
    crossing = normalize([(1, 10), (2, 5), (3, 7)])
    with pytest.raises(ChainConditionError):
        decode_plan(crossing, {(0, 0, 1), (1, 1, 2), (1, 1, 3)}, 1, 2)


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


@settings(max_examples=200, deadline=None)
@given(interval_reps(max_n=14), st.data())
def test_the_first_descent_of_the_search_is_the_greedy_plan(rep, data):
    # a cap the greedy plan does not reach never sends the search back
    height = data.draw(st.integers(1, rep.n))
    greedy = greedy_stack_plan(rep, height)
    for most in (greedy.num_stacks, greedy.num_stacks + 1, rep.n):
        assert stack_plan_within(rep, height, most) == greedy


@settings(max_examples=150, deadline=None)
@given(interval_reps(max_n=8), st.integers(1, 4))
def test_every_search_plan_is_certified_and_the_fewest_it_allows(rep, height):
    fewest = stacks_exact(rep, build_graph(rep), height)
    for most in range(1, rep.n + 1):
        plan = stack_plan_within(rep, height, most)
        if most < fewest:
            assert plan is None
        else:
            check_plan(rep, plan, height, plan.num_stacks)
            assert plan.num_stacks <= most
    assert stack_plan_within(rep, height, fewest).num_stacks == fewest


def _lower_bound(rep, height):
    """lb = max(omega, d/H) at the effective height H, d the deepest overlap."""
    depth = max_antichain(rep, rep.vertices)
    return max(len(max_clique(rep)), depth / effective_height(rep, height))


@settings(max_examples=150, deadline=None)
@given(interval_reps(max_n=10), st.integers(1, 4))
def test_the_stacks_lp_is_at_least_the_bound_and_meets_it_when_settled(rep, height):
    lb = _lower_bound(rep, height)
    root = solve_lp(_cgh(rep, effective_height(rep, height)).relaxed()).objective
    assert root >= lb - 1e-9
    report = solve_stacks(rep, height)
    if report.nodes_explored == 0:  # settled with no LP by a plan of lb stacks
        assert report.chromatic_number == report.fractional_chromatic == lb
        assert root == pytest.approx(lb, abs=1e-9)


def test_the_depth_bound_settles_past_omega():
    # three nested intervals at height 1 and two disjoint ones inside the
    # outer: omega = 1, d = 3, and the greedy plan needs 3 stacks
    rep = normalize([(1, 10), (2, 5), (3, 4), (6, 9), (7, 8)])
    report = solve_stacks(rep, 1)
    assert len(report.clique) == 1 and max_antichain(rep, rep.vertices) == 3
    answer = (report.chromatic_number, report.fractional_chromatic, report.nodes_explored)
    assert answer == (3, 3.0, 0)


def test_the_deepest_overlap_is_certified():
    rng = np.random.default_rng(65)
    for k in range(30):
        rep = generate_one(int(rng.integers(1, 30)), 665, k)
        assert check_overlap(rep, deepest_overlap(rep)) == max_antichain(rep, rep.vertices)


def test_a_corrupted_depth_witness_is_refused(c5, monkeypatch):
    # C5's intervals 1 and 3 are disjoint, so they share no point
    for bad in ([1, 3], [2, 2], [2, 6], [0, 2], []):
        with pytest.raises(CertificateError):
            check_overlap(c5, bad)
    monkeypatch.setattr(bnb, "deepest_overlap", lambda rep: [1, 2, 3])
    with pytest.raises(CertificateError, match="does not cover one point"):
        solve_stacks(c5, 2)


def test_a_search_of_2000_vertices_backtracks_without_recursion(monkeypatch):
    # a descent 2000 placements deep would pass the default recursion
    # limit, and a cap one below the greedy plan sends it back
    rep = generate_one(2000, 30, 0)
    greedy = greedy_stack_plan(rep, 2)
    plan = stack_plan_within(rep, 2, greedy.num_stacks - 1)
    check_plan(rep, plan, 2, plan.num_stacks)
    assert plan.num_stacks < greedy.num_stacks
    # n placements are not enough once the first descent has failed
    monkeypatch.setattr(stowage, "SEARCH_NODES_PER_VERTEX", 1)
    assert stack_plan_within(rep, 2, greedy.num_stacks - 1) is None


@settings(max_examples=150, deadline=None)
@given(interval_reps(max_n=12), st.integers(1, 4))
def test_the_arcs_check_plan_returns_decode_back_to_the_plan(rep, height):
    h = effective_height(rep, height)
    plan = greedy_stack_plan(rep, h)
    # the solver decodes the greedy plan's arcs when nothing beats it
    arcs = check_plan(rep, plan, h, plan.num_stacks)
    assert decode_plan(rep, arcs, plan.num_stacks, h) == plan


def _plan_arcs(rep, plan):
    """The layered arcs of a plan as the union of its stacks'
    check_independent nestings."""
    return {arc for stack in plan.stacks for arc in check_independent(rep, stack, "stack {}")}


def _reshaped_plans(rep, data):
    """The greedy plan at each height up to the nesting depth, then the
    same plan with two stacks merged, and with a stack split in two."""
    for h in range(1, nesting_depth(rep) + 1):
        stacks = list(greedy_stack_plan(rep, h).stacks)
        yield StackPlan(stacks=tuple(stacks))
        if len(stacks) > 1:
            a, b = sorted(data.draw(st.lists(st.sampled_from(range(len(stacks))), min_size=2,
                                             max_size=2, unique=True)))
            merged = stacks[:a] + [stacks[a] + stacks[b]] + stacks[a + 1:b] + stacks[b + 1:]
            yield StackPlan(stacks=tuple(merged))
        k = data.draw(st.sampled_from(range(len(stacks))))
        if len(stacks[k]) > 1:
            part = data.draw(st.lists(st.sampled_from(stacks[k]), min_size=1,
                                      max_size=len(stacks[k]) - 1, unique=True))
            rest = tuple(v for v in stacks[k] if v not in part)
            yield StackPlan(stacks=tuple(stacks[:k]) + (tuple(part), rest) + tuple(stacks[k + 1:]))


@settings(max_examples=150, deadline=None)
@given(interval_reps(max_n=12), st.data())
def test_check_plan_returns_the_nestings_and_refuses_exactly_the_tall_stacks(rep, data):
    for plan in _reshaped_plans(rep, data):
        for height in range(1, nesting_depth(rep) + 2):
            # check_plan reports the first stack that fails either check
            want = None
            for stack in plan.stacks:
                if any(rep.overlaps(u, v) for u, v in combinations(stack, 2)):
                    want = " holds overlapping "
                elif max_antichain(rep, stack) > height:
                    want = f"stack {stack} exceeds the capacity {height}"
                if want:
                    break
            if want is None:
                arcs = check_plan(rep, plan, height, plan.num_stacks)
                assert len(arcs) == rep.n and set(arcs) == _plan_arcs(rep, plan)
                continue
            with pytest.raises(CertificateError) as info:
                check_plan(rep, plan, height, plan.num_stacks)
            assert want in str(info.value)
        # a stack exactly at the capacity passes
        if not any(rep.overlaps(u, v) for s in plan.stacks for u, v in combinations(s, 2)):
            check_plan(rep, plan, max(max_antichain(rep, s) for s in plan.stacks),
                       plan.num_stacks)


def test_decode_plan_refuses_an_arc_outside_the_vertices(c5):
    # (99, 1, 5) once raised KeyError: 99 from the layer check
    entries = {(0, 0, v) for v in range(1, 5)}
    for arc, vertex in [((99, 1, 5), 99), ((-1, 1, 5), -1), ((0, 0, 9), 9), ((0, 0, 0), 0)]:
        with pytest.raises(NotArborescenceError, match=rf"^arc \({arc[0]}, {arc[2]}\)") as err:
            decode_plan(c5, entries | {arc}, 3, 2)
        assert err.value.vertex == vertex


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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_check_plan_refuses_a_stack_exactly_when_two_of_its_vertices_overlap(data):
    rep = data.draw(interval_reps(10))
    groups = {}
    for v in rep.vertices:
        groups.setdefault(data.draw(st.integers(0, 2)), []).append(v)
    plan = StackPlan(stacks=tuple(tuple(data.draw(st.permutations(g))) for g in groups.values()))
    bad = [stack for stack in plan.stacks
           if any(rep.overlaps(u, v) for u, v in combinations(stack, 2))]
    if not bad:
        check_plan(rep, plan, rep.n, plan.num_stacks)
        return
    with pytest.raises(CertificateError) as info:
        check_plan(rep, plan, rep.n, plan.num_stacks)
    head, pair = str(info.value).split(" holds overlapping ")
    u, v = map(int, pair.split(" and "))
    assert head == f"stack {bad[0]}"
    assert u in bad[0] and v in bad[0] and rep.overlaps(u, v)


class _Unprintable(tuple):
    def __str__(self):
        raise AssertionError("a stack label formatted")


def test_check_plan_formats_a_stack_label_only_on_failure(c5):
    good = StackPlan(stacks=tuple(map(_Unprintable, ((1, 3), (2, 4), (5,)))))
    check_plan(c5, good, 2, 3)
    bad = StackPlan(stacks=((1, 2), (3, 4), (5,)))
    with pytest.raises(CertificateError, match=r"^stack \(1, 2\) holds overlapping 1 and 2$"):
        check_plan(c5, bad, 2, 3)


def test_solve_stacks_rejects_a_corrupted_decode(c5, monkeypatch):
    # the greedy plan has 3 stacks against omega = 2, so the LP path runs
    corrupt = StackPlan(stacks=((1, 2), (3, 4), (5,)))  # 1 and 2 overlap
    monkeypatch.setattr(bnb, "decode_plan", lambda *args: corrupt)
    with pytest.raises(CertificateError):
        solve_stacks(c5, 2)


def test_solve_stacks_certifies_the_stack_height(monkeypatch):
    # decode_plan leaves a stack's height to check_plan; a chain of three
    # nested intervals and one beside them need 2 stacks at height 2, and
    # a decode that stacks the chain whole is one layer too tall
    rep = normalize([(1, 6), (2, 5), (3, 4), (7, 8)])
    tall = StackPlan(stacks=((1, 2, 3), (4,)))
    monkeypatch.setattr(bnb, "decode_plan", lambda *args: tall)
    with pytest.raises(CertificateError, match=r"^stack \(1, 2, 3\) exceeds the capacity 2$"):
        solve_stacks(rep, 2)


def _reference_arborescence(rep, coloring):
    """Each vertex's parent is the inclusion-minimal same-colored interval
    strictly containing it, or the root if there is none; a scan over all
    pairs, O(n^2)."""
    arcs = set()
    for j in rep.vertices:
        best = None
        for i in rep.vertices:
            if i != j and coloring.colors[i] == coloring.colors[j] and rep.contains(i, j):
                if best is None or rep.contains(best, i):
                    best = i
        arcs.add((best if best is not None else ROOT, j))
    return frozenset(arcs)


@settings(max_examples=200, deadline=None)
@given(interval_reps(max_n=12), st.data())
def test_arborescence_of_coloring_matches_the_pairwise_scan(rep, data):
    order = data.draw(st.permutations(list(rep.vertices)))
    height = data.draw(st.integers(1, rep.n))
    plan = greedy_stack_plan(rep, height)
    colorings = [
        first_fit(build_graph(rep), order),
        decode_arborescence(rep, {(0, v) for v in rep.vertices}, max_antichain(rep, rep.vertices)),
        decode_arborescence(rep, {(i, j) for i, _, j in check_plan(rep, plan, height,
                                                                   plan.num_stacks)},
                            plan.num_stacks),
    ]
    for coloring in colorings:
        assert arborescence_of_coloring(rep, coloring) == _reference_arborescence(rep, coloring)


DECODE_ERRORS = (NotArborescenceError, ChainConditionError, AntichainBoundError,
                 LayerConditionError)


def _single_arc_corruptions(rep, arcs, height=None):
    """Every arc set one arc away from arcs: one arc dropped, a vertex given
    a second entry arc along containment, or an arc's source swapped for a
    vertex that does not contain its head.  The arcs are CG pairs (i, j),
    or layered triples (i, h, j) when the height is given."""
    def entries(i, j):
        if height is None:
            return [(i, j)]
        return [(i, h, j) for h in ([0] if i == ROOT else range(1, height))]

    arcs = set(arcs)
    for a in arcs:
        j = a[-1]
        yield arcs - {a}
        for i in [ROOT, *rep.vertices]:
            if i == ROOT or rep.contains(i, j):
                yield from (arcs | {b} for b in entries(i, j) if b not in arcs)
            elif i != j:
                yield from ((arcs - {a}) | {b} for b in entries(i, j))


@settings(max_examples=40, deadline=None)
@given(interval_reps(max_n=8))
def test_single_arc_corruptions_are_rejected(rep):
    report = solve_chromatic(rep)
    chi = report.chromatic_number
    for arcs in _single_arc_corruptions(rep, report.coloring.certificate):
        try:
            coloring = decode_arborescence(rep, arcs, chi)
        except DECODE_ERRORS:
            continue
        classes = {}
        for v in rep.vertices:
            classes.setdefault(coloring.colors[v], []).append(v)
        plan = StackPlan(stacks=tuple(tuple(c) for c in classes.values()))
        check_plan(rep, plan, rep.n, plan.num_stacks)
        assert plan.num_stacks <= chi
    report = solve_stacks(rep, 2)
    plan_arcs = check_plan(rep, report.plan, 2, report.chromatic_number)
    for arcs in _single_arc_corruptions(rep, plan_arcs, 2):
        try:
            plan = decode_plan(rep, arcs, report.chromatic_number, 2)
        except DECODE_ERRORS:
            continue
        check_plan(rep, plan, 2, plan.num_stacks)
        assert plan.num_stacks <= report.chromatic_number


@settings(max_examples=200, deadline=None)
@given(interval_reps(max_n=10))
def test_every_accepted_arc_set_is_the_arborescence_of_its_coloring(rep):
    # C1 leaves each vertex below its innermost same-colored container, so
    # the solver may report arborescence_of_coloring for any decoded arcs
    for height in range(1, nesting_depth(rep) + 1):
        plan = greedy_stack_plan(rep, height)
        arcs = {(i, j) for i, _, j in check_plan(rep, plan, height, plan.num_stacks)}
        accepted = 0
        for candidate in [arcs, *_single_arc_corruptions(rep, arcs)]:
            try:
                coloring = decode_arborescence(rep, candidate, rep.n)
            except DECODE_ERRORS:
                continue
            accepted += 1
            assert coloring.certificate == arborescence_of_coloring(rep, coloring)
        assert accepted  # the plan's own arcs decode
