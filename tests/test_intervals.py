from dataclasses import fields
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import interval_reps

from circlecolor.errors import DuplicateEndpointError, EmptyInstanceError, InstanceFormatError
from circlecolor.instances import generate_one
from circlecolor.oracle import chromatic_exact, max_clique_exact
from circlecolor.intervals import (
    ROOT,
    CircleGraph,
    Coloring,
    IntervalRep,
    build_clique_matrix,
    build_dag,
    build_graph,
    color_within,
    count_edges,
    format_instance,
    max_antichain,
    max_clique,
    normalize,
    overlap_lists,
    parse_instance,
    rising_run,
    to_dimacs,
    topological_order,
    validate_coloring,
)
from circlecolor.mwis import solve_mwis


def test_normalize_sequence_example():
    rep = normalize([(5, 3), (1, 4), (6, 2)])
    assert (rep.left[1], rep.right[1]) == (3, 5)
    assert (rep.left[2], rep.right[2]) == (1, 4)
    assert (rep.left[3], rep.right[3]) == (2, 6)


def test_normalize_rank_compresses():
    rep = normalize([(10, 20)])
    assert rep.n == 1
    assert (rep.left[1], rep.right[1]) == (1, 2)


def _normalize_reference(pairs):
    """normalize by a dict of sorted ranks: the pairs, or the error text."""
    flat = [x for pair in pairs for x in pair]
    if not flat:
        return "no intervals given"
    for a, b in pairs:
        if a == b:
            return f"degenerate interval ({a}, {b})"
    seen = set()
    for x in flat:
        if x in seen:
            return f"endpoint {x} appears twice"
        seen.add(x)
    rank = {x: k + 1 for k, x in enumerate(sorted(flat))}
    return [tuple(sorted((rank[a], rank[b]))) for a, b in pairs]


ENDPOINTS = (st.integers(-6, 6) | st.integers(2**63 - 3, 2**64)
             | st.floats(-6, 6, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(ENDPOINTS, ENDPOINTS), max_size=6))
def test_normalize_matches_the_sorted_rank_reference(pairs):
    # small ranges make repeats common; the big integers overflow int64
    want = _normalize_reference(pairs)
    try:
        rep = normalize(pairs)
    except (DuplicateEndpointError, EmptyInstanceError) as exc:
        assert str(exc) == want
    else:
        assert [(rep.left[v], rep.right[v]) for v in rep.vertices] == want
        assert all(type(x) is int for x in rep.left + rep.right)


def test_normalize_c5_already_permutation(c5):
    eps = sorted(c5.left[1:]) + sorted(c5.right[1:])
    assert sorted(eps) == list(range(1, 11))
    assert [(c5.left[v], c5.right[v]) for v in c5.vertices] == [
        (1, 4), (3, 6), (5, 8), (7, 10), (2, 9)]


def test_normalize_rejects_duplicates_and_empty():
    with pytest.raises(DuplicateEndpointError):
        normalize([(1, 2), (2, 3)])
    with pytest.raises(DuplicateEndpointError):
        normalize([(3, 3)])
    with pytest.raises(EmptyInstanceError):
        normalize([])


def test_build_graph_p3(p3):
    g = build_graph(p3)
    assert set(g.edges()) == {(1, 2), (2, 3)}


@settings(max_examples=200, deadline=None)
@given(interval_reps(max_n=14))
def test_overlap_lists_are_the_pairwise_overlap_test(rep):
    adj = overlap_lists(rep)
    assert len(adj) == rep.n + 1 and not adj[0]
    for i in rep.vertices:
        assert sorted(adj[i]) == [j for j in rep.vertices if rep.overlaps(i, j)]


@settings(max_examples=200, deadline=None)
@given(interval_reps(max_n=14))
def test_count_edges_matches_the_graph(rep):
    assert count_edges(rep) == build_graph(rep).num_edges


def _pairwise_graph(rep):
    """The reference graph: the partial-overlap test on every pair, each
    adjacency set filled by add in ascending order, O(n^2)."""
    adj = [set() for _ in range(rep.n + 1)]
    for i in rep.vertices:
        for j in range(i + 1, rep.n + 1):
            if rep.overlaps(i, j):
                adj[i].add(j)
                adj[j].add(i)
    return CircleGraph(n=rep.n, adj=tuple(frozenset(a) for a in adj))


def _check_graph(rep):
    graph, want = build_graph(rep), _pairwise_graph(rep)
    assert graph == want
    # the same iteration order, which the exports write
    assert [list(a) for a in graph.adj] == [list(a) for a in want.adj]
    assert graph.edges() == want.edges()


@settings(max_examples=100, deadline=None)
@given(interval_reps(max_n=160))
def test_build_graph_is_the_pairwise_overlap_test(rep):
    _check_graph(rep)


def test_build_graph_is_the_pairwise_overlap_test_on_a_fixed_sweep():
    for n in list(range(1, 41)) + [60, 80, 100, 120, 140, 160]:
        for k in range(5):
            _check_graph(generate_one(n, 778, k))


@settings(max_examples=200, deadline=None)
@given(interval_reps(max_n=20))
def test_the_endpoint_table_holds_each_vertex_at_its_two_endpoints(rep):
    twin = IntervalRep(n=rep.n, left=rep.left, right=rep.right)
    before = hash(rep)
    at = rep.at
    assert len(at) == 2 * rep.n + 1 and at[ROOT] == ROOT
    assert sorted(at[1:]) == sorted(2 * list(rep.vertices))
    assert all(at[rep.left[v]] == at[rep.right[v]] == v for v in rep.vertices)
    assert rep.at is at  # built once
    # not a field: equality, hashing and the printed form are as before
    assert "at" not in {f.name for f in fields(IntervalRep)}
    assert rep == twin and hash(rep) == hash(twin) == before
    assert repr(rep) == repr(twin)


def test_build_graph_disjoint():
    g = build_graph(normalize([(1, 2), (3, 4)]))
    assert g.num_edges == 0


def test_build_graph_c5(c5_graph):
    assert set(c5_graph.edges()) == {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}


def test_build_dag_p3(p3):
    dag = build_dag(p3)
    assert set(dag.arcs) == {(0, 1), (0, 2), (0, 3), (3, 1)}


def test_build_dag_single():
    dag = build_dag(normalize([(1, 2)]))
    assert set(dag.arcs) == {(0, 1)}
    assert dag.branching == frozenset()


def test_build_dag_c5(c5_dag):
    assert c5_dag.branching == frozenset({5})
    assert set(c5_dag.children[5]) == {2, 3}


def test_max_antichain(c5, p3):
    assert max_antichain(c5, c5.vertices) == 3
    assert max_antichain(c5, []) == 0
    assert max_antichain(p3, p3.vertices) == 3


def test_validate_coloring(p3, c5, c5_graph):
    g = build_graph(p3)
    assert validate_coloring(g, Coloring(colors={1: 1, 2: 2, 3: 1}))
    assert not validate_coloring(g, Coloring(colors={1: 1, 2: 1, 3: 2}))
    assert validate_coloring(
        c5_graph, Coloring(colors={1: 1, 2: 2, 3: 1, 4: 2, 5: 3}))


def test_instance_round_trip(c5):
    text = format_instance(c5)
    again = parse_instance(text)
    assert again == c5
    with pytest.raises(InstanceFormatError):
        parse_instance("2\n1 2\n")
    with pytest.raises(InstanceFormatError):
        parse_instance("x\n")


@settings(max_examples=200, deadline=None)
@given(interval_reps(max_n=20))
def test_format_then_parse_is_the_identity(rep):
    assert parse_instance(format_instance(rep)) == rep


@settings(max_examples=200, deadline=None)
@given(interval_reps(max_n=20), st.integers(1, 9), st.integers(-50, 50), st.data())
def test_order_preserving_rescaling_changes_nothing(rep, scale, shift, data):
    def rescaled(a, b):
        # endpoints given right first, as raw input may be
        return normalize([(a * rep.right[v] + b, a * rep.left[v] + b) for v in rep.vertices])

    assert rescaled(3, 7) == rep
    again = rescaled(scale, shift)
    assert again == rep
    weights = {v: data.draw(st.integers(-3, 3)) for v in rep.vertices}
    value, _, chosen = solve_mwis(rep, weights)
    assert solve_mwis(again, weights)[::2] == (value, chosen)


def test_parse_instance_comments():
    rep = parse_instance("# demo\n1\n# body\n1 2\n")
    assert rep.n == 1


def test_to_dimacs(c5_graph):
    lines = to_dimacs(c5_graph).splitlines()
    assert lines[0] == "p edge 5 5"
    assert len([ln for ln in lines if ln.startswith("e ")]) == 5


def test_topological_order(c5):
    order = topological_order(c5)
    assert sorted(order) == list(c5.vertices)
    pos = {v: k for k, v in enumerate(order)}
    for i in c5.vertices:
        for j in c5.vertices:
            if i != j and c5.contains(i, j):
                assert pos[i] < pos[j]


def test_containment_is_transitive_on_random():
    for k in range(30):
        rep = generate_one(int(np.random.default_rng(k).integers(2, 11)), 901, k)
        dag = build_dag(rep)
        arcs = {(i, j) for (i, j) in dag.arcs if i != 0}
        for (i, j) in arcs:
            for (j2, k2) in arcs:
                if j == j2:
                    assert (i, k2) in arcs


def test_chains_are_independent_sets():
    for k in range(30):
        rep = generate_one(8, 902, k)
        g = build_graph(rep)
        for size in (2, 3):
            for sub in combinations(rep.vertices, size):
                if rep.is_chain(sub):
                    for a, b in combinations(sub, 2):
                        assert b not in g.adj[a]


def _brute_max_antichain(rep, subset):
    best = 0
    subset = list(subset)
    for size in range(1, len(subset) + 1):
        for sub in combinations(subset, size):
            if rep.is_antichain(sub):
                best = max(best, size)
    return best


def test_max_antichain_matches_brute_force():
    rng = np.random.default_rng(3)
    for k in range(20):
        rep = generate_one(int(rng.integers(1, 9)), 903, k)
        subset = [v for v in rep.vertices if rng.random() < 0.7]
        assert max_antichain(rep, subset) == _brute_max_antichain(rep, subset)


@settings(max_examples=200, deadline=None)
@given(interval_reps(max_n=30))
def test_build_dag_children_are_the_pairwise_containments(rep):
    dag = build_dag(rep)
    assert dag.children[0] == tuple(rep.vertices)
    for i in rep.vertices:
        assert dag.children[i] == tuple(j for j in rep.vertices if rep.contains(i, j))
    assert dag.branching == frozenset(i for i in rep.vertices if dag.children[i])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_max_antichain_matches_brute_force_on_random_subsets(data):
    rep = data.draw(interval_reps(max_n=9))
    subset = data.draw(st.lists(st.sampled_from(list(rep.vertices)), unique=True))
    assert max_antichain(rep, subset) == _brute_max_antichain(rep, subset)


def test_adjacency_invariant_under_rank_compression():
    rng = np.random.default_rng(4)
    for k in range(20):
        rep = generate_one(int(rng.integers(2, 9)), 904, k)
        scale = [(10 * rep.left[v] + 3, 10 * rep.right[v] + 3) for v in rep.vertices]
        assert set(build_graph(normalize(scale)).edges()) == set(build_graph(rep).edges())


def _incidence(rep, points):
    """incidence[r]: the vertices whose interval holds points[r]."""
    return [[v for v in rep.vertices if rep.left[v] <= p <= rep.right[v]] for p in points]


def test_clique_matrix_consecutive_ones(c5):
    # the rows of each column are the consecutive ones of its incidence
    rng = np.random.default_rng(6)
    reps = [c5] + [generate_one(int(rng.integers(1, 25)), 906, k) for k in range(40)]
    for rep in reps:
        for full in (False, True):
            m = build_clique_matrix(rep, full_points=full)
            ends = rep.left[1:] + (rep.right[1:] if full else ())
            assert list(m.points) == sorted(ends)
            incidence = _incidence(rep, m.points)
            assert list(m.rows[0]) == []
            for v in rep.vertices:
                ones = [r for r, vs in enumerate(incidence) if v in vs]
                assert ones == list(range(ones[0], ones[-1] + 1))  # holds l_v at least
                assert list(m.rows[v]) == ones, (rep, full, v)


def test_clique_matrix_rows_match_max_antichain():
    rng = np.random.default_rng(5)
    for k in range(20):
        rep = generate_one(int(rng.integers(1, 11)), 905, k)
        subset = [v for v in rep.vertices if rng.random() < 0.7]
        want = max_antichain(rep, subset)
        for full in (False, True):
            m = build_clique_matrix(rep, full_points=full)
            load = [len(set(subset) & set(vs)) for vs in _incidence(rep, m.points)]
            assert max(load) == want


def test_longest_rising_run_is_strict():
    assert len(rising_run([])) == 0
    assert len(rising_run([3, 1, 2, 5, 4])) == 3
    assert len(rising_run([2, 2, 2])) == 1
    assert len(rising_run([1, 3, 3, 4])) == 3


def test_clique_number_of_the_empty_set_and_singletons():
    assert len(max_clique(IntervalRep(n=0, left=(0,), right=(0,)))) == 0
    assert len(max_clique(normalize([(1, 2)]))) == 1
    assert len(max_clique(normalize([(1, 2), (3, 4)]))) == 1
    assert len(max_clique(normalize([(1, 4), (2, 3)]))) == 1


@settings(max_examples=300, deadline=None)
@given(interval_reps(max_n=14))
def test_clique_number_matches_the_oracle(rep):
    assert len(max_clique(rep)) == max_clique_exact(build_graph(rep))


def test_clique_number_matches_networkx_on_a_fixed_sweep():
    for n in list(range(1, 30)) + [40, 60]:
        for k in range(10):
            rep = generate_one(n, 777, k)
            assert len(max_clique(rep)) == max_clique_exact(build_graph(rep)), (n, k)


def _check_max_clique(rep):
    clique = max_clique(rep)
    assert len(clique) == max_clique_exact(build_graph(rep))
    assert all(rep.overlaps(a, b) for a, b in combinations(clique, 2))
    assert list(clique) == sorted(clique, key=rep.left.__getitem__)


@settings(max_examples=300, deadline=None)
@given(interval_reps(max_n=14))
def test_max_clique_is_a_maximum_clique(rep):
    _check_max_clique(rep)


def test_max_clique_is_a_maximum_clique_on_the_fixed_sweep():
    for n in list(range(1, 30)) + [40, 60]:
        for k in range(10):
            _check_max_clique(generate_one(n, 777, k))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=20))
def test_rising_run_is_a_longest_strictly_rising_run(values):
    run = rising_run(values)
    # the longest: patience sorting's length, recomputed by quadratic DP
    longest = [1] * len(values)
    for q in range(len(values)):
        longest[q] += max((longest[p] for p in range(q) if values[p] < values[q]), default=0)
    assert len(run) == max(longest, default=0)
    assert all(p < q and values[p] < values[q] for p, q in zip(run, run[1:]))


@settings(max_examples=200, deadline=None)
@given(interval_reps(max_n=10))
def test_color_within_colors_at_chi_and_not_below(rep):
    g = build_graph(rep)
    chi = chromatic_exact(g)
    colors = color_within(rep, chi)
    assert sorted(colors) == list(rep.vertices)
    assert sorted(set(colors.values())) == list(range(1, chi + 1))
    assert all(colors[i] != colors[j] for i, j in g.edges())
    assert color_within(rep, chi - 1) is None
