from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import interval_reps

from circlecolor.errors import DuplicateEndpointError, EmptyInstanceError, InstanceFormatError
from circlecolor.instances import generate_one
from circlecolor.oracle import max_clique_exact
from circlecolor.intervals import (
    Coloring,
    IntervalRep,
    build_clique_matrix,
    build_dag,
    build_graph,
    clique_number,
    format_instance,
    longest_rising_run,
    max_antichain,
    normalize,
    parse_instance,
    to_dimacs,
    topological_order,
    validate_coloring,
)


def test_normalize_sequence_example():
    rep = normalize([(5, 3), (1, 4), (6, 2)])
    assert rep.interval(1) == (3, 5)
    assert rep.interval(2) == (1, 4)
    assert rep.interval(3) == (2, 6)


def test_normalize_rank_compresses():
    rep = normalize([(10, 20)])
    assert rep.n == 1
    assert rep.interval(1) == (1, 2)


def test_normalize_c5_already_permutation(c5):
    eps = sorted(c5.left[1:]) + sorted(c5.right[1:])
    assert sorted(eps) == list(range(1, 11))
    assert [c5.interval(v) for v in c5.vertices] == [
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
    assert longest_rising_run([]) == 0
    assert longest_rising_run([3, 1, 2, 5, 4]) == 3
    assert longest_rising_run([2, 2, 2]) == 1
    assert longest_rising_run([1, 3, 3, 4]) == 3


def test_clique_number_of_the_empty_set_and_singletons():
    assert clique_number(IntervalRep(n=0, left=(0,), right=(0,))) == 0
    assert clique_number(normalize([(1, 2)])) == 1
    assert clique_number(normalize([(1, 2), (3, 4)])) == 1
    assert clique_number(normalize([(1, 4), (2, 3)])) == 1


@settings(max_examples=300, deadline=None)
@given(interval_reps(max_n=14))
def test_clique_number_matches_the_oracle(rep):
    assert clique_number(rep) == max_clique_exact(build_graph(rep))


def test_clique_number_matches_networkx_on_a_fixed_sweep():
    for n in list(range(1, 30)) + [40, 60]:
        for k in range(10):
            rep = generate_one(n, 777, k)
            assert clique_number(rep) == max_clique_exact(build_graph(rep)), (n, k)
