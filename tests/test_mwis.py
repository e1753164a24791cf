import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import interval_reps

from circlecolor.errors import (
    AntichainBoundError,
    CertificateError,
    ChainConditionError,
    NotArborescenceError,
)
from circlecolor.instances import generate_one
from circlecolor.intervals import (
    ROOT,
    build_graph,
    max_antichain,
    normalize,
    topological_order,
    validate_coloring,
)
from circlecolor.mwis import (
    chain_partition,
    check_clique,
    check_independent,
    decode_arborescence,
    max_weight_chain,
    solve_mwis,
)
from circlecolor.oracle import mwis_exact
from circlecolor.stowage import arborescence_of_coloring


def test_max_weight_chain_overlapping_pair(c5):
    value, chain = max_weight_chain(c5, [2, 3], {2: 1.0, 3: 1.0})
    assert value == 1.0
    assert chain in ([2], [3])


def test_max_weight_chain_empty(c5):
    assert max_weight_chain(c5, [], {}) == (0.0, [])


def test_max_weight_chain_disjoint_triple():
    rep = normalize([(1, 2), (3, 4), (5, 6)])
    value, chain = max_weight_chain(rep, rep.vertices, {1: 1.0, 2: 1.0, 3: 1.0})
    assert value == 3.0
    assert sorted(chain) == [1, 2, 3]


def test_max_weight_chain_skips_negative():
    rep = normalize([(1, 2), (3, 4), (5, 6)])
    value, chain = max_weight_chain(rep, rep.vertices, {1: 2.0, 2: -1.0, 3: 3.0})
    assert value == 5.0
    assert sorted(chain) == [1, 3]


def _max_weight_chain_quadratic(rep, candidates, values):
    """Reference: for each candidate, rescan every earlier one, O(k^2)."""
    cand = sorted(candidates, key=lambda v: rep.right[v])
    best_val = {}
    best_prev = {}
    for v in cand:
        prior, prior_v = 0.0, None
        for u in cand:
            if rep.right[u] >= rep.right[v]:
                break
            if rep.right[u] <= rep.left[v] and best_val[u] > prior:
                prior, prior_v = best_val[u], u
        best_val[v] = values[v] + prior
        best_prev[v] = prior_v
    value, last = 0.0, None
    for v in cand:
        if best_val[v] > value:
            value, last = best_val[v], v
    chain = []
    while last is not None:
        chain.append(last)
        last = best_prev[last]
    chain.reverse()
    return value, chain


def _solve_mwis_reference(rep, weights):
    """Reference label DP: all-pairs child sets and the quadratic chain."""
    kids = {i: [j for j in rep.vertices if rep.contains(i, j)] for i in rep.vertices}
    ell, chosen = {}, {}
    for i in reversed(topological_order(rep)):
        if kids[i]:
            val, chosen[i] = _max_weight_chain_quadratic(rep, kids[i], ell)
            ell[i] = weights[i] + val
        else:
            ell[i], chosen[i] = weights[i], []
    ell[ROOT], stack = _max_weight_chain_quadratic(rep, list(rep.vertices), ell)
    witness = set()
    while stack:
        v = stack.pop()
        witness.add(v)
        stack.extend(chosen[v])
    return ell[ROOT], ell, frozenset(witness)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_max_weight_chain_matches_quadratic_reference(data):
    rep = data.draw(interval_reps(max_n=14))
    cand = data.draw(st.lists(st.sampled_from(list(rep.vertices)), unique=True))
    values = {v: data.draw(st.integers(-2, 2)) for v in rep.vertices}
    assert max_weight_chain(rep, cand, values) == _max_weight_chain_quadratic(rep, cand, values)


@pytest.mark.parametrize("value", [-2, -1, 0, 1, 2, 0.5])
def test_max_weight_chain_empty_and_single_match_reference(c5, value):
    for cand in ([], [3]):
        got = max_weight_chain(c5, cand, {3: value})
        assert got == _max_weight_chain_quadratic(c5, cand, {3: value})
        assert got == ((value, [3]) if cand and value > 0 else (0.0, []))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_solve_mwis_matches_reference_label_dp(data):
    rep = data.draw(interval_reps(max_n=24))
    weights = {v: data.draw(st.integers(-2, 2) | st.floats(-3, 3)) for v in rep.vertices}
    value, labels, chosen = solve_mwis(rep, weights)
    ref_value, ref_ell, ref_chosen = _solve_mwis_reference(rep, weights)
    assert (value, labels, chosen) == (ref_value, ref_ell, ref_chosen)
    assert [type(labels[v]) for v in labels] == [type(ref_ell[v]) for v in labels]


WEIGHT_KINDS = {
    "int": lambda rng: int(rng.integers(-5, 6)),
    "real": lambda rng: float(rng.uniform(-3, 3)),
    "ones": lambda rng: 1.0,
    "minus_ones": lambda rng: -1.0,
    "int_zeros": lambda rng: 0,
}


@pytest.mark.parametrize("n", [50, 120, 400])
def test_solve_mwis_matches_reference_at_benchmark_size(n):
    # the hypothesis test above stops at n <= 24; deep nesting needs larger n
    for k in range(6):
        rep = generate_one(n, 31, k)
        for kind, weight in WEIGHT_KINDS.items():
            rng = np.random.default_rng([n, k])
            weights = {v: weight(rng) for v in rep.vertices}
            value, labels, chosen = solve_mwis(rep, weights)
            ref_value, ref_ell, ref_chosen = _solve_mwis_reference(rep, weights)
            assert (value, chosen) == (ref_value, ref_chosen), (n, k, kind)
            assert labels == ref_ell, (n, k, kind)
            assert list(labels) == list(ref_ell), (n, k, kind)
            assert [type(x) for x in labels.values()] == \
                [type(x) for x in ref_ell.values()], (n, k, kind)


def test_check_independent_rejects_the_crossing_pair(c5):
    with pytest.raises(CertificateError, match="overlapping 1 and 2"):
        check_independent(c5, {1, 2})
    check_independent(c5, {5, 3})  # I(5) contains I(3)
    check_independent(c5, set())


def test_check_clique_rejects_a_non_clique(c5):
    check_clique(c5, (1, 2))
    check_clique(c5, (5,))
    check_clique(c5, ())
    with pytest.raises(CertificateError, match=r"^clique \(1, 2, 3\) holds 1 and 3, which do not"):
        check_clique(c5, (1, 2, 3))
    with pytest.raises(CertificateError, match="holds 1 and 1"):
        check_clique(c5, (1, 1))
    with pytest.raises(CertificateError, match="outside 1..5"):
        check_clique(c5, (1, 6))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_check_independent_refuses_exactly_the_sets_with_an_overlapping_pair(data):
    rep = data.draw(interval_reps(14))
    subset = data.draw(st.lists(st.sampled_from(list(rep.vertices)), unique=True))
    crossing = [(u, v) for u, v in combinations(subset, 2) if rep.overlaps(u, v)]
    try:
        check_independent(rep, subset, "this set")
    except CertificateError as exc:
        named = re.fullmatch(r"this set holds overlapping (\d+) and (\d+)", str(exc))
        assert named, str(exc)
        u, v = int(named[1]), int(named[2])
        assert u in subset and v in subset and rep.overlaps(u, v)
    else:
        assert not crossing


def test_solve_mwis_negative_single():
    rep = normalize([(1, 2)])
    value, labels, chosen = solve_mwis(rep, {1: -3.0})
    assert value == 0.0
    assert chosen == frozenset()


def test_solve_mwis_nested_pair(nested):
    value, labels, chosen = solve_mwis(nested, {1: 1.0, 2: 1.0})
    assert value == 2.0
    assert labels[2] == 1.0
    assert labels[1] == 2.0
    assert labels[0] == 2.0
    assert chosen == frozenset({1, 2})


def test_solve_mwis_c5(c5):
    value, _, chosen = solve_mwis(c5, {v: 1.0 for v in c5.vertices})
    assert value == 2.0
    assert len(chosen) == 2


def test_solve_mwis_matches_brute_force():
    rng = np.random.default_rng(11)
    for k in range(200):
        n = int(rng.integers(1, 13))
        rep = generate_one(n, 777, k)
        g = build_graph(rep)
        w = {v: float(rng.integers(-5, 6)) for v in rep.vertices}
        value, _, chosen = solve_mwis(rep, w)
        assert value == pytest.approx(mwis_exact(g, w), abs=1e-9)
        # witness achieves the value and is independent
        assert sum(w[v] for v in chosen) == pytest.approx(value, abs=1e-9)
        for a in chosen:
            for b in chosen:
                if a < b:
                    assert b not in g.adj[a]


def test_chain_partition_examples():
    rep = normalize([(1, 4), (3, 6), (5, 8)])
    chains = chain_partition(rep, rep.vertices)
    assert len(chains) == 2
    assert chain_partition(rep, []) == []
    pair = normalize([(1, 2), (3, 4)])
    assert len(chain_partition(pair, pair.vertices)) == 1


def test_chain_partition_is_dilworth_tight():
    rng = np.random.default_rng(12)
    for k in range(40):
        rep = generate_one(int(rng.integers(1, 11)), 778, k)
        subset = [v for v in rep.vertices if rng.random() < 0.8]
        chains = chain_partition(rep, subset)
        assert sorted(v for ch in chains for v in ch) == sorted(subset)
        for ch in chains:
            assert rep.is_chain(ch)
        assert len(chains) == max_antichain(rep, subset)


def test_decode_arborescence_p3(p3):
    arcs = {(0, 2), (0, 3), (3, 1)}
    coloring = decode_arborescence(p3, arcs, 2)
    assert coloring.num_colors <= 2
    assert coloring.colors[1] == coloring.colors[3]
    assert validate_coloring(build_graph(p3), coloring)


def test_decode_arborescence_single():
    rep = normalize([(1, 2)])
    coloring = decode_arborescence(rep, {(0, 1)}, 1)
    assert coloring.colors == {1: 1}


def test_decode_arborescence_c5_all_root(c5, c5_graph):
    arcs = {(0, v) for v in c5.vertices}
    coloring = decode_arborescence(c5, arcs, 3)
    assert coloring.num_colors <= 3
    assert validate_coloring(c5_graph, coloring)


def test_decode_arborescence_rejects_bad_input(c5):
    with pytest.raises(NotArborescenceError):
        decode_arborescence(c5, {(0, 1), (0, 2), (0, 3), (0, 4)}, 3)
    # children {2,3} of 5 overlap, so hanging both under 5 breaks the
    # chain condition
    with pytest.raises(ChainConditionError):
        decode_arborescence(c5, {(0, 1), (5, 2), (5, 3), (0, 4), (0, 5)}, 3)
    # C2: the root's five children hold an antichain of 3
    with pytest.raises(AntichainBoundError) as err:
        decode_arborescence(c5, {(0, v) for v in c5.vertices}, 2)
    assert (err.value.needed, err.value.allowed) == (3, 2)


def test_decode_arborescence_refuses_an_arc_outside_the_vertices(c5):
    # each arc replaces the root arc into its head: (0, 9) once indexed
    # past the intervals, (-1, 3) read -1 as vertex 5, which contains 3,
    # (0, 0) hung the decoder in a loop through the root, and a name that
    # is no integer raised TypeError
    for arc, vertex in [((0, 9), 9), ((-1, 3), -1), ((6, 2), 6), ((0, 0), 0), ((0, 2.5), 2.5),
                        (("a", 2), "a")]:
        arcs = {(0, v) for v in c5.vertices if v != arc[1]} | {arc}
        with pytest.raises(NotArborescenceError, match=rf"^arc \({arc[0]}, {arc[1]}\)") as err:
            decode_arborescence(c5, arcs, 3)
        assert err.value.vertex == vertex


def test_rebuild_arborescence_round_trip():
    rng = np.random.default_rng(13)
    for k in range(30):
        rep = generate_one(int(rng.integers(1, 11)), 779, k)
        g = build_graph(rep)
        arcs = {(0, v) for v in rep.vertices}
        c = max_antichain(rep, rep.vertices)
        coloring = decode_arborescence(rep, arcs, c)
        assert validate_coloring(g, coloring)
        rebuilt = arborescence_of_coloring(rep, coloring)
        again = decode_arborescence(rep, rebuilt, coloring.num_colors)
        assert validate_coloring(g, again)
        assert again.num_colors == coloring.num_colors
