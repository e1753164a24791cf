import math
from itertools import combinations

import numpy as np
import pytest

from circlecolor import oracle
from circlecolor.errors import NumericalFailureError, OverBudgetError
from circlecolor.instances import generate_one
from circlecolor.intervals import build_graph, normalize
from circlecolor.oracle import (
    admissible_sets,
    all_independent_sets,
    chromatic_exact,
    fractional_chromatic_exact,
    max_clique_exact,
    mwis_exact,
    stacks_exact,
    stacks_lp_exact,
)
from circlecolor.simplex import LpSolution


def test_chromatic_examples(c5_graph, p3):
    assert chromatic_exact(c5_graph) == 3
    edgeless = build_graph(normalize([(1, 2), (3, 4), (5, 6), (7, 8)]))
    assert chromatic_exact(edgeless) == 1
    assert chromatic_exact(build_graph(p3)) == 2


def test_fractional_examples(c5_graph, p3):
    assert fractional_chromatic_exact(c5_graph) == pytest.approx(2.5, abs=1e-9)
    k1 = build_graph(normalize([(1, 2)]))
    assert fractional_chromatic_exact(k1) == pytest.approx(1.0, abs=1e-9)
    assert fractional_chromatic_exact(build_graph(p3)) == pytest.approx(2.0, abs=1e-9)


def test_mwis_examples(c5_graph, nested):
    k1 = build_graph(normalize([(1, 2)]))
    assert mwis_exact(k1, {1: -3.0}) == 0.0
    assert mwis_exact(c5_graph, {v: 1.0 for v in c5_graph.vertices}) == 2.0
    assert mwis_exact(build_graph(nested), {1: 1.0, 2: 1.0}) == 2.0


def test_stacks_examples(c5, c5_graph, nested):
    g = build_graph(nested)
    assert stacks_exact(nested, g, 1) == 2
    assert stacks_exact(nested, g, 2) == 1
    assert stacks_exact(c5, c5_graph, 5) == 3


def test_stacks_monotone_in_height():
    rng = np.random.default_rng(51)
    for k in range(10):
        rep = generate_one(int(rng.integers(1, 9)), 651, k)
        g = build_graph(rep)
        vals = [stacks_exact(rep, g, h) for h in range(1, rep.n + 1)]
        assert vals == sorted(vals, reverse=True)
        assert vals[-1] == chromatic_exact(g)


def test_maximal_vs_all_sets_lp_agree():
    rng = np.random.default_rng(52)
    for k in range(15):
        rep = generate_one(int(rng.integers(1, 11)), 652, k)
        g = build_graph(rep)
        a = fractional_chromatic_exact(g)
        b = fractional_chromatic_exact(g, all_sets=True)
        assert a == pytest.approx(b, abs=1e-9)


def test_a_cover_lp_that_fails_is_a_typed_error(c5, c5_graph, monkeypatch):
    # a typed error, not an assert, so that it holds under -O
    monkeypatch.setattr(oracle, "solve_lp", lambda model: LpSolution("infeasible", None))
    for call in (lambda: fractional_chromatic_exact(c5_graph),
                 lambda: fractional_chromatic_exact(c5_graph, all_sets=True),
                 lambda: stacks_lp_exact(c5, c5_graph, 2)):
        with pytest.raises(NumericalFailureError):
            call()


def test_sandwich_chain():
    rng = np.random.default_rng(53)
    for k in range(20):
        rep = generate_one(int(rng.integers(1, 13)), 653, k)
        g = build_graph(rep)
        chi_f = fractional_chromatic_exact(g)
        chi = chromatic_exact(g)
        assert max_clique_exact(g) <= chi_f + 1e-9
        assert chi >= math.ceil(chi_f - 1e-6)


def _reference_independent_sets(rep):
    """Every nonempty independent set by pairwise overlap tests, ordered by
    vertex bitmask as the oracles enumerate them."""
    sets = [c for k in range(1, rep.n + 1) for c in combinations(rep.vertices, k)
            if not any(rep.overlaps(u, v) for u, v in combinations(c, 2))]
    return sorted(sets, key=lambda c: sum(1 << (v - 1) for v in c))


def _reference_height(rep, vertices) -> int:
    """The most intervals of the set around one endpoint."""
    return max(sum(rep.left[v] <= p <= rep.right[v] for v in vertices)
               for p in range(1, 2 * rep.n + 1))


def test_oracles_match_a_pairwise_reference():
    rng = np.random.default_rng(61)
    for k in range(48):
        rep = generate_one(1 + k % 8, 661, k)
        g = build_graph(rep)
        want = _reference_independent_sets(rep)
        assert all_independent_sets(g) == want, k
        for h in (1, 2, 3):
            assert admissible_sets(rep, g, h) == \
                [c for c in want if _reference_height(rep, c) <= h], (k, h)
        w = {v: float(rng.integers(-5, 6)) for v in rep.vertices}
        assert mwis_exact(g, w) == max([0.0] + [sum(w[v] for v in c) for c in want]), k


def test_budget_refusal():
    rep = generate_one(13, 654, 0)
    g = build_graph(rep)
    with pytest.raises(OverBudgetError):
        chromatic_exact(g)
    big = generate_one(9, 654, 1)
    with pytest.raises(OverBudgetError):
        stacks_exact(big, build_graph(big), 2)
