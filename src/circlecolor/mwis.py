"""Max-weight independent sets, chain partitions, and arborescence decoding.

On a circle graph the maximal intervals of an independent set form a
pairwise-disjoint chain, and the vertices hiding underneath a chosen
interval again form an independent set of the sub-instance it contains.
That nesting gives a label recursion: process vertices innermost-first,
labelling each branching vertex with its own weight plus the best chain of
labels among the intervals it contains; the root label is the optimum.
Negative weights are allowed, so the empty chain (value 0) is always a
candidate.

Cost: the containment DAG comes from an endpoint sweep, O(n + m + sum of
k) for m edges and k children per vertex, and each chain step is a
bisection over its candidates, O(sum of k log k) over the recursion.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .errors import (
    AntichainBoundError,
    ChainConditionError,
    NotArborescenceError,
)
from .intervals import (
    ROOT,
    Coloring,
    IntervalRep,
    build_dag,
    max_antichain,
    topological_order,
)


@dataclass(frozen=True)
class DpLabels:
    """Per-vertex labels of the recursion; ell[0] is the optimum value."""

    ell: dict


def max_weight_chain(rep: IntervalRep, candidates, values) -> tuple[float, list[int]]:
    """Best chain (pairwise disjoint intervals) among the candidates.

    values maps vertex -> real; the empty chain (value 0) is feasible.
    Returns (value, chain sorted left to right).  Ties go to the first
    maximizer in right-endpoint order.  O(k log k): the intervals ending
    before v starts are a prefix of the right-endpoint order, found by
    bisection, and a running prefix maximum holds the best chain there.
    """
    cand = sorted(candidates, key=rep.right.__getitem__)
    rights = [rep.right[v] for v in cand]
    best_prev = {}
    prefix = [(0.0, None)]  # prefix[k]: best chain ending in cand[:k], first maximizer
    for v in cand:
        prior, prior_v = prefix[bisect_right(rights, rep.left[v])]
        val = values[v] + prior
        best_prev[v] = prior_v
        prefix.append((val, v) if val > prefix[-1][0] else prefix[-1])
    value, last = prefix[-1]
    chain = []
    while last is not None:
        chain.append(last)
        last = best_prev[last]
    chain.reverse()
    return value, chain


def solve_mwis(rep: IntervalRep, weights) -> tuple[float, DpLabels, frozenset]:
    """Maximum-weight independent set via the label recursion.

    weights maps vertex -> real (0 is implied for the root).  Returns
    (value, labels, witness set).  The value is always >= 0: the empty set
    is independent.
    """
    dag_children = build_dag(rep).children
    order = topological_order(rep)
    ell = {}
    chosen_chain = {}
    for i in reversed(order):
        kids = dag_children[i]
        if kids:
            val, chain = max_weight_chain(rep, kids, ell)
            ell[i] = weights[i] + val
            chosen_chain[i] = chain
        else:
            ell[i] = weights[i]
            chosen_chain[i] = []
    root_val, root_chain = max_weight_chain(rep, dag_children[ROOT], ell)
    ell[ROOT] = root_val
    witness = set()
    stack = list(root_chain)
    while stack:
        v = stack.pop()
        witness.add(v)
        stack.extend(chosen_chain[v])
    return root_val, DpLabels(ell=ell), frozenset(witness)


def chain_partition(rep: IntervalRep, subset) -> list[list[int]]:
    """Partition the subset into exactly max_antichain(subset) chains.

    Greedy sweep in ascending left-endpoint order; each interval joins the
    lowest-index chain whose last interval ends before it starts.
    """
    chains: list[list[int]] = []
    for v in sorted(subset, key=lambda u: rep.left[u]):
        for chain in chains:
            if rep.right[chain[-1]] <= rep.left[v]:
                chain.append(v)
                break
        else:
            chains.append([v])
    return chains


def decode_arborescence(rep: IntervalRep, arcs, c: int) -> Coloring:
    """Turn an arborescence of the containment DAG into a proper c-coloring.

    The arc set must give every vertex exactly one parent, every child set
    of a non-root vertex must be a chain (C1), and the root's children may
    not contain an antichain larger than c (C2).  Root children are
    chain-partitioned, one color per chain, and colors propagate downward.
    """
    arcs = set(arcs)
    parent = {}
    for i, j in arcs:
        if j in parent:
            raise NotArborescenceError(j, f"vertex {j} has two incoming arcs")
        if i != ROOT and not rep.contains(i, j):
            raise NotArborescenceError(j, f"arc ({i}, {j}) is not a containment arc")
        parent[j] = i
    for v in rep.vertices:
        if v not in parent:
            raise NotArborescenceError(v, f"vertex {v} has no incoming arc")
    children = {i: [] for i in range(rep.n + 1)}
    for j, i in parent.items():
        children[i].append(j)
    for i in rep.vertices:
        if children[i] and not rep.is_chain(children[i]):
            raise ChainConditionError(i)
    top = children[ROOT]
    width = max_antichain(rep, top)
    if width > c:
        raise AntichainBoundError(ROOT, width, c)
    colors = {}
    for color, chain in enumerate(chain_partition(rep, top), start=1):
        stack = list(chain)
        while stack:
            v = stack.pop()
            colors[v] = color
            stack.extend(children[v])
    return Coloring(colors=colors, certificate=frozenset(arcs))
