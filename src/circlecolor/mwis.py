"""Max-weight independent sets, chain partitions, and arborescence decoding.

On a circle graph the maximal intervals of an independent set form a
pairwise-disjoint chain, and the vertices hiding underneath a chosen
interval again form an independent set of the sub-instance it contains.
That nesting gives a label recursion: each vertex is labelled with its own
weight plus the best chain of labels among the intervals it contains; the
root label is the optimum.  Negative weights are allowed, so the empty
chain (value 0) is always a candidate.

Cost: solve_mwis evaluates the recursion in one sweep over the 2n
endpoints of the endpoint table IntervalRep.at (after Supowit, "Finding
a maximum planar subset of a set of nets in a channel", IEEE TCAD 6(1),
1987): O(n) vector steps of length O(n) each, so O(n^2) work.  No
containment DAG is built.  Memory: an open interval holds a view of the
row it saw when it opened, so up to n + 1 floats per interval open at
once, and each close that improves the row keeps its mask of up to n
bytes until the witness is traced, O(n^2) bytes when most closes do
(with unit weights all of them do).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .errors import (
    AntichainBoundError,
    CertificateError,
    ChainConditionError,
    NotArborescenceError,
)
from .intervals import (
    ROOT,
    Coloring,
    IntervalRep,
    max_antichain,  # noqa: F401  perfbench/spans.py wraps it under this module
    topological_order,
)


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


def solve_mwis(rep: IntervalRep, weights) -> tuple[float, dict, frozenset]:
    """Maximum-weight independent set via the label recursion.

    weights maps vertex -> real (0 is implied for the root).  Returns
    (value, labels, witness set), where labels maps each vertex to its
    label and labels[0] is the optimum.  The value is always >= 0: the
    empty set is independent.

    One sweep over the endpoints 1..2n, in rep.at.  With vertices ranked
    by left endpoint (topological_order), row[k] holds the best chain
    among the intervals closed so far whose rank is >= k; a vertex ranked
    k - 1 contains exactly those closed before its right endpoint, so
    row[k] there is its chain term.  Each vertex keeps the row prefix it saw at
    its left endpoint (the best chains ending before it starts) and, when
    it closes, offers itself to every container at once.  A row is never
    written in place, so a kept prefix is a view, not a copy.  A close
    that sets no entry keeps None for its mask (about half of the closes
    at n = 400 with small integer weights).  Strict comparison keeps the
    first maximizer in right-endpoint order, so each label is the float
    that max_weight_chain over the vertex's contents would give, and the
    witness is the chains it would choose.
    """
    order = topological_order(rep)
    left, copyto = rep.left, np.copyto
    rank = [0] * (rep.n + 1)
    for k, v in enumerate(order):
        rank[v] = k
    row = np.zeros(rep.n + 1)
    kept, ell, took = [None] * (rep.n + 1), [0.0] * (rep.n + 1), [None] * (rep.n + 1)
    closed_left = 0  # largest left endpoint among the closed intervals
    for p, v in enumerate(rep.at[1:], start=1):
        lv = left[v]
        if p == lv:
            kept[v] = row[:rank[v] + 1]
            continue
        k = rank[v]
        if closed_left > lv:  # some closed interval sits inside v
            ell[v] = label = weights[v] + row.item(k + 1)
        else:
            ell[v] = label = weights[v]
            closed_left = lv
        cand = kept[v] + float(label)
        kept[v] = None  # drop the view, so that its row can be freed
        mask = cand > row[:k + 1]
        if mask[mask.argmax()]:  # the close improved some row entry
            took[v] = mask
            row = row.copy()
            copyto(row[:k + 1], cand, where=mask)
    labels = {v: ell[v] for v in reversed(order)}
    labels[ROOT] = row.item(0)
    witness = _trace_witness(rep, rank, took)
    check_independent(rep, witness)
    return labels[ROOT], labels, witness


def _trace_witness(rep: IntervalRep, rank, took) -> frozenset:
    """The chains solve_mwis chose, read back from its masks.

    The holder of row[k] just after endpoint p is the last vertex of rank
    >= k closing at or before p that set row[k]; its chain goes on with the
    holder of row[k] before it opened, and inside it with the holder of
    row[rank + 1] before it closed, found between its two endpoints.  A
    vertex whose close set no entry has the mask None.
    """
    at, witness = rep.at, set()
    pending = [(0, 2 * rep.n, 0)]  # (k, last endpoint, endpoint to stop at)
    while pending:
        k, p, stop = pending.pop()
        while p > stop:
            v = at[p]
            if p == rep.right[v] and rank[v] >= k and (mask := took[v]) is not None and mask[k]:
                witness.add(v)
                pending.append((rank[v] + 1, p - 1, rep.left[v]))
                p = rep.left[v]
            p -= 1
    return frozenset(witness)


def check_independent(rep: IntervalRep, vertices, what: str = "independent set") -> list:
    """Raise CertificateError, naming `what` and an overlapping pair,
    unless no two of the vertices overlap.  A {} in `what` stands for the
    vertices, and is formatted only on failure.

    Independent intervals are laminar, so a sweep by left endpoint keeps
    the intervals still open at the sweep point nested, the innermost last
    (the sweep of greedy_stack_plan).  A vertex that the innermost one does
    not contain overlaps it: O(k log k).  Returns the nesting the sweep
    walked, in left-endpoint order: for each vertex v the triple (i, h, v),
    where i is the innermost of the vertices containing v (ROOT when none)
    and h the number of them, so v sits at layer h + 1.
    """
    left, right = rep.left, rep.right
    nesting, open_ = [], []
    for v in sorted(vertices, key=left.__getitem__):
        while open_ and right[open_[-1]] < left[v]:
            open_.pop()
        if open_ and right[open_[-1]] < right[v]:
            raise CertificateError(f"{what.format(vertices)} holds overlapping {open_[-1]} and {v}")
        nesting.append((open_[-1] if open_ else ROOT, len(open_), v))
        open_.append(v)
    return nesting


def check_clique(rep: IntervalRep, vertices) -> None:
    """Raise CertificateError, naming a pair, unless the vertices are
    distinct vertices of rep that overlap pairwise."""
    if not all(1 <= v <= rep.n for v in vertices):
        raise CertificateError(f"clique {tuple(vertices)} holds a vertex outside 1..{rep.n}")
    for k, a in enumerate(vertices):
        for b in vertices[k + 1:]:
            if not rep.overlaps(a, b):
                raise CertificateError(f"clique {tuple(vertices)} holds {a} and {b},"
                                       " which do not overlap")


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


def _check_arc_ends(rep: IntervalRep, arcs) -> None:
    """Raise NotArborescenceError, naming the vertex, unless every arc
    (i, j) leaves a vertex of 0..n and enters one of 1..n."""
    for i, j in arcs:
        if i not in range(rep.n + 1):
            raise NotArborescenceError(i, f"arc ({i}, {j}) leaves {i}, not a vertex of 0..{rep.n}")
        if j not in rep.vertices:
            raise NotArborescenceError(j, f"arc ({i}, {j}) enters {j}, not a vertex of 1..{rep.n}")


def decode_arborescence(rep: IntervalRep, arcs, c: int) -> Coloring:
    """Turn an arborescence of the containment DAG into a proper c-coloring.

    Every arc must leave a vertex of 0..n and enter one of 1..n
    (_check_arc_ends, before any lookup).  The arc set must give every
    vertex exactly one parent, every child set of a non-root vertex must
    be a chain (C1), and the root's children may not contain an antichain
    larger than c (C2).  Root children are chain-partitioned, one color
    per chain, and colors propagate downward.
    """
    arcs = set(arcs)
    _check_arc_ends(rep, arcs)
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
    # the greedy partition has exactly max_antichain chains: its count is C2's width
    chains = chain_partition(rep, children[ROOT])
    if len(chains) > c:
        raise AntichainBoundError(ROOT, len(chains), c)
    colors = {}
    for color, chain in enumerate(chains, start=1):
        stack = list(chain)
        while stack:
            v = stack.pop()
            colors[v] = color
            stack.extend(children[v])
    return Coloring(colors=colors, certificate=frozenset(arcs))
