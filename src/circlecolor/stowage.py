"""Capacitated stowage stacks: the CG_H program, plan decoding, the
greedy plan and the exact search it is the first descent of, and the
deepest overlap that bounds the number of stacks from below.

A stack holds an independent set whose height (maximum antichain, i.e. the
deepest nesting level occupied at one point) stays within the capacity H.
Copying each vertex once per admissible nesting level turns the height cap
into arc structure: layer-h copies can only feed layer h+1.  A layered arc
is the triple (i, h, j): copy (i, h) feeds (j, h + 1), and the root is the
one copy (0, 0).  The layered arcs of a stack are the nesting that
mwis.check_independent walks when it certifies the stack: check_plan
returns them, and reads each stack's height off them, so a plan is
walked once to certify it, to start the LP from it and to give the
coloring certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, InvalidHeightError, LayerConditionError
from .intervals import (
    ROOT,
    CliqueMatrix,
    Coloring,
    ContainmentDag,
    IntervalRep,
    max_antichain,  # noqa: F401  perfbench/spans.py wraps it under this module
    rising_run,
    topological_order,
)
from .lpmodels import LpModel, _add_arborescence, _ranges, _sweep_rows
from .mwis import _check_arc_ends, check_independent, decode_arborescence


def layer_var(i: int, h: int, j: int) -> str:
    return f"x_{i}.{h}_{j}"


def nesting_depth(rep: IntervalRep) -> int:
    """Number of vertices on the longest strict-containment chain.

    Along a chain the left endpoints rise and the right endpoints fall, so
    this is the longest falling run of right endpoints in left-endpoint
    order, O(n log n)."""
    return len(rising_run(-rep.right[v] for v in topological_order(rep)))


def effective_height(rep: IntervalRep, height: int) -> int:
    """Larger capacities than the deepest nesting chain cannot matter."""
    if height < 1:
        raise InvalidHeightError(f"capacity must be >= 1, got {height}")
    return min(height, nesting_depth(rep))


def build_cgh(rep: IntervalRep, dag: ContainmentDag, matrix: CliqueMatrix,
              height: int) -> LpModel:
    """min c: root children form at most c stacks, each occupied copy may
    pass one chain downward, and every vertex enters at exactly one layer.

    The arcs are the root's, (0, 0, j) for every vertex, then (i, h, j)
    for each containment arc (i, j) of the DAG and each layer h below the
    height."""
    if height < 1:
        raise InvalidHeightError(f"capacity must be >= 1, got {height}")
    model = LpModel(name="CG_H", sense="min")
    inner = sorted(dag.branching)
    arcs = [(ROOT, 0, j) for j in rep.vertices]
    arcs += [(i, h, j) for i in inner for h in range(1, height) for j in dag.children[i]]
    model.metadata = {
        "formulation": "CG_H",
        "relaxed": False,
        "height": height,
        "arcs": {layer_var(*arc): list(arc) for arc in arcs},
        "n": rep.n,
    }
    arcs = np.array(arcs, dtype=np.int64).reshape(-1, 3)
    tail, layer, head = arcs.T
    # the child set of copy (i, h) is group i * height + h; the root's is 0
    label = {i * height + h: f"chain_{i}.{h}_" for i in inner for h in range(1, height)}
    label[0] = "root_"

    sweep = _sweep_rows(matrix, tail * height + layer, head)
    # each sweep row of copy (i, h) also takes -1 for every arc into (i, h)
    groups = sweep[0] // len(matrix.points)
    into = np.where(layer + 1 < height, head * height + layer + 1, -1)
    first = np.searchsorted(groups, into)
    row, arc = _ranges(first, np.searchsorted(groups, into, "right") - first)
    _add_arborescence(model, matrix, arcs, sweep, label, 0.0, "enter",
                      (row, arc, np.full(len(row), -1.0)))
    return model


@dataclass(frozen=True)
class StackPlan:
    """A partition of the vertices into stacks, each an independent set of
    height at most the capacity; stacks list vertices bottom-to-top."""

    stacks: tuple

    @property
    def num_stacks(self) -> int:
        return len(self.stacks)

    def stack_of(self) -> dict:
        out = {}
        for k, stack in enumerate(self.stacks, start=1):
            for v in stack:
                out[v] = k
        return out

    def format(self) -> str:
        return "\n".join(" ".join(str(v) for v in stack) for stack in self.stacks) + "\n"


def decode_plan(rep: IntervalRep, arcs, c: int, height: int) -> StackPlan:
    """Decode a set of layered arcs (i, h, j) into a plan of c stacks of
    height at most `height`.

    An arc that leaves a vertex outside 0..n or enters one outside 1..n
    raises NotArborescenceError before any lookup.  Otherwise it checks
    only what the layers add: D0 (one entry arc per vertex across
    all layers) and the layer half of D1 (an arc leaves only the copy its
    source entered at, and no vertex enters above the height).  The
    flattened arcs then go to decode_arborescence, which rejects an arc
    that does not follow containment (NotArborescenceError), whose C1 is
    the chain half of D1 and whose C2 bounds the root width (at most c
    stacks).  A stack's nesting chain climbs one layer per arc, so its
    height is within the height; check_plan certifies it.
    """
    arcs = set(arcs)
    _check_arc_ends(rep, ((i, j) for i, _, j in arcs))
    entry_layer = {ROOT: 0}
    for _, h, j in arcs:
        if j in entry_layer:
            raise LayerConditionError("D0", j)
        entry_layer[j] = h + 1
    for v in rep.vertices:
        if v not in entry_layer:
            raise LayerConditionError("D0", v)
    for i, h, _ in arcs:
        if entry_layer[i] != h:
            raise LayerConditionError("D1", (i, h))
    if max(entry_layer.values()) > height:
        raise LayerConditionError("D1", max(entry_layer, key=entry_layer.get))
    coloring = decode_arborescence(rep, {(i, j) for i, _, j in arcs}, c)
    groups = {}
    for v in rep.vertices:
        groups.setdefault(coloring.colors[v], []).append(v)
    return StackPlan(stacks=tuple(
        tuple(sorted(groups[color], key=lambda v: (entry_layer[v], rep.left[v])))
        for color in sorted(groups)))


def arborescence_of_coloring(rep: IntervalRep, coloring: Coloring) -> frozenset:
    """The canonical arborescence of a proper coloring: each vertex hangs
    below the inclusion-minimal same-colored interval strictly containing
    it, or below the root.  A color class is a stack, so these are the
    check_plan arcs of the color classes, flattened.  Every arc set that
    decode_arborescence accepts is this arborescence of its coloring: C1
    makes a vertex's parent its innermost same-colored container."""
    classes = {}
    for v in rep.vertices:
        classes.setdefault(coloring.colors[v], []).append(v)
    plan = StackPlan(stacks=tuple(classes.values()))
    return frozenset((i, j) for i, _, j in check_plan(rep, plan, rep.n, plan.num_stacks))


def check_plan(rep: IntervalRep, plan: StackPlan, height: int, num_stacks: int) -> list:
    """Raise CertificateError unless the plan puts every vertex in exactly
    one of num_stacks nonempty stacks, each independent and of height at
    most `height`.

    Returns the plan's layered arcs (i, h, j), the inverse of decode_plan:
    the nesting check_independent walks in each stack, where each vertex
    hangs one layer below the innermost interval of its own stack that
    contains it, or below the root.  An independent stack is laminar, so
    its height is its top layer, max h + 1."""
    placed = sorted(v for stack in plan.stacks for v in stack)
    if placed != list(rep.vertices) or plan.num_stacks != num_stacks or not all(plan.stacks):
        raise CertificateError(f"plan is not a partition into {num_stacks} stacks")
    arcs = []
    for stack in plan.stacks:
        arcs += check_independent(rep, stack, "stack {}")
        # a stack is never taller than it is long
        if len(stack) > height and max(h for _, h, _ in arcs[-len(stack):]) >= height:
            raise CertificateError(f"stack {stack} exceeds the capacity {height}")
    return arcs


def deepest_overlap(rep: IntervalRep) -> list:
    """The vertices whose intervals cover a point of deepest overlap, the
    first such point: d = max_antichain(rep, rep.vertices) of them.  One
    sweep over the endpoint table, O(n).

    The intervals of one stack that cover a point are nested, so a stack
    holds at most H of them, and every plan of height H has at least d/H
    stacks; the CG_H LP is at least d/H too (weight 1/H on these d)."""
    depth = np.cumsum([1 if rep.left[v] == p else -1 for p, v in enumerate(rep.at) if p])
    point = int(depth.argmax()) + 1
    return [v for v in rep.vertices if rep.left[v] <= point < rep.right[v]]


# search nodes per vertex that stack_plan_within may spend
SEARCH_NODES_PER_VERTEX = 16


def stack_plan_within(rep: IntervalRep, height: int, most: int) -> StackPlan | None:
    """A plan of at most `most` stacks of height at most `height`; None
    when there is none, or when the search has made
    SEARCH_NODES_PER_VERTEX * n placements without finding one.

    Exact backtracking over the left-endpoint sweep of greedy_stack_plan:
    each vertex tries the stacks in order, then one new stack while there
    are fewer than `most`; a placement is one search node, and a vertex
    with no stack left sends the search back to the last placement, kept
    on an explicit trail (no recursion).  Its first descent is the greedy
    plan, so with most = n it is greedy_stack_plan.

    A stack is its top, the last vertex put in it (ROOT while empty);
    each vertex keeps the innermost interval of its stack that was open
    when it came (under) and its layer, one above that one's.  The
    intervals still open at the sweep point are the top's unders that end
    after it, nested, so undoing a placement only restores a top.  Stacks
    list their vertices by (layer, left endpoint).
    """
    if height < 1:
        raise InvalidHeightError(f"capacity must be >= 1, got {height}")
    left, right, order = rep.left, rep.right, topological_order(rep)
    under, layer, tops = [ROOT] * (rep.n + 1), [0] * (rep.n + 1), [ROOT] * most
    # trail: (stack, its top before) per vertex placed, in sweep order
    trail, budget, s, used = [], SEARCH_NODES_PER_VERTEX * rep.n, 0, 0
    while len(trail) < rep.n and budget:
        v = order[len(trail)]
        for s in range(s, min(used + 1, most)):  # stack `used` is a new one
            u = tops[s]
            while u and right[u] < left[v]:
                u = under[u]
            if layer[u] < height and (not u or right[v] < right[u]):
                budget -= 1
                trail.append((s, tops[s]))
                under[v], layer[v], tops[s], used, s = u, layer[u] + 1, v, used + (s == used), 0
                break
        else:  # nothing left for v: take back the last placement
            if not trail:
                return None
            s, top = trail.pop()
            tops[s], used, s = top, used - (top == ROOT), s + 1
    if len(trail) < rep.n:  # the budget ran out
        return None
    stacks = [[] for _ in range(used)]
    for v, (s, _) in zip(order, trail):
        stacks[s].append(v)
    # each stack is in left-endpoint order, so a stable sort by layer is enough
    return StackPlan(stacks=tuple(tuple(sorted(stack, key=layer.__getitem__)) for stack in stacks))


def greedy_stack_plan(rep: IntervalRep, height: int) -> StackPlan:
    """First-fit incumbent: sweep the vertices by left endpoint and drop
    each into the first stack that stays independent and within the height
    cap, the first descent of stack_plan_within, which with up to n stacks
    never backtracks.  At height >= nesting_depth(rep) the stacks are the
    color classes of first_fit along topological_order(rep).

    A vertex fits a stack whose open intervals (they nest) are none, or
    end in an innermost one containing it, and are fewer than `height`;
    it then sits one layer above the open ones.
    """
    return stack_plan_within(rep, height, rep.n)
