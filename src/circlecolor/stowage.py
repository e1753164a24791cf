"""Capacitated stowage stacks: the CG_H program, and plan decoding.

A stack holds an independent set whose height (maximum antichain, i.e. the
deepest nesting level occupied at one point) stays within the capacity H.
Copying each vertex once per admissible nesting level turns the height cap
into arc structure: layer-h copies can only feed layer h+1.  A layered arc
is the triple (i, h, j): copy (i, h) feeds (j, h + 1), and the root is the
one copy (0, 0).  The layered arcs of a stack are the nesting that
mwis.check_independent walks when it certifies the stack, so plan_arcs
and arborescence_of_coloring read them from there.
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
    max_antichain,
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


def plan_arcs(rep: IntervalRep, plan: StackPlan) -> set:
    """The layered arcs (i, h, j) of a plan, the inverse of decode_plan:
    the nesting check_independent walks in each stack, where each vertex
    hangs one layer below the innermost interval of its own stack that
    contains it, or below the root.  A stack that is not independent
    raises CertificateError."""
    return {arc for stack in plan.stacks for arc in check_independent(rep, stack, "stack {}")}


def arborescence_of_coloring(rep: IntervalRep, coloring: Coloring) -> frozenset:
    """The canonical arborescence of a proper coloring: each vertex hangs
    below the inclusion-minimal same-colored interval strictly containing
    it, or below the root.  A color class is a stack, so these are the
    plan_arcs of the color classes, flattened.  Every arc set that
    decode_arborescence accepts is this arborescence of its coloring: C1
    makes a vertex's parent its innermost same-colored container."""
    classes = {}
    for v in rep.vertices:
        classes.setdefault(coloring.colors[v], []).append(v)
    plan = StackPlan(stacks=tuple(classes.values()))
    return frozenset((i, j) for i, _, j in plan_arcs(rep, plan))


def check_plan(rep: IntervalRep, plan: StackPlan, height: int, num_stacks: int) -> None:
    """Raise CertificateError unless the plan puts every vertex in exactly
    one of num_stacks nonempty stacks, each independent and of height at
    most `height`."""
    placed = sorted(v for stack in plan.stacks for v in stack)
    if placed != list(rep.vertices) or plan.num_stacks != num_stacks or not all(plan.stacks):
        raise CertificateError(f"plan is not a partition into {num_stacks} stacks")
    for stack in plan.stacks:
        check_independent(rep, stack, "stack {}")
        # an antichain is never larger than its stack
        if len(stack) > height and max_antichain(rep, stack) > height:
            raise CertificateError(f"stack {stack} exceeds the capacity {height}")


def greedy_stack_plan(rep: IntervalRep, height: int) -> StackPlan:
    """First-fit incumbent: sweep the vertices by left endpoint and drop
    each into the first stack that stays independent and within the height
    cap.  At height >= nesting_depth(rep) the stacks are the color classes
    of first_fit along topological_order(rep).

    Each stack keeps its intervals still open at the sweep point; they
    nest, so the innermost is last.  A vertex fits a stack whose open list
    is empty or ends in an interval containing it, and shorter than
    `height`; it then sits one layer above the open ones.  Stacks list
    their vertices by (layer, left endpoint).
    """
    if height < 1:
        raise InvalidHeightError(f"capacity must be >= 1, got {height}")
    stacks = []  # (open intervals, [(layer, left endpoint, vertex)])
    for v in topological_order(rep):
        for open_, members in stacks:
            while open_ and rep.right[open_[-1]] < rep.left[v]:
                open_.pop()
            if len(open_) < height and (not open_ or rep.right[v] < rep.right[open_[-1]]):
                break
        else:
            open_, members = [], []
            stacks.append((open_, members))
        members.append((len(open_) + 1, rep.left[v], v))
        open_.append(v)
    return StackPlan(stacks=tuple(tuple(v for _, _, v in sorted(members)) for _, members in stacks))
