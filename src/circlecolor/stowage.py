"""Capacitated stowage stacks: layered DAG, the CG_H program, and plan
decoding.

A stack holds an independent set whose height (maximum antichain, i.e. the
deepest nesting level occupied at one point) stays within the capacity H.
Copying each vertex once per admissible nesting level turns the height cap
into arc structure: layer-h copies can only feed layer h+1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AntichainBoundError,
    CertificateError,
    InvalidHeightError,
    LayerConditionError,
)
from .intervals import (
    ROOT,
    CliqueMatrix,
    ContainmentDag,
    IntervalRep,
    longest_rising_run,
    max_antichain,
    topological_order,
)
from .lpmodels import BINARY, LpModel, _add_root_rows, _cover_rows
from .mwis import decode_arborescence


def layer_var(i: int, h: int, j: int) -> str:
    return f"x_{i}.{h}_{j}"


@dataclass(frozen=True)
class LayeredDag:
    """Vertex copies (i, h) for h in 1..height plus the root (0, 0); arcs go
    from layer h to layer h+1 along strict containment."""

    n: int
    height: int
    containment_children: tuple  # containment_children[i] from the flat DAG
    branching: frozenset

    def arcs(self):
        out = [((ROOT, 0), (j, 1)) for j in range(1, self.n + 1)]
        for i in sorted(self.branching):
            for h in range(1, self.height):
                for j in self.containment_children[i]:
                    out.append(((i, h), (j, h + 1)))
        return out


def nesting_depth(rep: IntervalRep) -> int:
    """Number of vertices on the longest strict-containment chain.

    Along a chain the left endpoints rise and the right endpoints fall, so
    this is the longest falling run of right endpoints in left-endpoint
    order, O(n log n)."""
    return longest_rising_run(-rep.right[v] for v in topological_order(rep))


def effective_height(rep: IntervalRep, height: int) -> int:
    """Larger capacities than the deepest nesting chain cannot matter."""
    if height < 1:
        raise InvalidHeightError(f"capacity must be >= 1, got {height}")
    return min(height, nesting_depth(rep))


def build_layered_dag(rep: IntervalRep, dag: ContainmentDag, height: int) -> LayeredDag:
    if height < 1:
        raise InvalidHeightError(f"capacity must be >= 1, got {height}")
    return LayeredDag(
        n=rep.n,
        height=height,
        containment_children=dag.children,
        branching=dag.branching,
    )


def build_cgh(rep: IntervalRep, layered: LayeredDag, matrix: CliqueMatrix) -> LpModel:
    """min c: root children form at most c stacks, each occupied copy may
    pass one chain downward, and every vertex enters at exactly one layer."""
    model = LpModel(name="CG_H", sense="min", integral_objective=True)
    arc_map = {}
    for (i, h), (j, _) in layered.arcs():
        name = layer_var(i, h, j)
        model.add_var(name, 0.0, 1.0, BINARY)
        arc_map[name] = [i, h, j]
    _add_root_rows(model, matrix, {j: layer_var(ROOT, 0, j) for j in rep.vertices})
    # (i, h) copies with an arc into (j, h + 1), for h >= 1
    parents = [[] for _ in range(rep.n + 1)]
    for i in sorted(layered.branching):
        for j in layered.containment_children[i]:
            parents[j].append(i)

    def sources(j, h):
        """Copies (i, h - 1) with an arc into (j, h)."""
        return [(ROOT, 0)] if h == 1 else [(i, h - 1) for i in parents[j]]

    for i in sorted(layered.branching):
        kids = layered.containment_children[i]
        for h in range(1, layered.height):
            inflow = {layer_var(s, hs, i): -1.0 for s, hs in sources(i, h)}
            names = {j: layer_var(i, h, j) for j in kids}
            for r, coeffs in _cover_rows(matrix.rows, names).items():
                coeffs.update(inflow)
                model.add_constraint(f"chain_{i}.{h}_p{matrix.points[r]}", coeffs, "<=", 0.0)
    for j in rep.vertices:
        coeffs = {layer_var(i, hs, j): 1.0
                  for h in range(1, layered.height + 1) for i, hs in sources(j, h)}
        model.add_constraint(f"enter_{j}", coeffs, "=", 1.0)
    model.metadata = {
        "formulation": "CG_H",
        "relaxed": False,
        "height": layered.height,
        "arcs": arc_map,
        "n": rep.n,
    }
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


def decode_plan(rep: IntervalRep, layered: LayeredDag, arcs, c: int) -> StackPlan:
    """Collapse a layered arc set to a flat arborescence and decode it.

    Checks D0 (one entry arc per vertex across all layers), D1 (occupied
    copies pass on chains, and only occupied copies pass anything on), and
    D2 (at most c stacks at the root).
    """
    arcs = set(arcs)
    entry_layer = {}
    flat = set()
    for (i, h), (j, hj) in arcs:
        if hj != h + 1:
            raise LayerConditionError("D0", (i, h))
        if j in entry_layer:
            raise LayerConditionError("D0", j)
        if i != ROOT and not rep.contains(i, j):
            raise LayerConditionError("D0", (i, h))
        entry_layer[j] = hj
        flat.add((i, j))
    for v in rep.vertices:
        if v not in entry_layer:
            raise LayerConditionError("D0", v)
    children_by_copy = {}
    for (i, h), (j, _) in arcs:
        children_by_copy.setdefault((i, h), []).append(j)
    for (i, h), kids in children_by_copy.items():
        if i == ROOT:
            continue
        if not rep.is_chain(kids):
            raise LayerConditionError("D1", (i, h))
        if entry_layer.get(i) != h:
            raise LayerConditionError("D1", (i, h))
    if entry_layer and max(entry_layer.values()) > layered.height:
        raise LayerConditionError("D1", max(entry_layer, key=entry_layer.get))
    root_kids = children_by_copy.get((ROOT, 0), [])
    width = max_antichain(rep, root_kids)
    if width > c:
        raise AntichainBoundError(ROOT, width, c)
    coloring = decode_arborescence(rep, flat, c)
    groups = {}
    for v in rep.vertices:
        groups.setdefault(coloring.colors[v], []).append(v)
    stacks = []
    for color in sorted(groups):
        stack = sorted(groups[color], key=lambda v: (entry_layer[v], rep.left[v]))
        if max_antichain(rep, stack) > layered.height:
            raise CertificateError(f"decoded stack {stack} exceeds the capacity {layered.height}")
        stacks.append(tuple(stack))
    return StackPlan(stacks=tuple(stacks))


def plan_arcs(rep: IntervalRep, plan: StackPlan) -> set:
    """The layered arc set of a plan, the inverse of decode_plan: each
    vertex hangs one layer below the innermost interval of its own stack
    that contains it, or below the root."""
    arcs = set()
    for stack in plan.stacks:
        open_ = []  # (vertex, layer) of the stack's intervals around the sweep point
        for v in sorted(stack, key=rep.left.__getitem__):
            while open_ and rep.right[open_[-1][0]] < rep.left[v]:
                open_.pop()
            parent = open_[-1] if open_ else (ROOT, 0)
            arcs.add((parent, (v, parent[1] + 1)))
            open_.append((v, parent[1] + 1))
    return arcs


def check_plan(rep: IntervalRep, plan: StackPlan, height: int, num_stacks: int) -> None:
    """Raise CertificateError unless the plan puts every vertex in exactly
    one of num_stacks nonempty stacks, each independent and of height at
    most `height`."""
    placed = sorted(v for stack in plan.stacks for v in stack)
    if placed != list(rep.vertices) or plan.num_stacks != num_stacks or not all(plan.stacks):
        raise CertificateError(f"plan is not a partition into {num_stacks} stacks")
    for stack in plan.stacks:
        for k, u in enumerate(stack):
            for v in stack[k + 1:]:
                if rep.overlaps(u, v):
                    raise CertificateError(f"stack {stack} holds overlapping {u} and {v}")
        if max_antichain(rep, stack) > height:
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
