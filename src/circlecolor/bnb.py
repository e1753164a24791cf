"""Exact integer solving by branch-and-bound over the LP relaxation.

The search is best-bound with depth-first tie-breaking and branches on a
single most-fractional binary variable per node.  Random circle graph
instances almost always come back integral at the root, so the usual path
is one LP solve.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .errors import CertificateError, InfeasibleModelError
from .intervals import (
    ROOT,
    CircleGraph,
    Coloring,
    ContainmentDag,
    IntervalRep,
    build_clique_matrix,
    build_dag,
    build_graph,
    topological_order,
    validate_coloring,
)
from .lpmodels import LpModel, arc_var, build_cg
# arborescence_of_coloring is not called here; perfbench/spans.py wraps it
# at this name
from .mwis import arborescence_of_coloring, decode_arborescence  # noqa: F401
from .simplex import DEFAULT_OPTIONS, LpSolution, SimplexOptions, solve_lp
from .stowage import (
    StackPlan,
    build_cgh,
    build_layered_dag,
    check_plan,
    decode_plan,
    effective_height,
    greedy_stack_plan,
    layer_var,
    plan_arcs,
)


@dataclass
class SolveReport:
    chromatic_number: int
    fractional_chromatic: float
    root_gap: float
    nodes_explored: int
    coloring: Coloring
    timings: dict = field(default_factory=dict)
    plan: StackPlan | None = None


def first_fit(graph: CircleGraph, order=None) -> Coloring:
    """Greedy smallest-available-color along the given vertex ordering."""
    order = list(order) if order is not None else list(graph.vertices)
    colors = {}
    for v in order:
        used = {colors[u] for u in graph.adj[v] if u in colors}
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    return Coloring(colors=colors)


def first_fit_arborescence(rep: IntervalRep) -> tuple[Coloring, frozenset]:
    """first_fit along topological_order(rep) and its arborescence
    (arborescence_of_coloring), in one O(n * colors) sweep with no overlap
    graph.

    Each color keeps a stack of its intervals still open at the sweep
    point; they nest, so the innermost is on top.  A vertex takes the
    first color whose stack is empty or whose top contains it, and hangs
    below that top (or below the root).
    """
    colors = {}
    arcs = set()
    stacks = []
    for v in topological_order(rep):
        for color, stack in enumerate(stacks, start=1):
            while stack and rep.right[stack[-1]] < rep.left[v]:
                stack.pop()
            if not stack or rep.right[v] < rep.right[stack[-1]]:
                break
        else:
            stack = []
            stacks.append(stack)
            color = len(stacks)
        arcs.add((stack[-1] if stack else ROOT, v))
        colors[v] = color
        stack.append(v)
    return Coloring(colors=colors), frozenset(arcs)


# ---------------------------------------------------------------------------
# generic LP-based branch and bound

def _node_bound(obj: float, integral: bool, int_tol: float) -> float:
    return math.ceil(obj - int_tol) if integral else obj


def solve_ip(model: LpModel, options: SimplexOptions | None = None,
             incumbent_value: float | None = None,
             no_branch=frozenset(), priority=None, log=None,
             root: LpSolution | None = None):
    """Minimize a model with binary/integer variables.

    Returns (value, primal-or-None, nodes).  primal is None when the
    incumbent supplied by the caller was never beaten (the caller then owns
    the certificate).  Branching splits one variable on floor/ceil of its
    LP value (a 0/1 fix for binaries); variables in no_branch are left to
    the integrality implied by the others.  A caller that has already
    solved model.relaxed() passes it as root: it is counted as the first
    node and not solved again.
    """
    assert model.sense == "min"
    opts = options or DEFAULT_OPTIONS
    relaxed = model.relaxed()
    int_names = [n for n in model.integer_var_names() if n not in no_branch]
    prio = priority or {}

    def fractional(primal):
        # most fractional first, ties to higher priority, then smallest name
        best_key, best_var = None, None
        for name in int_names:
            frac = abs(primal[name] - round(primal[name]))
            if frac <= opts.int_tol:
                continue
            key = (frac, prio.get(name, 0))
            if best_var is None or key > best_key or (key == best_key and name < best_var):
                best_key, best_var = key, name
        return best_var

    best_value = incumbent_value if incumbent_value is not None else math.inf
    best_primal = None
    nodes = 0
    seq = 0
    heap = []

    def evaluate(fixings, depth, sol=None):
        nonlocal nodes, best_value, best_primal, seq
        nodes += 1
        if sol is None:
            sol = solve_lp(relaxed, opts, bound_overrides=fixings or None)
        if sol.status != "optimal":
            return
        bound = _node_bound(sol.objective, model.integral_objective, opts.int_tol)
        if log:
            log(f"node depth={depth} bound={bound:g} incumbent={best_value:g}")
        if bound >= best_value - (0 if model.integral_objective else opts.int_tol):
            return
        branch_var = fractional(sol.primal)
        if branch_var is None:
            value = round(sol.objective) if model.integral_objective else sol.objective
            if value < best_value:
                best_value = value
                best_primal = dict(sol.primal)
            return
        seq += 1
        heappush(heap, (bound, -depth, seq, fixings, branch_var, sol.primal[branch_var]))

    evaluate({}, 0, root)
    while heap:
        bound, negdepth, _, fixings, branch_var, frac_val = heappop(heap)
        if bound >= best_value:
            continue
        depth = -negdepth
        olo, ohi = fixings.get(branch_var, (-math.inf, math.inf))
        down = dict(fixings)
        down[branch_var] = (olo, math.floor(frac_val))
        up = dict(fixings)
        up[branch_var] = (math.ceil(frac_val), ohi)
        evaluate(down, depth + 1)
        evaluate(up, depth + 1)
    if math.isinf(best_value) or (incumbent_value is None and best_primal is None):
        raise InfeasibleModelError(f"model {model.name} has no integer solution")
    return best_value, best_primal, nodes


def _arcs_from_primal(primal, arc_map):
    return {tuple(arc_map[name]) for name in arc_map if primal[name] > 0.5}


# ---------------------------------------------------------------------------
# chromatic number

def _cg_root(rep: IntervalRep, opts: SimplexOptions, timings: dict):
    """cg_root, plus first_fit_arborescence(rep) as the last item: the
    root LP starts from that coloring."""
    t0 = time.perf_counter()
    dag = build_dag(rep)
    matrix = build_clique_matrix(rep)
    model = build_cg(rep, dag, matrix)
    ff, ff_arcs = first_fit_arborescence(rep)
    timings["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    start = {arc_var(i, j): 1.0 for i, j in ff_arcs}
    start["c"] = ff.num_colors
    root = solve_lp(model.relaxed(), opts, start=start)
    timings["root_lp"] = time.perf_counter() - t0
    if root.status != "optimal":
        raise InfeasibleModelError(f"CG root LP came back {root.status}")
    return dag, model, root, (ff, ff_arcs)


def cg_root(rep: IntervalRep, options: SimplexOptions | None = None,
            timings: dict | None = None) -> tuple[ContainmentDag, LpModel, LpSolution]:
    """Build the CG program and solve its LP relaxation, with no
    branching: the root value is the fractional chromatic number.

    Returns (dag, model, root); the build and root-LP seconds go into
    timings when it is given."""
    timings = {} if timings is None else timings
    return _cg_root(rep, options or DEFAULT_OPTIONS, timings)[:3]


def solve_chromatic(rep: IntervalRep, options: SimplexOptions | None = None,
                    log=None, graph: CircleGraph | None = None) -> SolveReport:
    """Exact chromatic number with a decoded coloring certificate; the root
    LP value is the fractional chromatic number.  graph is the overlap
    graph of rep, when the caller has already built it."""
    opts = options or DEFAULT_OPTIONS
    timings = {}
    dag, model, root, (ff, ff_arcs) = _cg_root(rep, opts, timings)
    chi_f = root.objective

    t0 = time.perf_counter()
    if graph is None:
        graph = build_graph(rep)
    arc_names = model.metadata["arcs"]
    root_integral = all(
        abs(root.primal[name] - round(root.primal[name])) <= opts.int_tol
        for name in arc_names
    )
    if root_integral:
        chi = round(root.objective)
        arcs = _arcs_from_primal(root.primal, arc_names)
        nodes = 1
    else:
        priority = {name: len(dag.children[ij[0]]) for name, ij in arc_names.items()}
        value, primal, nodes = solve_ip(
            model, opts,
            incumbent_value=ff.num_colors,
            no_branch=frozenset(["c"]),
            priority=priority,
            log=log,
            root=root,
        )
        chi = int(value)
        if primal is not None:
            arcs = _arcs_from_primal(primal, arc_names)
        else:
            arcs = ff_arcs
        nodes += 1  # the root LP above, which solve_ip counts once more
    timings["search"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    coloring = decode_arborescence(rep, arcs, chi)
    if not validate_coloring(graph, coloring) or coloring.num_colors != chi:
        raise CertificateError(f"decoded coloring is not a proper {chi}-coloring")
    timings["decode"] = time.perf_counter() - t0
    return SolveReport(
        chromatic_number=chi,
        fractional_chromatic=chi_f,
        root_gap=chi - chi_f,
        nodes_explored=nodes,
        coloring=coloring,
        timings=timings,
    )


# ---------------------------------------------------------------------------
# capacitated stacks

def solve_stacks(rep: IntervalRep, height: int,
                 options: SimplexOptions | None = None, log=None) -> SolveReport:
    """Exact minimum number of stacks of capacity `height`."""
    opts = options or DEFAULT_OPTIONS
    timings = {}
    t0 = time.perf_counter()
    dag = build_dag(rep)
    matrix = build_clique_matrix(rep)
    h_eff = effective_height(rep, height)
    layered = build_layered_dag(rep, dag, h_eff)
    model = build_cgh(rep, layered, matrix)
    greedy = greedy_stack_plan(rep, h_eff)
    timings["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    start = {layer_var(i, h, j): 1.0 for (i, h), (j, _) in plan_arcs(rep, greedy)}
    start["c"] = greedy.num_stacks
    root = solve_lp(model.relaxed(), opts, start=start)
    timings["root_lp"] = time.perf_counter() - t0
    if root.status != "optimal":
        # singleton stacks are always feasible, so this cannot happen
        raise InfeasibleModelError(f"CG_H root LP came back {root.status}")
    frac = root.objective

    t0 = time.perf_counter()
    arc_names = model.metadata["arcs"]
    root_integral = all(
        abs(root.primal[name] - round(root.primal[name])) <= opts.int_tol
        for name in arc_names
    )
    if root_integral:
        value = round(root.objective)
        primal = root.primal
        nodes = 1
    else:
        value, primal, nodes = solve_ip(
            model, opts,
            incumbent_value=greedy.num_stacks,
            no_branch=frozenset(["c"]),
            log=log,
            root=root,
        )
        nodes += 1  # the root LP above, which solve_ip counts once more
    timings["search"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if primal is not None:
        arcs = {
            ((i, h), (j, h + 1))
            for name, (i, h, j) in arc_names.items()
            if primal[name] > 0.5
        }
        plan = decode_plan(rep, layered, arcs, int(value))
    else:
        plan = greedy
    check_plan(rep, plan, h_eff, int(value))
    colors = plan.stack_of()
    timings["decode"] = time.perf_counter() - t0
    return SolveReport(
        chromatic_number=int(value),
        fractional_chromatic=frac,
        root_gap=int(value) - frac,
        nodes_explored=nodes,
        coloring=Coloring(colors=colors),
        timings=timings,
        plan=plan,
    )
