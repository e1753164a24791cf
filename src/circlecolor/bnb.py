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
# build_graph and validate_coloring are not called here; perfbench/spans.py
# wraps them at these names
from .intervals import (  # noqa: F401
    CircleGraph,
    Coloring,
    ContainmentDag,
    IntervalRep,
    build_clique_matrix,
    build_dag,
    build_graph,
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


# a library export on the overlap graph, which perfbench/spans.py also wraps
# at this name; the solvers start from greedy_stack_plan instead
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
    the integrality implied by the others.  Node LPs solve the model itself,
    as solve_lp reads bounds only.  A caller that has already solved the
    root LP passes it as root: it is counted as the first node and not
    solved again.
    """
    assert model.sense == "min"
    opts = options or DEFAULT_OPTIONS
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
            sol = solve_lp(model, opts, bound_overrides=fixings or None)
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
# the arborescence programs: CG for colors, CG_H for stacks

def _root_lp(model: LpModel, start: dict, opts: SimplexOptions, timings: dict) -> LpSolution:
    """The LP relaxation of CG or CG_H, crash-started from start, the
    point of a heuristic solution."""
    t0 = time.perf_counter()
    root = solve_lp(model, opts, start=start)
    timings["root_lp"] = time.perf_counter() - t0
    if root.status != "optimal":
        # the heuristic solution is feasible, so this cannot happen
        raise InfeasibleModelError(f"{model.name} root LP came back {root.status}")
    return root


def _solve(model: LpModel, start: dict, opts: SimplexOptions, timings: dict,
           log=None, priority=None):
    """Integer optimum of CG or CG_H, with the heuristic solution at start
    (start["c"] colors) as the incumbent: the root LP, then
    branch-and-bound unless the root is integral on the arcs.

    Returns (value, root LP value, primal-or-None, nodes); primal is None
    when the heuristic solution is optimal, and nodes counts the root."""
    root = _root_lp(model, start, opts, timings)
    t0 = time.perf_counter()
    if all(abs(root.primal[name] - round(root.primal[name])) <= opts.int_tol
           for name in model.metadata["arcs"]):
        value, primal, nodes = round(root.objective), root.primal, 1
    else:
        value, primal, nodes = solve_ip(
            model, opts,
            incumbent_value=start["c"],
            no_branch=frozenset(["c"]),
            priority=priority,
            log=log,
            root=root,
        )
        nodes += 1  # the root LP above, which solve_ip counts once more
    timings["search"] = time.perf_counter() - t0
    return int(value), root.objective, primal, nodes


def _build_cg(rep: IntervalRep, timings: dict):
    """The CG program, and the arcs of greedy_stack_plan(rep, rep.n), a
    stack plan with no binding height (first fit), as its start point."""
    t0 = time.perf_counter()
    dag = build_dag(rep)
    matrix = build_clique_matrix(rep)
    model = build_cg(rep, dag, matrix)
    plan = greedy_stack_plan(rep, rep.n)
    ff_arcs = {(i, j) for (i, _), (j, _) in plan_arcs(rep, plan)}
    start = {arc_var(i, j): 1.0 for i, j in ff_arcs}
    start["c"] = plan.num_stacks
    timings["build"] = time.perf_counter() - t0
    return dag, model, ff_arcs, start


def cg_root(rep: IntervalRep, options: SimplexOptions | None = None,
            timings: dict | None = None) -> tuple[ContainmentDag, LpModel, LpSolution]:
    """Build the CG program and solve its LP relaxation, with no
    branching: the root value is the fractional chromatic number.

    Returns (dag, model, root); the build and root-LP seconds go into
    timings when it is given."""
    timings = {} if timings is None else timings
    dag, model, _, start = _build_cg(rep, timings)
    return dag, model, _root_lp(model, start, options or DEFAULT_OPTIONS, timings)


def solve_chromatic(rep: IntervalRep, options: SimplexOptions | None = None,
                    log=None) -> SolveReport:
    """Exact chromatic number with a decoded coloring certificate; the root
    LP value is the fractional chromatic number."""
    timings = {}
    dag, model, ff_arcs, start = _build_cg(rep, timings)
    arc_names = model.metadata["arcs"]
    priority = {name: len(dag.children[ij[0]]) for name, ij in arc_names.items()}
    chi, chi_f, primal, nodes = _solve(model, start, options or DEFAULT_OPTIONS, timings,
                                       log, priority)

    t0 = time.perf_counter()
    arcs = ff_arcs if primal is None else _arcs_from_primal(primal, arc_names)
    coloring = decode_arborescence(rep, arcs, chi)
    # the color classes 1..chi, as a plan with no binding height
    classes = tuple(tuple(v for v in rep.vertices if coloring.colors.get(v) == c)
                    for c in range(1, chi + 1))
    try:
        check_plan(rep, StackPlan(stacks=classes), rep.n, chi)
    except CertificateError as exc:
        raise CertificateError(f"decoded coloring is not a proper {chi}-coloring: {exc}") from None
    timings["decode"] = time.perf_counter() - t0
    return SolveReport(
        chromatic_number=chi,
        fractional_chromatic=chi_f,
        root_gap=chi - chi_f,
        nodes_explored=nodes,
        coloring=coloring,
        timings=timings,
    )


def solve_stacks(rep: IntervalRep, height: int,
                 options: SimplexOptions | None = None, log=None) -> SolveReport:
    """Exact minimum number of stacks of capacity `height`."""
    timings = {}
    t0 = time.perf_counter()
    dag = build_dag(rep)
    matrix = build_clique_matrix(rep)
    h_eff = effective_height(rep, height)
    layered = build_layered_dag(rep, dag, h_eff)
    model = build_cgh(rep, layered, matrix)
    greedy = greedy_stack_plan(rep, h_eff)
    start = {layer_var(i, h, j): 1.0 for (i, h), (j, _) in plan_arcs(rep, greedy)}
    start["c"] = greedy.num_stacks
    timings["build"] = time.perf_counter() - t0
    value, frac, primal, nodes = _solve(model, start, options or DEFAULT_OPTIONS, timings, log)

    t0 = time.perf_counter()
    if primal is None:
        plan = greedy
    else:
        arcs = {((i, h), (j, h + 1))
                for i, h, j in _arcs_from_primal(primal, model.metadata["arcs"])}
        plan = decode_plan(rep, layered, arcs, value)
    check_plan(rep, plan, h_eff, value)
    timings["decode"] = time.perf_counter() - t0
    return SolveReport(
        chromatic_number=value,
        fractional_chromatic=frac,
        root_gap=value - frac,
        nodes_explored=nodes,
        coloring=Coloring(colors=plan.stack_of()),
        timings=timings,
        plan=plan,
    )
