"""Exact integer solving by branch-and-bound over the LP relaxation.

One driver answers both the colors (CG) and the stacks (CG_H) requests.
It first looks for a plan with as many stacks as a certified lower bound,
which proves itself optimal with no LP: a checked maximum clique for
colors, and for stacks the larger of the clique and a checked deepest
overlap over the height.  On random instances that settles most color
requests and more than half of the stacks requests at benchmark size.
Otherwise: build, root LP, search, decode, certify.  The search is
best-bound with depth-first tie-breaking and branches on a single
most-fractional binary variable per node, ties to the smallest name;
random instances almost always come back integral at the root, so that
path is usually one LP solve.  Both paths end in one
report built from the certified plan.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from .errors import CertificateError, InfeasibleModelError
# build_graph and validate_coloring are not called here; perfbench/spans.py
# wraps them at these names
from .intervals import (  # noqa: F401
    CircleGraph,
    Coloring,
    IntervalRep,
    build_clique_matrix,
    build_dag,
    build_graph,
    color_within,
    max_clique,
    validate_coloring,
)
from .lpmodels import LpModel, build_cg
from .mwis import check_clique, check_overlap, decode_arborescence
from .simplex import DEFAULT_OPTIONS, LpSolution, SimplexOptions, solve_lp
# arborescence_of_coloring is not called here; perfbench/spans.py wraps it
# at this name
from .stowage import (  # noqa: F401
    StackPlan,
    arborescence_of_coloring,
    build_cgh,
    check_plan,
    decode_plan,
    deepest_overlap,
    effective_height,
    greedy_stack_plan,
    stack_plan_within,
)


@dataclass
class SolveReport:
    """The answer of solve_chromatic or solve_stacks.  plan is the
    certified plan: the color classes in color order for colors.
    nodes_explored counts the LP nodes, the root once, and is 0 when a
    lower bound and a plan of as many stacks settle the answer (see
    _clique_plan)."""

    chromatic_number: int
    fractional_chromatic: float
    nodes_explored: int
    coloring: Coloring
    plan: StackPlan
    clique: tuple  # a maximum clique, checked by check_clique
    timings: dict = field(default_factory=dict)

    @property
    def root_gap(self) -> float:
        return self.chromatic_number - self.fractional_chromatic


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


def _by_name(model: LpModel, indices) -> np.ndarray:
    """The variable indices sorted by their variables' names."""
    return np.array(sorted(indices, key=model.var_names.__getitem__), dtype=np.int64)


def _branch_var(primal: np.ndarray, order: np.ndarray, int_tol: float):
    """The branching rule: the index of the most fractional variable of
    order at primal, ties to the first in order (the smallest name, as
    _by_name sorts them), or None when every one is within int_tol of an
    integer."""
    x = primal[order]
    frac = np.abs(x - np.round(x))
    return int(order[frac.argmax()]) if frac.size and frac.max() > int_tol else None


def solve_ip(model: LpModel, options: SimplexOptions | None = None,
             incumbent_value: float | None = None,
             branch=None, log=None,
             root: LpSolution | None = None):
    """Minimize a model with binary/integer variables.

    Returns (value, primal-or-None, nodes); primal is an array in
    var_names order.  primal is None when the incumbent supplied by the
    caller was never beaten (the caller then owns the certificate).
    branch holds the indices of the variables it may branch on, by
    default every binary and integer one; the others are left to the
    integrality implied by these.  Branching splits the variable
    _branch_var picks on floor/ceil of its LP value (a 0/1 fix for
    binaries).  Each node keeps its (lower, upper) bound arrays, which
    solve_lp tightens on top of the model's own.  A caller that has
    already solved the root LP passes it as root: it is counted as the
    first node and not solved again.

    A child's LP resumes from its parent's final tableau (solve_lp's warm
    restart).  Only the heap entries pushed since the last pop keep their
    LP solution for their children; a pop drops the others', whose
    children are then solved cold.  Best-bound search with depth-first ties
    nearly always pops one of the two children just pushed.
    """
    if model.sense != "min":
        raise ValueError(f"solve_ip minimizes; model {model.name} is a {model.sense} model")
    opts = options or DEFAULT_OPTIONS
    integral = model.integral_objective
    order = _by_name(model, np.flatnonzero(model.kind) if branch is None else branch)

    best_value = incumbent_value if incumbent_value is not None else math.inf
    best_primal = None
    nodes = 0
    seq = 0
    heap = []
    kept = {}  # seq -> LpSolution of the entries pushed since the last pop

    def evaluate(bounds, depth, sol=None, parent=None):
        nonlocal nodes, best_value, best_primal, seq
        nodes += 1
        if sol is None:
            sol = solve_lp(model, opts, bounds=bounds, warm=parent)
        if sol.status != "optimal":
            return
        bound = _node_bound(sol.objective, integral, opts.int_tol)
        if log:
            log(f"node depth={depth} bound={bound:g} incumbent={best_value:g} "
                f"pivots={sol.iterations}")
        if bound >= best_value - (0 if integral else opts.int_tol):
            return
        k = _branch_var(sol.primal, order, opts.int_tol)
        if k is None:
            value = round(sol.objective) if integral else sol.objective
            if value < best_value:
                best_value = value
                best_primal = sol.primal
            return
        seq += 1
        heappush(heap, (bound, -depth, seq, bounds, k, float(sol.primal[k])))
        kept[seq] = sol

    evaluate((model.lower, model.upper), 0, root)
    while heap:
        bound, negdepth, popped, (lower, upper), k, frac_val = heappop(heap)
        parent = kept.pop(popped, None)
        kept.clear()
        if bound >= best_value:
            continue
        # each child copies the one bound array it tightens
        down, up = upper.copy(), lower.copy()
        down[k], up[k] = math.floor(frac_val), math.ceil(frac_val)
        evaluate((lower, down), -negdepth + 1, parent=parent)
        evaluate((up, upper), -negdepth + 1, parent=parent)
    if math.isinf(best_value) or (incumbent_value is None and best_primal is None):
        raise InfeasibleModelError(f"model {model.name} has no integer solution")
    return best_value, best_primal, nodes


# ---------------------------------------------------------------------------
# the arborescence programs: CG for colors, CG_H for stacks

def _start(rep: IntervalRep, model: LpModel, plan: StackPlan) -> np.ndarray:
    """The point of a heuristic plan in the variables of CG or CG_H, the
    arcs 0 .. A-1 and c last: its arcs at 1 and c at its number of stacks.
    The arcs are those check_plan certifies at the model's height (n for
    CG); a CG arc (i, j) is a layered arc (i, h, j) with its layer
    dropped."""
    held = set(check_plan(rep, plan, model.metadata.get("height", rep.n), plan.num_stacks))
    held |= {(i, j) for i, _, j in held}
    arcs = model.metadata["arcs"].values()
    return np.array([tuple(arc) in held for arc in arcs] + [plan.num_stacks], float)


def _root_lp(model: LpModel, start: np.ndarray, opts: SimplexOptions, timings: dict) -> LpSolution:
    """The LP relaxation of CG or CG_H, crash-started from start, the
    point of a heuristic solution."""
    t0 = time.perf_counter()
    root = solve_lp(model, opts, start=start)
    timings["root_lp"] = time.perf_counter() - t0
    if root.status != "optimal":
        # the heuristic solution is feasible, so this cannot happen
        raise InfeasibleModelError(f"{model.name} root LP came back {root.status}")
    return root


def _build(rep: IntervalRep, height: int | None, timings: dict, plan: StackPlan | None = None):
    """The CG program (height None) or the CG_H program at `height`, an
    effective height, and its start plan: `plan` when given, else
    greedy_stack_plan at the height, or at rep.n for CG, where no height
    binds (first fit).  Returns (model, plan)."""
    t0 = time.perf_counter()
    dag = build_dag(rep)
    matrix = build_clique_matrix(rep)
    if height is None:
        model = build_cg(rep, dag, matrix)
    else:
        model = build_cgh(rep, dag, matrix, height)
    plan = plan or greedy_stack_plan(rep, height or rep.n)
    timings["build"] = time.perf_counter() - t0
    return model, plan


def _clique_plan(rep: IntervalRep, height: int | None, timings: dict):
    """The checked maximum clique, a plan, and the plan's arcs when it
    settles the answer, else None.  The plan settles the answer when it
    has as many stacks as the lower bound lb, and then check_plan
    certifies it and gives its arcs.

    For colors (height None), lb = omega and the plan is the color
    classes of color_within(rep, omega), or None when it finds none.  A
    stack is an independent set, so it holds at most one member of the
    clique, and omega <= chi_f <= chi.

    For stacks at the effective height H, lb = max(omega, d/H), d the
    deepest overlap: the d intervals that deepest_overlap finds cover one
    point, which check_overlap certifies.  Those of one stack nest, so a
    stack holds at most H of them, and lb bounds both the stack count and
    the CG_H LP value.  The plan is the greedy plan, the LP path's start;
    when lb is an integer below its count, stack_plan_within searches for
    a plan of lb stacks and the greedy plan stays when it finds none.  A
    non-integer lb (d/H > omega, H not dividing d) never settles: the LP
    value is then unknown."""
    t0 = time.perf_counter()
    clique = max_clique(rep)
    check_clique(rep, clique)
    bound = len(clique)
    if height is None:
        colors = color_within(rep, bound)
        plan = None if colors is None else StackPlan(stacks=_color_classes(rep, colors, bound))
    else:
        plan = greedy_stack_plan(rep, height)
        bound = max(bound, check_overlap(rep, deepest_overlap(rep)) / height)
        if bound % 1 == 0 and plan.num_stacks > bound:  # an integer bound greedy misses
            plan = stack_plan_within(rep, height, int(bound)) or plan
    settles = plan is not None and plan.num_stacks == bound
    arcs = check_plan(rep, plan, height or rep.n, bound) if settles else None
    timings["clique"] = time.perf_counter() - t0
    return clique, plan, arcs


def _color_classes(rep: IntervalRep, colors: dict, chi: int) -> tuple:
    """The color classes 1..chi of a coloring, each in vertex order."""
    return tuple(tuple(v for v in rep.vertices if colors.get(v) == c) for c in range(1, chi + 1))


def _solve(rep: IntervalRep, height: int | None, options: SimplexOptions | None,
           log=None) -> SolveReport:
    """The one answer path of CG (height None) and CG_H.

    First _clique_plan: when its plan has as many stacks as its certified
    lower bound, that is the answer, and the relaxation value too, with
    no LP and nodes 0.  Otherwise _build gives the program, with the
    greedy plan (for CG, the first-fit plan at height n) as the crash
    start and the incumbent: the root LP, then branch-and-bound unless
    the root is integral on the arcs.  The winning arcs, or the
    plan's own arcs when nothing beats it, are decoded: into the color
    classes 1..chi by decode_arborescence for CG, into stacks by
    decode_plan at the effective height for CG_H; check_plan certifies
    the plan, and nodes counts the LP nodes, the root once.  Both paths
    end in one report built from the certified plan: its stacks are the
    colors, and for CG the certificate is the arcs check_plan returned,
    flattened (arborescence_of_coloring of the coloring)."""
    opts = options or DEFAULT_OPTIONS
    timings = {}
    if height is not None:
        height = effective_height(rep, height)
    clique, plan, arcs = _clique_plan(rep, height, timings)
    if arcs is None:
        model, plan = _build(rep, height, timings, plan)
        arc_list = list(model.metadata["arcs"].values())
        start = _start(rep, model, plan)
        root = _root_lp(model, start, opts, timings)
        chi_f = root.objective
        t0 = time.perf_counter()
        branch = _by_name(model, range(len(arc_list)))  # the arcs; c is left to them
        if _branch_var(root.primal, branch, opts.int_tol) is None:
            value, point, nodes = round(root.objective), root.primal, 1
        else:
            value, point, nodes = solve_ip(model, opts, incumbent_value=plan.num_stacks,
                                           branch=branch, log=log, root=root)
        timings["search"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        point = start if point is None else point
        chosen = {tuple(arc_list[k]) for k in np.flatnonzero(point[:len(arc_list)] > 0.5).tolist()}
        if height is None:
            colors = decode_arborescence(rep, chosen, value).colors
            # the color classes 1..chi, as a plan with no binding height
            plan = StackPlan(stacks=_color_classes(rep, colors, value))
            cap, failure = rep.n, f"decoded coloring is not a proper {value}-coloring: "
        else:
            cap, failure = height, ""
            plan = decode_plan(rep, chosen, value, height)
        try:
            arcs = check_plan(rep, plan, cap, value)
        except CertificateError as exc:
            raise CertificateError(f"{failure}{exc}") from None
        timings["decode"] = time.perf_counter() - t0
    else:
        value, chi_f, nodes = plan.num_stacks, float(plan.num_stacks), 0
    coloring = Coloring(plan.stack_of(),
                        None if height else frozenset((i, j) for i, _, j in arcs))
    return SolveReport(chromatic_number=value, fractional_chromatic=chi_f, nodes_explored=nodes,
                       coloring=coloring, plan=plan, clique=clique, timings=timings)


def cg_root(rep: IntervalRep, options: SimplexOptions | None = None,
            timings: dict | None = None) -> tuple[LpModel, LpSolution]:
    """Build the CG program and solve its LP relaxation, with no
    branching and no clique: the root value is the fractional chromatic
    number.

    Returns (model, root); the build and root-LP seconds go into timings
    when it is given."""
    timings = {} if timings is None else timings
    model, plan = _build(rep, None, timings)
    return model, _root_lp(model, _start(rep, model, plan), options or DEFAULT_OPTIONS, timings)


def fractional_chromatic(rep: IntervalRep, options: SimplexOptions | None = None,
                         timings: dict | None = None) -> float:
    """The fractional chromatic number: omega when _clique_plan finds an
    omega-coloring, which proves chi_f = omega, else the cg_root value.
    The clique, build and root-LP seconds go into timings when it is
    given."""
    timings = {} if timings is None else timings
    clique, _, arcs = _clique_plan(rep, None, timings)
    if arcs is not None:
        return float(len(clique))
    return cg_root(rep, options, timings)[1].objective


def solve_chromatic(rep: IntervalRep, options: SimplexOptions | None = None,
                    log=None) -> SolveReport:
    """Exact chromatic number with a coloring certificate; the fractional
    chromatic number is omega when an omega-coloring settles it, else the
    root LP value, and the plan holds the color classes in color order."""
    return _solve(rep, None, options, log)


def solve_stacks(rep: IntervalRep, height: int,
                 options: SimplexOptions | None = None, log=None) -> SolveReport:
    """Exact minimum number of stacks of capacity `height`; the
    relaxation is lb = max(omega, d/H) when a plan of lb stacks settles
    it (see _clique_plan), else the CG_H root LP value."""
    return _solve(rep, height, options, log)
