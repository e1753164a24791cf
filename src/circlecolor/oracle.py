"""Brute-force reference implementations.

Everything here is ground truth at tiny scale: enumeration and
backtracking, refusing inputs over a budget rather than running
unbounded.  Used in tests and behind the `verify` CLI subcommand.

The budget is three module constants: MAX_VERTICES vertices for every
oracle, STACKS_MAX_N for the stack oracles, and MAX_INDEPENDENT_SETS
independent sets for any one enumeration.

Two enumerations serve the oracles.  _independent_sets, a bitmask loop
over every vertex subset, gives every independent set to
all_independent_sets (so to fractional_chromatic_exact with
all_sets=True), mwis_exact and admissible_sets (so to stacks_exact and
stacks_lp_exact).  networkx, through the graph that _networkx builds,
gives the maximal independent sets (the cliques of the complement) to
maximal_independent_sets, so to the default fractional_chromatic_exact,
and the maximum clique to max_clique_exact, so to chromatic_exact's lower
bound.  Nothing here calls check_independent or check_plan, and they call
nothing here, so the oracles and the certificates stay independent checks
of each other.  The stack height is computed two ways too: check_plan
reads it off the nesting that check_independent walks, and
admissible_sets by max_antichain's endpoint sweep.
"""

from __future__ import annotations

from .errors import NumericalFailureError, OverBudgetError
from .intervals import CircleGraph, IntervalRep, max_antichain
from .lpmodels import RELATION, LpModel
from .simplex import solve_lp


MAX_VERTICES = 12
MAX_INDEPENDENT_SETS = 200000
# the stack oracles enumerate vertex subsets with a height test each, so
# they stop at fewer vertices than the others
STACKS_MAX_N = 8


def _check_budget(n: int, limit: int = MAX_VERTICES):
    if n > limit:
        raise OverBudgetError(f"{n} vertices exceeds the oracle budget of {limit}")


def _adjacency_masks(graph: CircleGraph) -> list:
    masks = [0] * (graph.n + 1)
    for v in graph.vertices:
        for u in graph.adj[v]:
            masks[v] |= 1 << (u - 1)
    return masks


def _independent_sets(graph: CircleGraph, limit: int = MAX_VERTICES):
    """Every nonempty independent set as a tuple of its vertices, ascending,
    in the order of its vertex bitmask.  Refuses a graph of more than limit
    vertices before the first set, and stops at the first set over
    MAX_INDEPENDENT_SETS."""
    _check_budget(graph.n, limit)
    adj_masks = _adjacency_masks(graph)
    count = 0
    for mask in range(1, 1 << graph.n):
        members = tuple(v for v in graph.vertices if mask & (1 << (v - 1)))
        if not any(mask & adj_masks[v] for v in members):
            count += 1
            if count > MAX_INDEPENDENT_SETS:
                raise OverBudgetError("too many independent sets to enumerate")
            yield members


def _networkx(graph: CircleGraph):
    """networkx and the graph as a networkx Graph; imported here, so that
    only a running oracle loads it."""
    import networkx as nx
    g = nx.Graph()
    g.add_nodes_from(graph.vertices)
    g.add_edges_from(graph.edges())
    return nx, g


def chromatic_exact(graph: CircleGraph) -> int:
    """Exact chromatic number by backtracking with a clique lower bound."""
    _check_budget(graph.n)
    if graph.n == 0:
        return 0
    lb = max_clique_exact(graph)
    order = sorted(graph.vertices, key=lambda v: -len(graph.adj[v]))

    def colorable(k: int) -> bool:
        colors = {}

        def place(idx: int) -> bool:
            if idx == len(order):
                return True
            v = order[idx]
            used = {colors[u] for u in graph.adj[v] if u in colors}
            # new colors beyond the first unused one are symmetric
            cap = min(k, (max(colors.values()) if colors else 0) + 1)
            for c in range(1, cap + 1):
                if c not in used:
                    colors[v] = c
                    if place(idx + 1):
                        return True
                    del colors[v]
            return False

        return place(0)

    k = lb
    while not colorable(k):
        k += 1
    return k


def max_clique_exact(graph: CircleGraph) -> int:
    """Exact clique number; delegates to networkx's exact search."""
    if graph.n == 0:
        return 0
    nx, g = _networkx(graph)
    clique, _ = nx.max_weight_clique(g, weight=None)
    return len(clique)


def maximal_independent_sets(graph: CircleGraph) -> list:
    """All maximal independent sets, as sorted tuples."""
    nx, g = _networkx(graph)
    return [tuple(sorted(c)) for c in nx.find_cliques(nx.complement(g))]


def all_independent_sets(graph: CircleGraph) -> list:
    return list(_independent_sets(graph))


def _cover_value(columns, n: int, relation: str) -> float:
    """Optimum of the set-cover LP over the columns (vertex sets)."""
    model = LpModel(name="set_cover_lp", sense="min")
    model.add_vars([f"q_{k}" for k in range(len(columns))], cost=1.0)
    # column by column; add_rows keeps each row's entries in column order
    row = [v - 1 for col in columns for v in col]
    var = [k for k, col in enumerate(columns) for _ in col]
    model.add_rows([f"v_{v}" for v in range(1, n + 1)], RELATION[relation], 1.0, False,
                   row, var, [1.0] * len(row))
    sol = solve_lp(model)
    if sol.status != "optimal":  # every vertex is in some column, so it is feasible
        raise NumericalFailureError(f"{model.name} came back {sol.status}")
    return sol.objective


def fractional_chromatic_exact(graph: CircleGraph, all_sets: bool = False) -> float:
    """Fractional chromatic number by the independent-set covering LP.

    By default the LP is restricted to maximal independent sets with >=
    rows (dominance makes that equivalent); all_sets=True reproduces the
    equality form over every independent set as a cross-check.
    """
    _check_budget(graph.n)
    if graph.n == 0:
        return 0.0
    if all_sets:
        return _cover_value(all_independent_sets(graph), graph.n, "=")
    columns = maximal_independent_sets(graph)
    if len(columns) > MAX_INDEPENDENT_SETS:
        raise OverBudgetError("too many independent sets to enumerate")
    return _cover_value(columns, graph.n, ">=")


def mwis_exact(graph: CircleGraph, weights) -> float:
    """Max over independent subsets of the total weight, empty set included."""
    best = 0.0
    for members in _independent_sets(graph):
        best = max(best, sum(weights[v] for v in members))
    return best


def stacks_exact(rep: IntervalRep, graph: CircleGraph, height: int) -> int:
    """Exact minimum number of independent sets of height <= `height`
    covering all vertices, by set-cover DP over vertex bitmasks."""
    admissible = [sum(1 << (v - 1) for v in members)
                  for members in admissible_sets(rep, graph, height)]
    full = (1 << rep.n) - 1
    best = {0: 0}
    frontier = {0}
    count = 0
    while full not in best:
        count += 1
        new_frontier = set()
        for mask in frontier:
            rest = full & ~mask
            low = rest & -rest
            for s in admissible:
                if s & low:
                    nxt = mask | s
                    if nxt not in best:
                        best[nxt] = count
                        new_frontier.add(nxt)
        frontier = new_frontier
        if not frontier:
            raise AssertionError("singleton stacks always give a cover")
    return best[full]


def admissible_sets(rep: IntervalRep, graph: CircleGraph, height: int) -> list:
    """Every nonempty independent set of height <= `height`, as tuples."""
    return [members for members in _independent_sets(graph, STACKS_MAX_N)
            if max_antichain(rep, members) <= height]


def stacks_lp_exact(rep: IntervalRep, graph: CircleGraph, height: int) -> float:
    """LP relaxation of the exact stack partition (equality set-cover over
    every admissible independent set)."""
    return _cover_value(admissible_sets(rep, graph, height), rep.n, "=")
