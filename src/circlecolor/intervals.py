"""Core domain objects for circle graph instances.

A circle graph is given by an interval representation: one interval per
vertex, all 2n endpoints distinct.  Two vertices are adjacent iff their
intervals partially overlap (they intersect but neither contains the
other).  Vertices are numbered 1..n in input order; 0 is reserved for the
artificial root of the containment DAG.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import (
    DuplicateEndpointError,
    EmptyInstanceError,
    InstanceFormatError,
    MissingVertexError,
)

ROOT = 0


@dataclass(frozen=True)
class IntervalRep:
    """Normalized interval representation: endpoints are exactly 1..2n."""

    n: int
    left: tuple[int, ...]   # left[v] for v in 1..n; left[0] unused
    right: tuple[int, ...]

    def interval(self, v: int) -> tuple[int, int]:
        return self.left[v], self.right[v]

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def contains(self, i: int, j: int) -> bool:
        """True iff I(i) strictly contains I(j)."""
        return self.left[i] < self.left[j] and self.right[j] < self.right[i]

    def precedes(self, i: int, j: int) -> bool:
        """The partial order: i comes before j iff i == j or I(i) ends
        before I(j) begins."""
        return i == j or self.right[i] <= self.left[j]

    def overlaps(self, i: int, j: int) -> bool:
        """Partial overlap (the adjacency rule)."""
        li, ri = self.left[i], self.right[i]
        lj, rj = self.left[j], self.right[j]
        return li < lj < ri < rj or lj < li < rj < ri

    def is_chain(self, vs) -> bool:
        """True iff the vertices form a chain: pairwise disjoint intervals."""
        order = sorted(vs, key=lambda v: self.left[v])
        return all(self.right[a] <= self.left[b] for a, b in zip(order, order[1:]))

    def is_antichain(self, vs) -> bool:
        vs = list(vs)
        return all(
            not self.precedes(a, b) and not self.precedes(b, a)
            for k, a in enumerate(vs)
            for b in vs[k + 1:]
        )


def normalize(raw_intervals) -> IntervalRep:
    """Build a normalized representation from raw endpoint pairs.

    Endpoints are rank-compressed to the permutation 1..2n; each pair is
    reordered so left < right; vertex order follows input order.
    Duplicate endpoints are rejected, not perturbed.
    """
    pairs = list(raw_intervals)
    if not pairs:
        raise EmptyInstanceError("no intervals given")
    flat = []
    for a, b in pairs:
        if a == b:
            raise DuplicateEndpointError(f"degenerate interval ({a}, {b})")
        flat.extend((a, b))
    if len(set(flat)) != len(flat):
        seen, dup = set(), None
        for x in flat:
            if x in seen:
                dup = x
                break
            seen.add(x)
        raise DuplicateEndpointError(f"endpoint {dup} appears twice")
    rank = {x: k + 1 for k, x in enumerate(sorted(flat))}
    left = [0]
    right = [0]
    for a, b in pairs:
        ra, rb = rank[a], rank[b]
        if ra > rb:
            ra, rb = rb, ra
        left.append(ra)
        right.append(rb)
    return IntervalRep(n=len(pairs), left=tuple(left), right=tuple(right))


# ---------------------------------------------------------------------------
# instance file IO

def parse_instance(text: str) -> IntervalRep:
    """Parse the instance text format: first line n, then n lines "l r".

    Lines starting with '#' are comments.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise InstanceFormatError("empty instance file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise InstanceFormatError(f"bad vertex count line: {lines[0]!r}") from exc
    if len(lines) != n + 1:
        raise InstanceFormatError(f"expected {n} interval lines, found {len(lines) - 1}")
    pairs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise InstanceFormatError(f"bad interval line: {ln!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise InstanceFormatError(f"bad interval line: {ln!r}") from exc
    try:
        return normalize(pairs)
    except (DuplicateEndpointError, EmptyInstanceError) as exc:
        raise InstanceFormatError(str(exc)) from exc


def load_instance(path) -> IntervalRep:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def format_instance(rep: IntervalRep) -> str:
    lines = [str(rep.n)]
    lines += [f"{rep.left[v]} {rep.right[v]}" for v in rep.vertices]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the circle graph itself

@dataclass(frozen=True)
class CircleGraph:
    n: int
    adj: tuple[frozenset, ...]  # adj[v] for v in 1..n; adj[0] empty

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in self.vertices for j in self.adj[i] if i < j]

    @property
    def num_edges(self) -> int:
        return sum(len(self.adj[v]) for v in self.vertices) // 2


def build_graph(rep: IntervalRep) -> CircleGraph:
    """Adjacency by the partial-overlap test, O(n^2)."""
    adj = [set() for _ in range(rep.n + 1)]
    for i in rep.vertices:
        for j in range(i + 1, rep.n + 1):
            if rep.overlaps(i, j):
                adj[i].add(j)
                adj[j].add(i)
    return CircleGraph(n=rep.n, adj=tuple(frozenset(a) for a in adj))


def to_dimacs(graph: CircleGraph) -> str:
    """DIMACS edge format for the derived circle graph."""
    edges = graph.edges()
    lines = [f"p edge {graph.n} {len(edges)}"]
    lines += [f"e {i} {j}" for i, j in edges]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# containment DAG

@dataclass(frozen=True)
class ContainmentDag:
    """Root 0 plus arcs for strict interval containment.

    children[i] lists the direct arc targets of i (for the root: all of V;
    for i in V: every j with I(i) strictly containing I(j)).
    """

    n: int
    children: tuple[tuple[int, ...], ...]  # children[i] for i in 0..n
    branching: frozenset  # vertices of V with a nonempty child set

    @property
    def arcs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n + 1) for j in self.children[i]]


def build_dag(rep: IntervalRep) -> ContainmentDag:
    """Endpoint sweep: the children of i are the vertices whose left
    endpoint lies inside I(i) and whose right endpoint is below r_i.

    Visiting the endpoints inside every I(i) costs O(n + m + sum of child
    counts) for m edges; each child tuple is sorted by vertex id.
    """
    n = rep.n
    right = rep.right + (2 * n + 1,)  # vertex n+1 is a sentinel that fits inside nothing
    at = [n + 1] * (2 * n + 1)  # position -> vertex whose left endpoint is there
    for v in rep.vertices:
        at[rep.left[v]] = v
    children = [tuple(rep.vertices)]
    for i in rep.vertices:
        r = right[i]
        children.append(tuple(sorted([j for j in at[rep.left[i] + 1:r] if right[j] < r])))
    branching = frozenset(i for i in rep.vertices if children[i])
    return ContainmentDag(n=rep.n, children=tuple(children), branching=branching)


def topological_order(rep: IntervalRep) -> list[int]:
    """Vertices ordered so containers come before their contents.

    Sorting by left endpoint ascending suffices: I(i) strictly containing
    I(j) forces l_i < l_j.  Ties cannot occur (distinct endpoints).
    """
    return sorted(rep.vertices, key=lambda v: rep.left[v])


# ---------------------------------------------------------------------------
# clique matrix and antichains

@dataclass(frozen=True)
class CliqueMatrix:
    """0-1 point-versus-interval incidence matrix, stored by column.

    Rows are sweep points; entry (p, v) is 1 iff the point lies inside
    I(v), so the ones of each column are consecutive: rows[v] is the range
    of row indices whose point lies in I(v) (rows[0] is empty).  By default
    one row per left endpoint is used (n rows): every maximal antichain is
    realized at the left endpoint of its last-starting interval, so maximum
    antichain sizes are preserved.  full_points=True keeps all 2n endpoints
    (used to cross-check that claim).
    """

    points: tuple[int, ...]
    rows: tuple[range, ...]  # rows[v] for v in 0..n


def build_clique_matrix(rep: IntervalRep, full_points: bool = False) -> CliqueMatrix:
    if full_points:
        points = sorted(rep.left[1:] + rep.right[1:])
    else:
        points = sorted(rep.left[1:])
    rows = [range(0)]
    rows += [range(bisect_left(points, rep.left[v]), bisect_right(points, rep.right[v]))
             for v in rep.vertices]
    return CliqueMatrix(points=tuple(points), rows=tuple(rows))


def longest_rising_run(values) -> int:
    """Length of the longest strictly rising subsequence of values, by
    patience sorting in O(k log k): tails[k] is the smallest last value of
    a rising run of k + 1."""
    tails = []
    for x in values:
        k = bisect_left(tails, x)
        tails[k:k + 1] = [x]
    return len(tails)


def clique_number(rep: IntervalRep) -> int:
    """Size of a maximum clique, from the intervals alone (after Gavril,
    "Algorithms for a maximum clique and a maximum independent set of a
    circle graph", Networks 3, 1973).

    Sorted by left endpoint, the members of a clique have rising right
    endpoints, all after the last left endpoint.  So the cliques whose
    first member is v are the rising runs of right endpoints, in
    left-endpoint order, among the j with l_v <= l_j < r_v <= r_j (v among
    them, as the start of the longest run): one patience sort per v,
    O(n^2 log n) in all.
    """
    at = [ROOT] * (2 * rep.n + 1)  # position -> vertex whose left endpoint is there
    for v in rep.vertices:
        at[rep.left[v]] = v
    right = rep.right  # right[ROOT] is 0, so the root passes no filter below
    return max((longest_rising_run([right[j] for j in at[rep.left[v]:right[v]]
                                    if right[j] >= right[v]])
                for v in rep.vertices), default=0)


def max_antichain(rep: IntervalRep, subset) -> int:
    """Size of a maximum antichain of the poset inside the subset.

    Antichains are families of pairwise intersecting intervals, so the
    maximum is the deepest overlap of the subset: sort its endpoints and
    sweep them, O(k log k).
    """
    events = []
    for v in subset:
        events += ((rep.left[v], 1), (rep.right[v], -1))
    events.sort()
    best = depth = 0
    for _, step in events:
        depth += step
        best = max(best, depth)
    return best


# ---------------------------------------------------------------------------
# colorings

@dataclass(frozen=True)
class Coloring:
    """Vertex -> positive color, optionally with the arborescence it was
    decoded from (arcs of the containment DAG)."""

    colors: dict
    certificate: frozenset | None = None

    @property
    def num_colors(self) -> int:
        return max(self.colors.values()) if self.colors else 0


def validate_coloring(graph: CircleGraph, coloring: Coloring) -> bool:
    """True iff the coloring is proper.  Raises if a vertex is uncolored."""
    for v in graph.vertices:
        if v not in coloring.colors:
            raise MissingVertexError(f"vertex {v} has no color")
    for i in graph.vertices:
        for j in graph.adj[i]:
            if i < j and coloring.colors[i] == coloring.colors[j]:
                return False
    return True
