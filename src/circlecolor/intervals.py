"""Core domain objects for circle graph instances.

A circle graph is given by an interval representation: one interval per
vertex, all 2n endpoints distinct.  Two vertices are adjacent iff their
intervals partially overlap (they intersect but neither contains the
other).  Vertices are numbered 1..n in input order; 0 is reserved for the
artificial root of the containment DAG.

The endpoint sweeps read one table, IntervalRep.at, the vertex at each
endpoint: overlap_lists (and build_graph and color_within through it),
max_clique, and solve_mwis in mwis.  build_dag keeps its own table of
left endpoints, which it slices faster.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain

import numpy as np

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

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def at(self) -> list[int]:
        """The endpoint table: at[p] is the vertex with an endpoint at p,
        for p in 1..2n, and at[0] is ROOT.  Built on first use and kept,
        outside the fields, so equality and hashing do not see it.

        It is kept by object.__setattr__, not functools.cached_property:
        on CPython 3.11 the latter's write through __dict__ makes every
        later read of left and right on the instance about 15 ns slower."""
        at = getattr(self, "_at", None)
        if at is None:
            at, left, right = [ROOT] * (2 * self.n + 1), self.left, self.right
            for v in self.vertices:
                at[left[v]] = at[right[v]] = v
            object.__setattr__(self, "_at", at)
        return at

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
    return _from_endpoints([x for a, b in raw_intervals for x in (a, b)])


def _from_endpoints(flat: list) -> IntervalRep:
    """normalize on the pairs laid end to end: flat[2v - 2], flat[2v - 1]
    are the endpoints of vertex v.  One argsort ranks all 2n of them."""
    if not flat:
        raise EmptyInstanceError("no intervals given")
    ends = np.array(flat)
    if ends.dtype.kind != "i":  # only int64 holds every endpoint exactly
        ends = np.array(flat, dtype=object)
    order = ends.argsort(kind="stable")
    ascending = ends[order]
    repeats = ascending[1:] == ascending[:-1]
    if repeats[repeats.argmax()]:  # equal endpoints sort next to each other
        for a, b in zip(flat[0::2], flat[1::2]):
            if a == b:
                raise DuplicateEndpointError(f"degenerate interval ({a}, {b})")
        seen = set()
        for x in flat:
            if x in seen:
                raise DuplicateEndpointError(f"endpoint {x} appears twice")
            seen.add(x)
    rank = np.empty(len(flat), dtype=np.intp)
    rank[order] = np.arange(1, len(flat) + 1)
    a, b = rank[0::2], rank[1::2]
    return IntervalRep(n=len(a), left=(0, *np.minimum(a, b).tolist()),
                       right=(0, *np.maximum(a, b).tolist()))


# ---------------------------------------------------------------------------
# instance file IO

def parse_instance(text: str) -> IntervalRep:
    """Parse the instance text format: first line n, then n lines "l r".

    Lines starting with '#' are comments.
    """
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]
    if not lines:
        raise InstanceFormatError("empty instance file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise InstanceFormatError(f"bad vertex count line: {lines[0]!r}") from exc
    if len(lines) != n + 1:
        raise InstanceFormatError(f"expected {n} interval lines, found {len(lines) - 1}")
    flat = _endpoints(lines[1:])
    try:
        return _from_endpoints(flat)
    except (DuplicateEndpointError, EmptyInstanceError) as exc:
        raise InstanceFormatError(str(exc)) from exc


def _endpoints(lines) -> list[int]:
    """The two integers of every interval line, laid end to end."""
    rows = [ln.split() for ln in lines]
    if set(map(len, rows)) <= {2}:
        try:
            return list(map(int, chain.from_iterable(rows)))
        except ValueError:
            pass  # the loop below names the line
    for ln, parts in zip(lines, rows):  # some line is bad: name the first
        try:
            _, _ = map(int, parts)
        except ValueError as exc:  # a bad integer, or not two of them
            raise InstanceFormatError(f"bad interval line: {ln!r}") from exc


def load_instance(path) -> IntervalRep:
    """The instance in the file at path.  Text that is not UTF-8 raises
    InstanceFormatError naming the path; an unreadable path raises the
    OSError of open."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InstanceFormatError(f"{path}: not UTF-8 text ({exc.reason}"
                                      f" at byte {exc.start})") from None
    return parse_instance(text)


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
    """The overlap graph, from overlap_lists.  Each adjacency set is
    filled in ascending order, so that edges() lists the edges in the
    order the DIMACS, CL and AS exports have always written."""
    return CircleGraph(n=rep.n, adj=tuple(frozenset(set(sorted(a))) for a in overlap_lists(rep)))


def overlap_lists(rep: IntervalRep) -> list[list[int]]:
    """The overlap adjacency, adj[v] for v in 1..n (adj[0] empty), from one
    sweep over the endpoint table rep.at in O(n + m) for m edges: when
    I(i) closes, the intervals opened after l_i and still open are exactly
    the j with l_i < l_j < r_i < r_j."""
    adj = [[] for _ in range(rep.n + 1)]
    open_ = []  # the open intervals, by left endpoint
    for p, i in enumerate(rep.at[1:], start=1):
        if rep.left[i] == p:
            open_.append(i)
            continue
        k = open_.index(i)
        for j in open_[k + 1:]:
            adj[i].append(j)
            adj[j].append(i)
        del open_[k]
    return adj


def count_edges(rep: IntervalRep) -> int:
    """Number of edges of the overlap graph, from overlap_lists."""
    return sum(map(len, overlap_lists(rep))) // 2


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
    return sorted(rep.vertices, key=rep.left.__getitem__)


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


def rising_run(values) -> list[int]:
    """The positions of a longest strictly rising subsequence of values, by
    patience sorting in O(k log k): tails[k] is the smallest last value of
    a rising run of k + 1, ends[k] its position, and each value links to
    the last position of the run it extends."""
    tails, ends, link = [], [], []
    for p, x in enumerate(values):
        k = bisect_left(tails, x)
        tails[k:k + 1] = [x]
        ends[k:k + 1] = [p]
        link.append(ends[k - 1] if k else -1)
    run = []
    p = ends[-1] if ends else -1
    while p >= 0:
        run.append(p)
        p = link[p]
    return run[::-1]


def max_clique(rep: IntervalRep) -> tuple[int, ...]:
    """A maximum clique, from the intervals alone (after Gavril,
    "Algorithms for a maximum clique and a maximum independent set of a
    circle graph", Networks 3, 1973), in left-endpoint order.

    Sorted by left endpoint, the members of a clique have rising right
    endpoints, all after the last left endpoint.  So the cliques whose
    first member is v are the rising runs of right endpoints, in
    left-endpoint order, among the j with l_v <= l_j < r_v <= r_j (v among
    them, as the start of the longest run): one patience sort per v,
    O(n^2 log n) in all.  The first v with the longest run wins.  The j
    are read off the endpoint table rep.at between l_v and r_v; a j seen
    there at its right endpoint ends before r_v, and the filter drops it.
    """
    at, right = rep.at, rep.right
    best = ()
    for v in rep.vertices:
        members = [j for j in at[rep.left[v]:right[v]] if right[j] >= right[v]]
        if len(members) > len(best):
            run = rising_run([right[j] for j in members])
            if len(run) > len(best):
                best = tuple(members[p] for p in run)
    return best


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


# search nodes per vertex that color_within may spend
SEARCH_NODES_PER_VERTEX = 4


def color_within(rep: IntervalRep, colors: int) -> dict | None:
    """A proper coloring with at most `colors` colors, as {vertex: color}
    with the colors 1, 2, ... in order of first use; None when there is
    none, or when the search has given SEARCH_NODES_PER_VERTEX * n colors
    without finding one.

    Exact DSatur backtracking (Brélaz, "New methods to color the vertices
    of a graph", CACM 22(4), 1979).  The next vertex is an uncolored one
    with the most distinct colors among its neighbours, ties to the higher
    degree and then the smaller vertex.  It takes each color free at it in
    turn, lowest first, but at most one that no vertex has yet; giving a
    color is one search node, and a vertex with no color left sends the
    search back to the last one given.  The adjacency is overlap_lists.
    """
    adj = overlap_lists(rep)
    order = sorted(rep.vertices, key=lambda v: -len(adj[v]))  # stable, so smaller first on ties
    seen = [[0] * (colors + 1) for _ in range(rep.n + 1)]  # seen[v][c]: neighbours of v colored c
    # distinct colors among the neighbours, less n + 1 while colored, so
    # that the pick passes over the colored vertices
    saturation = [0] * (rep.n + 1)
    trail = []  # (vertex, color, colors in use before it), in the order given
    budget = SEARCH_NODES_PER_VERTEX * rep.n
    v, c, used = order[0], 0, 0
    while True:
        top = min(used + 1, colors)
        c += 1
        while c <= top and seen[v][c]:
            c += 1
        if c > top:  # nothing left for v: take back the last color given
            if not trail:
                return None
            v, c, used = trail.pop()
            saturation[v] += rep.n + 1
            for u in adj[v]:
                seen[u][c] -= 1
                saturation[u] -= not seen[u][c]
            continue
        if not budget:
            return None
        budget -= 1
        saturation[v] -= rep.n + 1
        for u in adj[v]:
            saturation[u] += not seen[u][c]
            seen[u][c] += 1
        trail.append((v, c, used))
        if len(trail) == rep.n:
            return {v: c for v, c, _ in trail}
        used = max(used, c)
        v, c = max(order, key=saturation.__getitem__), 0
