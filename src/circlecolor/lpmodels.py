"""Solver-independent sparse LP/IP models and the formulation builders.

Builders cover the arborescence coloring program (CG), the chain LP and
its dual (LC/DLC), the flat independent-set dual program (ISD), the
fractional coloring program (FCP), the classical and representative
baseline colorings (CL, AS), and the layered stack program (CG_H, built in
the stowage module on top of this one).  Models can be written as LP text
or fixed MPS and re-read (our own dialect only).

An LpModel is arrays, and the simplex and both writers read them as they
are:

- variables: `var_names`, with `lower`, `upper`, `kind` (an index into
  KINDS) and `cost` (its objective coefficient) per variable;
- rows: `row_names`, with `rel` (RELATION: 1 for '<=', -1 for '>=', 0 for
  '='), `rhs` and the `implied` mask per row;
- coefficients: COO triples `row`, `var`, `val`, stored row by row, rows
  ascending, each row's entries in the order they were added.

Every builder and both parsers write whole blocks: `add_vars` and
`add_rows` extend the arrays in place, taking bounds, kinds, costs,
relations and right-hand sides as one value for the block or one per
item.  Each refuses a duplicate name, and a cost, coefficient or
right-hand side that is NaN or infinite, as add_vars refuses a bad bound,
and leaves the model as it was.  CG, CG_H and LC number their rows with
`_sweep_rows`; DLC, ISD and FCP are its transpose, a charge per (child
set, sweep row) pair and a cover row per arc.  `add_var` and
`add_constraint` add one item for hand-built models; each copies the
arrays, so a large model must be built in blocks.
`variables` and `constraints` are read-only views built from the arrays
on demand.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from itertools import chain
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import InstanceFormatError, VertexNotBranchingError
from .intervals import (
    ROOT,
    CircleGraph,
    CliqueMatrix,
    ContainmentDag,
    IntervalRep,
)

INF = math.inf

CONTINUOUS = "continuous"
BINARY = "binary"
INTEGER = "integer"
KINDS = (CONTINUOUS, BINARY, INTEGER)
_KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}

# relation codes; the simplex also takes each as the sign of the row's slack
RELATION = {"<=": 1, ">=": -1, "=": 0}
_RELATION_OF = {code: rel for rel, code in RELATION.items()}


class Variable(NamedTuple):
    name: str
    lower: float = 0.0
    upper: float = INF
    kind: str = CONTINUOUS


class Constraint(NamedTuple):
    name: str
    coeffs: MappingProxyType  # var name -> coefficient, in entry order
    relation: str  # '<=', '=', '>='
    rhs: float


class _View(Sequence):
    """Records built from a model's arrays: the count is known up front,
    and the records are built on the first read of one."""

    def __init__(self, count: int, build):
        self._count = count
        self._build = build
        self._items = None

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, k):
        if self._items is None:
            self._items = self._build()
        return self._items[k]

    def __iter__(self):
        return iter(self[:])


class LpModel:
    """A linear or integer program stored as arrays (module docstring).
    __slots__ fixes its attributes: assigning any other raises
    AttributeError."""

    __slots__ = ("name", "sense", "metadata", "var_names", "row_names", "_index", "lower",
                 "upper", "kind", "cost", "rel", "rhs", "implied", "row", "var", "val")

    def __init__(self, name: str, sense: str):
        self.name = name
        self.sense = sense  # 'min' | 'max'
        self.metadata = {}
        self.var_names = []
        self.row_names = []
        self._index = {}  # var name -> index
        # per variable: its lower and upper bounds, its kind (an index into
        # KINDS) and its objective coefficient
        self.lower, self.upper, self.kind = np.empty(0), np.empty(0), np.empty(0, np.int8)
        self.cost = np.empty(0)
        # per row: its relation code (RELATION), right-hand side, and whether
        # the other rows and the variable bounds imply it; the simplex leaves
        # implied rows out of its tableau, and every writer and certificate
        # check still sees them
        self.rel, self.rhs, self.implied = np.empty(0, np.int64), np.empty(0), np.empty(0, bool)
        # per entry: its row, its variable and its coefficient
        self.row, self.var, self.val = np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)

    def add_var(self, name, lower=0.0, upper=INF, kind=CONTINUOUS, cost=0.0) -> str:
        """Add one variable (add_vars); this copies the arrays."""
        self.add_vars([name], lower, upper, kind, cost)
        return name

    def add_vars(self, names: list, lower=0.0, upper=INF, kind=CONTINUOUS, cost=0.0) -> None:
        """Add the named variables.  lower, upper, kind and cost are each
        one value for all of them or one per variable.  A duplicate name, a
        binary with bounds outside [0, 1], a NaN bound, a lower bound of
        +inf or an upper bound of -inf, or a cost that is NaN or infinite,
        raises ValueError naming the first such variable, and the model is
        left as it was."""
        lower, upper, code, cost, refused = self._vet(names, lower, upper, kind, cost)
        if refused:
            raise ValueError(refused[1])
        self._index.update({name: k for k, name in enumerate(names, len(self.var_names))})
        self.var_names += names
        self.lower = np.concatenate([self.lower, lower])
        self.upper = np.concatenate([self.upper, upper])
        self.kind = np.concatenate([self.kind, code])
        self.cost = np.concatenate([self.cost, cost])

    def _vet(self, names, lower, upper, kind, cost) -> tuple:
        """add_vars' arguments as one array each for lower, upper, the kind
        codes and cost, and (k, reason) for the first variable it refuses,
        or None."""
        count = len(names)
        lower, upper, cost = (np.full(count, x, float) for x in (lower, upper, cost))
        kinds = [kind] if isinstance(kind, str) else kind
        if not set(kinds) <= _KIND_CODE.keys():
            raise ValueError(f"bad kind {next(k for k in kinds if k not in _KIND_CODE)}")
        code = np.full(count, [_KIND_CODE[k] for k in kinds], np.int8)
        # so that a model and its relaxation have the same bounds
        binary = (code == _KIND_CODE[BINARY]) & ((lower < 0.0) | (upper > 1.0))
        # and no bound is NaN, no lower bound +inf and no upper bound -inf
        bounds = binary | ~((lower < INF) & (upper > -INF))
        refused = bounds | ~np.isfinite(cost)
        vetted = lower, upper, code, cost
        if not refused.any() and len(set(names)) == count and self._index.keys().isdisjoint(names):
            return *vetted, None
        seen = set()  # the loop finds the first variable refused
        for k, name in enumerate(names):
            if name in self._index or name in seen:
                return *vetted, (k, f"duplicate variable {name}")
            if bounds[k]:
                return *vetted, (k, f"{KINDS[code[k]]} {name} has bounds [{lower[k]}, "
                                 f"{upper[k]}]{' outside [0, 1]' if binary[k] else ''}")
            if refused[k]:
                return *vetted, (k, f"{KINDS[code[k]]} {name} has cost {cost[k]}")
            seen.add(name)
        return *vetted, None

    def add_constraint(self, name, coeffs, relation, rhs, implied=False) -> None:
        """Add one row (add_rows) from a dict var name -> coefficient; this
        copies the arrays."""
        if relation not in RELATION:
            raise ValueError(f"bad relation {relation}")
        for var in coeffs:
            if var not in self._index:
                raise ValueError(f"constraint {name} references unknown variable {var}")
        self.add_rows([name], RELATION[relation], rhs, implied, np.zeros(len(coeffs), np.int64),
                      [self._index[var] for var in coeffs], list(coeffs.values()))

    def add_rows(self, names: list, rel, rhs, implied, row, var, val) -> None:
        """Add a block of rows: per row its name, and its relation code,
        right-hand side and implied mark, each one value for all of the
        rows or one per row; and their entries (row within the block,
        variable index, coefficient) in any row order.  A row's entries
        keep the order they are given in.  A coefficient or right-hand side
        that is NaN or infinite, or a name the model or the block already
        has, raises ValueError naming the first row that has one, and the
        model is left as it was."""
        count = len(names)
        row, val = np.asarray(row, np.int64), np.asarray(val, float)
        if not (np.isfinite(val).all() and np.isfinite(rhs).all()):
            bad = np.append(row[~np.isfinite(val)], np.flatnonzero(~np.isfinite(rhs)))
            raise ValueError(f"row {names[bad.min()]} has a value that is not finite")
        known = set(self.row_names)
        if len(known.union(names)) < len(known) + count:
            first = next(r for k, r in enumerate(names) if r in known or r in names[:k])
            raise ValueError(f"duplicate row {first}")
        order = np.argsort(row, kind="stable")
        self.row = np.concatenate([self.row, row[order] + len(self.row_names)])
        self.var = np.concatenate([self.var, np.asarray(var, np.int64)[order]])
        self.val = np.concatenate([self.val, val[order]])
        self.row_names += names
        self.rel = _grow(self.rel, rel, count)
        self.rhs = _grow(self.rhs, rhs, count)
        self.implied = _grow(self.implied, implied, count)

    @property
    def variables(self) -> "_View":
        """The variables as read-only records."""
        def build():
            return tuple(map(Variable, self.var_names, self.lower.tolist(), self.upper.tolist(),
                             map(KINDS.__getitem__, self.kind.tolist())))

        return _View(len(self.var_names), build)

    @property
    def constraints(self) -> "_View":
        """The rows as read-only records."""
        def build():
            ends = np.searchsorted(self.row, np.arange(1, len(self.row_names) + 1)).tolist()
            names = map(self.var_names.__getitem__, self.var.tolist())
            pairs = list(zip(names, self.val.tolist()))
            coeffs = (MappingProxyType(dict(pairs[start:end])) for start, end in zip([0] + ends, ends))
            return tuple(map(Constraint, self.row_names, coeffs,
                             map(_RELATION_OF.__getitem__, self.rel.tolist()), self.rhs.tolist()))

        return _View(len(self.row_names), build)

    def relaxed(self) -> "LpModel":
        """Continuous relaxation: every variable keeps its bounds (a
        binary's lie in [0, 1]) and loses integrality; metadata["relaxed"]
        is True."""
        out = LpModel(self.name, self.sense)
        out.metadata = dict(self.metadata, relaxed=True)
        out.var_names, out.row_names = list(self.var_names), list(self.row_names)
        out._index = dict(self._index)
        for name in ("lower", "upper", "cost", "rel", "rhs", "implied", "row", "var", "val"):
            setattr(out, name, getattr(self, name).copy())
        out.kind = np.full_like(self.kind, _KIND_CODE[CONTINUOUS])
        return out

    @property
    def integral_objective(self) -> bool:
        """Whether every variable with a nonzero cost is binary or integer
        and its cost is integral: then every integer point has an integral
        objective, so a branch-and-bound may round its LP bounds up."""
        costed = self.cost != 0.0
        return bool(self.kind[costed].all() and (self.cost[costed] % 1.0 == 0.0).all())


def _grow(have, add, count: int):
    """have, then add (one value for all count items, or one per item) in
    have's dtype."""
    return np.concatenate([have, np.full(count, add, have.dtype)])


# ---------------------------------------------------------------------------
# helpers

def arc_var(i: int, j: int) -> str:
    return f"x_{i}_{j}"


def _ranges(first, count):
    """The integers first[k] .. first[k] + count[k] - 1 for every k, in
    that order, and the k of each."""
    owner = np.repeat(np.arange(len(count)), count)
    return np.repeat(first - (np.cumsum(count) - count), count) + np.arange(len(owner)), owner


def _sweep_rows(matrix: CliqueMatrix, group, head):
    """The sweep rows of child sets given by their arcs: arc a lies in set
    group[a] (an int >= 0) and covers the rows of its head vertex head[a]
    (matrix.rows).  Returns (key, row, arc, implied):

    - key: group * len(matrix.points) + sweep row of each distinct (set,
      row) pair, ascending;
    - row, arc: for each (arc, covered row) pair, arc by arc and rows
      ascending, the index of its key and its arc;
    - implied: per key, whether its arcs lie inside a kept row's of the
      same set, so that with the arcs >= 0 a bound on that row's sum
      bounds this one's too.

    The ranges are intervals, so a row is kept iff some range ends there
    and the last range start in its set comes after the set's previous end
    row; the kept rows are the distinct maximal sets, at most one per range
    (Fulkerson & Gross, "Incidence matrices and interval graphs", Pacific
    J. Math. 15, 1965).  A row where no range ends lies inside the next
    row, and one where nothing started since the previous end row lies
    inside that row.  A set's first row is a range start, so the running
    maxima below never carry a decision over from the previous set."""
    span = np.array([(r.start, r.stop) for r in matrix.rows], dtype=np.int64)[head]
    first = np.asarray(group, dtype=np.int64) * len(matrix.points) + span[:, 0]
    count = span[:, 1] - span[:, 0]
    flat, arc = _ranges(first, count)
    key, row = np.unique(flat, return_inverse=True)
    start = np.full(len(key), -1)
    end = np.full(len(key), -1)
    at = np.searchsorted(key, first)
    start[at] = at
    at = np.searchsorted(key, first + count - 1)
    end[at] = at
    end_before = np.concatenate(([-1], np.maximum.accumulate(end)[:-1]))
    implied = (end < 0) | (np.maximum.accumulate(start) <= end_before)
    return key, row, arc, implied


def _point_names(matrix: CliqueMatrix, key, label) -> list:
    """The name of each sweep row key (from _sweep_rows): label[group],
    then p and the row's sweep point."""
    groups, rows = np.divmod(key, len(matrix.points))
    points = [f"p{p}" for p in matrix.points]
    return [label[g] + points[r] for g, r in zip(groups.tolist(), rows.tolist())]


def _dag_arcs(dag: ContainmentDag) -> tuple:
    """The containment arcs (tail, head), tail by tail, each tail's heads
    in child order."""
    tail = np.repeat(np.arange(dag.n + 1), [len(kids) for kids in dag.children])
    return tail, np.fromiter(chain.from_iterable(dag.children), np.int64, len(tail))


def _add_arborescence(model: LpModel, matrix: CliqueMatrix, arcs, sweep, label,
                      chain_rhs: float, entry: str, extra=()) -> None:
    """The part CG and CG_H share.  model.metadata["arcs"] names the arcs
    in variable order, arcs holds them as rows (tail, ..., head), and
    sweep is _sweep_rows of their child sets (0 for the root's) and heads.
    Adds a binary per arc, the integer c with cost 1, and three blocks of
    rows:

    - root_p<point>: the root's arcs covering a sweep point sum to <= c.
      The root's set covers every sweep point, so these rows come first,
      one per point;
    - <label[g]>p<point>: the arcs of set g covering a sweep point, plus
      the extra (sweep row, variable, coefficient) entries when given, sum
      to <= chain_rhs;
    - <entry>_<j>: vertex j enters by exactly one arc; a row lists its
      arcs by their second field, then in variable order."""
    names = list(model.metadata["arcs"])
    model.add_vars(names + ["c"], 0.0, np.append(np.ones(len(names)), INF),
                   [BINARY] * len(names) + [INTEGER], np.append(np.zeros(len(names)), 1.0))
    head = arcs[:, -1]
    key, row, arc, implied = sweep
    groups = key // len(matrix.points)
    n_root, n_sweep, n = int(np.count_nonzero(groups == 0)), len(key), model.metadata["n"]
    rows = [row, np.arange(n_root)]
    cols = [arc, np.full(n_root, len(names))]
    vals = [np.ones(len(row)), np.full(n_root, -1.0)]
    for part, add in zip((rows, cols, vals), extra):
        part.append(add)
    by_entry = np.argsort(arcs[:, 1], kind="stable")
    rows.append(n_sweep + head[by_entry] - 1)
    cols.append(by_entry)
    vals.append(np.ones(len(names)))
    model.add_rows(
        _point_names(matrix, key, label) + [f"{entry}_{j}" for j in range(1, n + 1)],
        np.repeat([RELATION["<="], RELATION["="]], [n_sweep, n]),
        np.concatenate([np.where(groups == 0, 0.0, chain_rhs), np.ones(n)]),
        np.concatenate([implied, np.zeros(n, dtype=bool)]),
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))


# ---------------------------------------------------------------------------
# CG: the arborescence coloring program

def build_cg(rep: IntervalRep, dag: ContainmentDag, matrix: CliqueMatrix) -> LpModel:
    """min c subject to: the root child set has antichains of size <= c,
    each inner child set has antichains of size <= 1 (a chain), and every
    vertex picks exactly one parent arc.
    """
    model = LpModel(name="CG", sense="min")
    tail, head = _dag_arcs(dag)
    arcs = np.column_stack((tail, head))
    pairs = arcs.tolist()
    model.metadata = {"formulation": "CG", "relaxed": False,
                      "arcs": dict(zip([arc_var(i, j) for i, j in pairs], pairs)), "n": rep.n}
    label = ["root_"] + [f"chain_{i}_" for i in rep.vertices]
    _add_arborescence(model, matrix, arcs, _sweep_rows(matrix, tail, head), label, 1.0,
                      "parent")
    return model


# ---------------------------------------------------------------------------
# LC_i and its dual DLC_i

def _branching_or_root(i, dag):
    if i != ROOT and i not in dag.branching:
        raise VertexNotBranchingError(f"vertex {i} contains no interval")


def build_lc(i: int, rep: IntervalRep, dag: ContainmentDag, matrix: CliqueMatrix,
             values) -> LpModel:
    """max sum of values over a fractional chain inside the child set of i."""
    _branching_or_root(i, dag)
    kids = dag.children[i]
    model = LpModel(name=f"LC_{i}", sense="max")
    names = [arc_var(i, j) for j in kids]
    model.add_vars(names, 0.0, INF, CONTINUOUS, [float(values[j]) for j in kids])
    key, row, arc, implied = _sweep_rows(matrix, 0, list(kids))
    model.add_rows(_point_names(matrix, key, [""]), RELATION["<="], 1.0, implied,
                   row, arc, np.ones(len(row)))
    model.metadata = {"formulation": "LC", "vertex": i}
    return model


def build_dlc(i: int, rep: IntervalRep, dag: ContainmentDag, matrix: CliqueMatrix,
              values) -> LpModel:
    """The dual: cover each child's value by sweep-point charges, a charge
    y_i_p >= 0 for each LC row and a cover row for each LC column."""
    _branching_or_root(i, dag)
    kids = dag.children[i]
    model = LpModel(name=f"DLC_{i}", sense="min")
    key, row, arc, _ = _sweep_rows(matrix, 0, list(kids))
    model.add_vars(_point_names(matrix, key, [f"y_{i}_"]), 0.0, INF, CONTINUOUS, 1.0)
    model.add_rows([f"cover_{j}" for j in kids], RELATION[">="], [float(values[j]) for j in kids],
                   False, arc, row, np.ones(len(row)))
    model.metadata = {"formulation": "DLC", "vertex": i}
    return model


def _charge_program(name: str, sense: str, rep: IntervalRep, dag: ContainmentDag,
                    matrix: CliqueMatrix):
    """The part ISD and FCP share, DLC_i for every i in V*-or-root at once:
    charges y_{i,p} >= 0 at the sweep rows touching the child set of i
    (structurally useless columns are dropped), i ascending, then a free
    label ell_i per vertex, all with cost 0, and a cover row per
    containment arc i -> j (the charges of i at the rows of j cover ell_j).

    Returns (model, owner, covers): owner[k] is the vertex whose charge
    variable k is (ell_i is variable len(owner) + i - 1), and covers holds
    the cover rows' (names, row, var, val) for add_rows, which the caller
    adds after its own rows."""
    model = LpModel(name=name, sense=sense)
    tail, head = _dag_arcs(dag)
    key, row, arc, _ = _sweep_rows(matrix, tail, head)
    n_charges, n = len(key), rep.n
    model.add_vars(_point_names(matrix, key, [f"y_{i}_" for i in range(n + 1)])
                   + [f"ell_{i}" for i in rep.vertices],
                   np.repeat([0.0, -INF], [n_charges, n]), INF, CONTINUOUS)
    covers = ([f"cover_{i}_{j}" for i, j in zip(tail.tolist(), head.tolist())],
              np.concatenate([arc, np.arange(len(head))]),
              np.concatenate([row, n_charges + head - 1]),
              np.concatenate([np.ones(len(row)), np.full(len(head), -1.0)]))
    return model, key // len(matrix.points), covers


# ---------------------------------------------------------------------------
# ISD: one flat LP equal to the max-weight independent set value

def build_isd(rep: IntervalRep, dag: ContainmentDag, matrix: CliqueMatrix,
              weights) -> LpModel:
    """min ell_0 = sum of root charges, with per-vertex label equations and
    a cover row per containment arc."""
    model, owner, (names, row, var, val) = _charge_program("ISD", "min", rep, dag, matrix)
    n = rep.n
    model.cost[:np.count_nonzero(owner == 0)] = 1.0
    # label_i: ell_i minus the charges of i
    inner = np.flatnonzero(owner)
    model.add_rows([f"label_{i}" for i in rep.vertices] + names,
                   np.repeat([RELATION["="], RELATION[">="]], [n, len(names)]),
                   [float(weights[i]) for i in rep.vertices] + [0.0] * len(names), False,
                   np.concatenate([np.arange(n), owner[inner] - 1, n + row]),
                   np.concatenate([len(owner) + np.arange(n), inner, var]),
                   np.concatenate([np.ones(n), np.full(len(inner), -1.0), val]))
    model.metadata = {"formulation": "ISD"}
    return model


# ---------------------------------------------------------------------------
# FCP: fractional coloring

def build_fcp(rep: IntervalRep, dag: ContainmentDag, matrix: CliqueMatrix) -> LpModel:
    """max sum of labels minus inner charges, subject to a unit budget on
    root charges and the same cover rows as ISD."""
    model, owner, (names, row, var, val) = _charge_program("FCP", "max", rep, dag, matrix)
    n_root = int(np.count_nonzero(owner == 0))
    model.cost[n_root:len(owner)] = -1.0
    model.cost[len(owner):] = 1.0
    model.add_rows(["budget"] + names, np.repeat([RELATION["<="], RELATION[">="]], [1, len(names)]),
                   np.repeat([1.0, 0.0], [1, len(names)]), False,
                   np.concatenate([np.zeros(n_root, np.int64), 1 + row]),
                   np.concatenate([np.arange(n_root), var]),
                   np.concatenate([np.ones(n_root), val]))
    model.metadata = {"formulation": "FCP"}
    return model


# ---------------------------------------------------------------------------
# baselines: CL and AS

def build_cl(graph: CircleGraph, num_colors: int) -> LpModel:
    """The classical assignment program with num_colors color slots:
    x_i_c (vertex i takes color c) is variable (i - 1) * num_colors + c - 1,
    and y_c (color c is open) follows them."""
    model = LpModel(name="CL", sense="min")
    n, colors = graph.n, range(1, num_colors + 1)
    x = np.arange(n * num_colors).reshape(n, num_colors)
    y = n * num_colors + np.arange(num_colors)
    model.add_vars([f"x_{i}_{c}" for i in graph.vertices for c in colors]
                   + [f"y_{c}" for c in colors], 0.0, 1.0, BINARY,
                   np.repeat([0.0, 1.0], [x.size, num_colors]))
    edges = graph.edges()
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2) - 1
    n_open, n_edge = x.size, num_colors * len(edges)
    # open_i_c: x_i_c - y_c <= 0; edge_i_j_c: x_i_c + x_j_c <= 1 (c by c);
    # assign_i: the x_i_c sum to >= 1
    model.add_rows(
        [f"open_{i}_{c}" for i in graph.vertices for c in colors]
        + [f"edge_{i}_{j}_{c}" for c in colors for i, j in edges]
        + [f"assign_{i}" for i in graph.vertices],
        np.repeat([RELATION["<="], RELATION["<="], RELATION[">="]], [n_open, n_edge, n]),
        np.repeat([0.0, 1.0, 1.0], [n_open, n_edge, n]), False,
        np.concatenate([np.tile(np.arange(n_open), 2), np.tile(n_open + np.arange(n_edge), 2),
                        np.repeat(n_open + n_edge + np.arange(n), num_colors)]),
        np.concatenate([x.ravel(), np.tile(y, n), x[ends[:, 0]].T.ravel(), x[ends[:, 1]].T.ravel(),
                        x.ravel()]),
        np.concatenate([np.ones(n_open), np.full(n_open, -1.0), np.ones(2 * n_edge + n_open)]))
    model.metadata = {"formulation": "CL", "num_colors": num_colors}
    return model


def build_as(graph: CircleGraph) -> LpModel:
    """The asymmetric representative program.

    Vertices are re-sorted by non-increasing degree (ties by original
    index); x_{i}_{j} means reordered vertex i represents reordered vertex
    j, and is variable (i - 1) * n + j - 1.  Structurally-zero variables
    are pinned by [0, 0] bounds.
    """
    order = sorted(graph.vertices, key=lambda v: (-len(graph.adj[v]), v))
    pos = {v: k + 1 for k, v in enumerate(order)}  # original -> reordered index
    n = graph.n
    edges = list({(min(pos[i], pos[j]), max(pos[i], pos[j])) for i, j in graph.edges()})
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2) - 1
    model = LpModel(name="AS", sense="min")
    vertices = range(1, n + 1)
    x = np.arange(n * n).reshape(n, n)
    zero = np.tri(n, k=-1, dtype=bool)
    zero[ends[:, 0], ends[:, 1]] = True
    model.add_vars([f"x_{i}_{j}" for i in vertices for j in vertices], 0.0,
                   np.where(zero, 0.0, 1.0).ravel(), BINARY, np.eye(n).ravel())
    # conflict_i_j_k: x_i_j + x_i_k - x_i_i <= 0 for each edge (j, k) away
    # from i; rep_j: the x_i_j sum to 1; dom_i_j: x_i_j - x_i_i <= 0
    i, e = np.nonzero((ends[:, 0] != np.arange(n)[:, None]) & (ends[:, 1] != np.arange(n)[:, None]))
    di, dj = np.nonzero(~np.eye(n, dtype=bool))
    n_conflict, n_dom = len(i), len(di)
    model.add_rows(
        [f"conflict_{a + 1}_{edges[b][0]}_{edges[b][1]}" for a, b in zip(i.tolist(), e.tolist())]
        + [f"rep_{j}" for j in vertices]
        + [f"dom_{a + 1}_{b + 1}" for a, b in zip(di.tolist(), dj.tolist())],
        np.repeat([RELATION["<="], RELATION["="], RELATION["<="]], [n_conflict, n, n_dom]),
        np.repeat([0.0, 1.0, 0.0], [n_conflict, n, n_dom]), False,
        np.concatenate([np.tile(np.arange(n_conflict), 3), np.repeat(n_conflict + np.arange(n), n),
                        np.tile(n_conflict + n + np.arange(n_dom), 2)]),
        np.concatenate([x[i, ends[e, 0]], x[i, ends[e, 1]], x[i, i], x.T.ravel(), x[di, dj],
                        x[di, di]]),
        np.concatenate([np.ones(2 * n_conflict), np.full(n_conflict, -1.0), np.ones(n * n + n_dom),
                        np.full(n_dom, -1.0)]))
    model.metadata = {"formulation": "AS", "order": {str(v): pos[v] for v in graph.vertices}}
    return model


# ---------------------------------------------------------------------------
# export / import

def _num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def write_lp_text(model: LpModel) -> str:
    """LP text format (CPLEX-like dialect; round-trips via parse_lp_text).
    An empty sum is written as 0 times the first variable, so a model
    with no variable raises ValueError."""
    names = model.var_names
    if not names:
        raise ValueError(f"model {model.name} has no variable, and LP text needs one")
    lines = ["\\ " + model.name]
    lines.append("Minimize" if model.sense == "min" else "Maximize")
    costed = np.flatnonzero(model.cost)
    terms = [_term(coef, names[k], first=not t)
             for t, (k, coef) in enumerate(zip(costed.tolist(), model.cost[costed].tolist()))]
    lines.append(" obj: " + " ".join(terms or ["0 " + names[0]]))
    lines.append("Subject To")
    for con, rel, rhs, entries in zip(model.row_names, model.rel.tolist(), model.rhs.tolist(),
                                      _nonzeros(model, by_var=False)):
        terms = [_term(coef, names[k], first=not t) for t, (k, coef) in enumerate(entries)]
        lines.append(f" {con}: " + " ".join(terms or ["0 " + names[0]])
                     + f" {_RELATION_OF[rel]} {_num(rhs)}")
    lines.append("Bounds")
    for name, lo, hi in zip(names, model.lower.tolist(), model.upper.tolist()):
        lines.append(f" {'-inf' if lo == -INF else _num(lo)} <= {name} <= "
                     f"{'+inf' if hi == INF else _num(hi)}")
    for section, kind in (("General", INTEGER), ("Binary", BINARY)):
        if (which := np.flatnonzero(model.kind == _KIND_CODE[kind])).size:
            lines += [section, " " + " ".join(map(names.__getitem__, which.tolist()))]
    lines.append("End")
    return "\n".join(lines) + "\n"


def _nonzeros(model: LpModel, by_var: bool) -> list:
    """The nonzero entries as (index, coefficient) lists: per row in
    variable order (CSR), or per variable in row order (a stable sort of
    the row-ordered entries by variable)."""
    row, var, val = model.row, model.var, model.val
    nonzero = val != 0.0
    row, var, val = row[nonzero], var[nonzero], val[nonzero]
    if by_var:
        order = np.argsort(var, kind="stable")
        major, minor, count = var[order], row[order], len(model.var_names)
    else:
        order = np.lexsort((var, row))
        major, minor, count = row[order], var[order], len(model.row_names)
    ends = np.searchsorted(major, np.arange(1, count + 1)).tolist()
    pairs = list(zip(minor.tolist(), val[order].tolist()))
    return [pairs[start:end] for start, end in zip([0] + ends, ends)]


def _term(coef: float, name: str, first: bool) -> str:
    mag = abs(coef)
    body = name if mag == 1.0 else f"{_num(mag)} {name}"
    if first:
        return f"- {body}" if coef < 0 else body
    return ("- " if coef < 0 else "+ ") + body


# the kind of line each LP section holds; End holds none
_LP_SECTIONS = {"subject to": "constraint", "bounds": "bounds", "general": "general",
                "binary": "binary", "end": None}


def parse_lp_text(text: str) -> LpModel:
    """Parse our own LP dialect back into a model.  A line it cannot read,
    one naming a variable the Bounds section does not declare (in the
    objective, a constraint, General or Binary), a constraint named
    twice, or one with a number add_vars or add_rows refuses (NaN, or
    infinite anywhere but on the open side of a bound) raises
    InstanceFormatError naming that line."""
    lines = [ln.rstrip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.lstrip().startswith("\\")]
    if not lines:
        raise InstanceFormatError("empty LP file")
    sense = lines[0].strip().lower()[:3]
    if sense not in ("min", "max"):
        raise InstanceFormatError(f"bad sense line: {lines[0]!r}")
    if len(lines) < 2:
        raise InstanceFormatError(f"no objective line after {lines[0]!r}")
    try:
        _, expr = lines[1].split(":", 1)
        objective = _parse_expr(expr)
    except ValueError:
        raise InstanceFormatError(f"bad objective line: {lines[1]!r}") from None
    what = None  # the kind of line the section holds; None outside one
    bounds = []
    constraints = []
    generals, binaries = {}, {}  # name -> the last line that lists it
    for ln in lines[2:]:
        stripped = ln.strip()
        if stripped.lower() in _LP_SECTIONS:
            what = _LP_SECTIONS[stripped.lower()]
            continue
        try:
            if what == "constraint":
                name, rest = stripped.split(":", 1)
                rel = next(rel for rel in ("<=", ">=", "=") if f" {rel} " in rest)
                left, right = rest.rsplit(f" {rel} ", 1)
                constraints.append((ln, name.strip(), _parse_expr(left), rel, _finite(right)))
            elif what == "bounds":
                lo, le, name, le_too, hi = stripped.split()
                if le != "<=" or le_too != "<=":
                    raise ValueError
                bounds.append((ln, name, float(lo), float(hi)))
            elif what == "general":
                generals.update(dict.fromkeys(stripped.split(), ln))
            elif what == "binary":
                binaries.update(dict.fromkeys(stripped.split(), ln))
            else:  # before Subject To or after End
                raise ValueError
        except (ValueError, StopIteration):
            raise InstanceFormatError(f"bad {what or 'LP'} line: {ln!r}") from None
    model = LpModel(name="parsed", sense=sense)
    names = [name for _, name, _, _ in bounds]
    kinds = [INTEGER if name in generals else BINARY if name in binaries else CONTINUOUS
             for name in names]
    cost = [objective.pop(name, 0.0) for name in names]
    lower, upper, _, cost, refused = model._vet(names, [b[2] for b in bounds],
                                                [b[3] for b in bounds], kinds, cost)
    if refused:
        raise InstanceFormatError(f"bad bounds line: {bounds[refused[0]][0]!r} ({refused[1]})")
    if objective:
        raise InstanceFormatError(f"bad objective line: {lines[1]!r} (an undeclared variable)")
    model.add_vars(names, lower, upper, kinds, cost)
    index = model._index
    for what, listed in (("general", generals), ("binary", binaries)):
        for name, ln in listed.items():
            if name not in index:
                raise InstanceFormatError(f"bad {what} line: {ln!r} (an undeclared variable {name})")
    row, var, val = [], [], []
    seen = set()
    for r, (ln, name, coeffs, _, _) in enumerate(constraints):
        coeffs = {k: v for k, v in coeffs.items() if v != 0.0}
        unknown = [k for k in coeffs if k not in index]
        if unknown or name in seen:
            reason = f"references unknown variable {unknown[0]}" if unknown else "is a duplicate"
            raise InstanceFormatError(f"bad constraint line: {ln!r} (constraint {name} {reason})")
        seen.add(name)
        row += [r] * len(coeffs)
        var += map(index.__getitem__, coeffs)
        val += coeffs.values()
    model.add_rows([c[1] for c in constraints], [RELATION[c[3]] for c in constraints],
                   [c[4] for c in constraints], False, row, var, val)
    return model


def _parse_expr(expr: str) -> dict:
    """The coefficient of each name in a sum of terms; a number with no
    name after it, or a number or sum that is not finite, raises
    ValueError."""
    tokens = expr.split()
    coeffs = {}
    sign = 1.0
    pending = None
    for tok in tokens:
        if tok == "+":
            sign = 1.0
        elif tok == "-":
            sign = -1.0
        else:
            try:
                value = float(tok)
            except ValueError:
                coef = sign * (pending if pending is not None else 1.0)
                coeffs[tok] = _finite(coeffs.get(tok, 0.0) + coef)
                sign, pending = 1.0, None
                continue
            pending = _finite(value)
    if pending is not None:
        raise ValueError(f"{pending} has no variable")
    return coeffs


def _finite(text) -> float:
    """float(text), refusing NaN and infinity with ValueError."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text} is not finite")
    return value


def write_mps(model: LpModel) -> str:
    """Fixed MPS.  Integrality is flagged with MARKER lines.  The
    objective's N row is OBJ, or OBJ with underscores added when a row has
    that name."""
    rows = model.row_names
    objective, taken = "OBJ", set(rows)
    while objective in taken:
        objective += "_"
    out = []
    out.append(f"NAME          {model.name}")
    out.append("ROWS")
    out.append(f" N  {objective}")
    rel_code = {code: letter for letter, code in _MPS_RELATION.items()}
    for name, rel in zip(rows, model.rel.tolist()):
        out.append(f" {rel_code[rel]}  {name}")
    out.append("COLUMNS")
    marker_on = False
    marker_idx = 0

    def fmt(col, row, val):
        return f"    {col:<12} {row:<12} {_num(val)}"

    for name, is_int, obj, column in zip(model.var_names, (model.kind != 0).tolist(),
                                         model.cost.tolist(), _nonzeros(model, by_var=True)):
        if is_int != marker_on:
            kind = "'INTORG'" if is_int else "'INTEND'"
            out.append(f"    MARKER{marker_idx:<7} {'MARKER':<12} {kind}")
            marker_on = is_int
            marker_idx += 1
        if obj != 0.0 or not column:  # a column with no entry keeps one, so it is read back
            out.append(fmt(name, objective, obj))
        out.extend(fmt(name, rows[r], val) for r, val in column)
    if marker_on:
        out.append(f"    MARKER{marker_idx:<7} {'MARKER':<12} 'INTEND'")
    out.append("RHS")
    for name, rhs in zip(rows, model.rhs.tolist()):
        if rhs != 0.0:
            out.append(fmt("RHS", name, rhs))
    out.append("BOUNDS")
    for name, lo, hi in zip(model.var_names, model.lower.tolist(), model.upper.tolist()):
        if lo == -INF and hi == INF:
            out.append(f" FR BND       {name}")
            continue
        if lo == hi:
            out.append(f" FX BND       {name:<12} {_num(lo)}")
            continue
        if lo != 0.0:
            if lo == -INF:
                out.append(f" MI BND       {name}")
            else:
                out.append(f" LO BND       {name:<12} {_num(lo)}")
        if hi != INF:
            out.append(f" UP BND       {name:<12} {_num(hi)}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"


_MPS_RELATION = {"L": RELATION["<="], "G": RELATION[">="], "E": RELATION["="]}


def parse_mps(text: str) -> LpModel:
    """Parse our own MPS dialect.  The objective sense is not stored in
    MPS; minimization is assumed (callers flip via metadata if needed).
    A line it cannot read, a COLUMNS or RHS entry naming a row that ROWS
    does not declare, a BOUNDS line naming a column that COLUMNS lacks, or
    a number that is not finite (MI and FR give infinite bounds) raises
    InstanceFormatError naming that line.  MPS marks binaries and integers
    alike (INTORG), so a marked column whose bounds lie inside [0, 1] is
    read as binary, a binary pinned at 0 or at 1 included, and any other
    marked column as integer."""
    section = None
    objective = None  # the name of the N row
    rows = {}  # row name -> relation code, in file order
    columns = {}  # column -> {row: value}, in file order
    col_kind = {}
    rhs = {}
    bounds = {}  # column -> (lower, upper), in column order
    marker_int = False
    name = "parsed"
    for raw in text.splitlines():
        if not raw.strip() or raw.startswith("*"):
            continue
        parts = raw.split()
        if not raw.startswith(" "):
            section = parts[0]
            if section == "NAME" and len(parts) > 1:
                name = parts[1]
            continue
        try:
            if section == "ROWS":
                code, rname = parts
                if rname in rows or rname == objective:
                    raise ValueError
                if code == "N" and objective is None:
                    objective = rname
                else:
                    rows[rname] = _MPS_RELATION[code]
            elif section == "COLUMNS":
                col, row, val = parts
                if val in ("'INTORG'", "'INTEND'"):
                    marker_int = val == "'INTORG'"
                    continue
                if row != objective and row not in rows:
                    raise ValueError
                if col not in columns:
                    columns[col] = {}
                    col_kind[col] = INTEGER if marker_int else CONTINUOUS
                    bounds[col] = (0.0, INF)
                columns[col][row] = _finite(val)
            elif section == "RHS":
                _, row, val = parts
                if row not in rows:
                    raise ValueError
                rhs[row] = _finite(val)
            elif section == "BOUNDS":
                code, _, col, *val = parts
                if col not in columns:
                    raise ValueError
                lo, hi = bounds[col]
                if code == "FR" and not val:
                    lo, hi = -INF, INF
                elif code == "MI" and not val:
                    lo = -INF
                elif code == "LO" and len(val) == 1:
                    lo = _finite(val[0])
                elif code == "UP" and len(val) == 1:
                    hi = _finite(val[0])
                elif code == "FX" and len(val) == 1:
                    lo = hi = _finite(val[0])
                else:
                    raise ValueError
                bounds[col] = (lo, hi)
            else:
                raise ValueError
        except (ValueError, KeyError):
            raise InstanceFormatError(f"bad {section or 'MPS'} line: {raw!r}") from None
    model = LpModel(name=name, sense="min")
    lower, upper = np.array(list(bounds.values()), float).reshape(-1, 2).T
    kinds = [BINARY if kind == INTEGER and 0.0 <= lo and hi <= 1.0 else kind
             for kind, (lo, hi) in zip(col_kind.values(), bounds.values())]
    model.add_vars(list(columns), lower, upper, kinds,
                   [entries.get(objective, 0.0) for entries in columns.values()])
    # column by column, the objective's entries dropped; add_rows keeps each
    # row's entries in column order
    row_of = {rname: r for r, rname in enumerate(rows)} | {objective: -1}
    row = np.fromiter((row_of[r] for entries in columns.values() for r in entries), np.int64)
    var = np.repeat(np.arange(len(columns)), [len(entries) for entries in columns.values()])
    val = np.fromiter((v for entries in columns.values() for v in entries.values()), float)
    kept = row >= 0
    model.add_rows(list(rows), list(rows.values()), [rhs.get(rname, 0.0) for rname in rows], False,
                   row[kept], var[kept], val[kept])
    return model


def export_model(model: LpModel, fmt: str) -> bytes:
    if fmt == "lp":
        return write_lp_text(model).encode()
    if fmt == "mps":
        return write_mps(model).encode()
    raise ValueError(f"unknown format {fmt!r}")


def metadata_sidecar(model: LpModel) -> str:
    """JSON sidecar mapping variable names back to model structure, so
    certificates can be recovered after external solving."""
    return json.dumps(
        {
            "model": model.name,
            "sense": model.sense,
            "metadata": model.metadata,
            "variables": model.var_names,
        },
        indent=2,
        sort_keys=True,
    ) + "\n"
