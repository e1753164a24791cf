"""Solver-independent sparse LP/IP models and the formulation builders.

Builders cover the arborescence coloring program (CG), the chain LP and
its dual (LC/DLC), the flat independent-set dual program (ISD), the
fractional coloring program (FCP), the classical and representative
baseline colorings (CL, AS), and the layered stack program (CG_H, built in
the stowage module on top of this one).  Models can be written as LP text
or fixed MPS and re-read (our own dialect only).

An LpModel is arrays, and the simplex and both writers read them as they
are:

- variables: `var_names`, with `lower`, `upper` and `kind` (an index into
  KINDS) per variable;
- rows: `row_names`, with `rel` (RELATION: 1 for '<=', -1 for '>=', 0 for
  '='), `rhs` and the `implied` mask per row;
- coefficients: COO triples `row`, `var`, `val`, stored row by row, rows
  ascending, each row's entries in the order they were added.

CG, CG_H and LC write whole blocks of rows with numpy index arithmetic
(`_sweep_rows`, `add_vars`, `add_rows`).  The other builders, the parsers
and the tests add one variable or row at a time with `add_var` and
`add_constraint`; these are staged in lists and become arrays on the next
read.  `variables` and `constraints` are read-only views built from the
arrays on demand.
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


class _Staged:
    """Equal-length arrays that grow an item or a block at a time; what
    was added is concatenated onto them on the next read."""

    def __init__(self, *dtypes):
        self.dtypes = dtypes
        self.arrays = tuple(np.empty(0, dtype) for dtype in dtypes)
        self.items = []   # one tuple per item
        self.blocks = []  # one tuple of columns per block

    def append(self, *item):
        self.items.append(item)

    def extend(self, *block):
        self._block_items()
        self.blocks.append(block)

    def _block_items(self):
        if self.items:
            self.blocks.append(tuple(zip(*self.items)))
            self.items = []

    def read(self) -> tuple:
        if self.items or self.blocks:
            self._block_items()
            self.arrays = tuple(
                np.concatenate([have, *(np.asarray(block[k], dtype) for block in self.blocks)])
                for k, (have, dtype) in enumerate(zip(self.arrays, self.dtypes)))
            self.blocks = []
        return self.arrays

    def copy(self) -> "_Staged":
        out = _Staged(*self.dtypes)
        out.arrays = tuple(a.copy() for a in self.read())
        return out


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


def _column(staged: str, k: int, doc: str) -> property:
    return property(lambda self: getattr(self, staged).read()[k], doc=doc)


class LpModel:
    """A linear or integer program stored as arrays (module docstring)."""

    lower = _column("_vars", 0, "per variable: lower bound")
    upper = _column("_vars", 1, "per variable: upper bound")
    kind = _column("_vars", 2, "per variable: its kind, an index into KINDS")
    rel = _column("_rows", 0, "per row: its relation code (RELATION)")
    rhs = _column("_rows", 1, "per row: right-hand side")
    implied = _column("_rows", 2, (
        "per row: whether the other rows and the variable bounds imply it; the "
        "simplex leaves these rows out of its tableau, and every writer and "
        "certificate check still sees them"))
    row = _column("_entries", 0, "per entry: its row")
    var = _column("_entries", 1, "per entry: its variable")
    val = _column("_entries", 2, "per entry: its coefficient")

    def __init__(self, name: str, sense: str):
        self.name = name
        self.sense = sense  # 'min' | 'max'
        self.objective = {}  # var name -> coefficient
        self.metadata = {}
        self.var_names = []
        self.row_names = []
        self._index = {}  # var name -> index
        self._vars = _Staged(float, float, np.int8)
        self._rows = _Staged(np.int64, float, bool)
        self._entries = _Staged(np.int64, np.int64, float)

    def add_var(self, name, lower=0.0, upper=INF, kind=CONTINUOUS) -> str:
        if name in self._index:
            raise ValueError(f"duplicate variable {name}")
        _check_kind(name, lower, upper, kind)
        self._index[name] = len(self.var_names)
        self.var_names.append(name)
        self._vars.append(lower, upper, _KIND_CODE[kind])
        return name

    def add_vars(self, names: list, lower: float, upper: float, kind: str) -> None:
        """Add the named variables, all with the same bounds and kind."""
        start = len(self.var_names)
        _check_kind(names, lower, upper, kind)
        if len(set(names)) != len(names) or not self._index.keys().isdisjoint(names):
            raise ValueError("duplicate variable names")
        self._index.update(zip(names, range(start, start + len(names))))
        self.var_names += names
        count = len(names)
        self._vars.extend(np.full(count, lower), np.full(count, upper),
                          np.full(count, _KIND_CODE[kind], np.int8))

    def add_constraint(self, name, coeffs, relation, rhs, implied=False):
        if relation not in RELATION:
            raise ValueError(f"bad relation {relation}")
        for var in coeffs:
            if var not in self._index:
                raise ValueError(f"constraint {name} references unknown variable {var}")
        r = len(self.row_names)
        for var, coef in coeffs.items():
            self._entries.append(r, self._index[var], coef)
        self.row_names.append(name)
        self._rows.append(RELATION[relation], rhs, implied)

    def add_rows(self, names: list, rel, rhs, implied, row, var, val) -> None:
        """Add a block of rows: per row its name, relation code, right-hand
        side and implied mark, and their entries (row within the block,
        variable index, coefficient) in any row order; a row's entries keep
        the order they are given in."""
        order = np.argsort(row, kind="stable")
        self._entries.extend(row[order] + len(self.row_names), var[order], val[order])
        self.row_names += names
        self._rows.extend(rel, rhs, implied)

    @property
    def variables(self) -> "_View":
        """The variables as read-only records."""
        def build():
            lower, upper, kind = self._vars.read()
            return tuple(map(Variable, self.var_names, lower.tolist(), upper.tolist(),
                             map(KINDS.__getitem__, kind.tolist())))

        return _View(len(self.var_names), build)

    @property
    def constraints(self) -> "_View":
        """The rows as read-only records."""
        def build():
            rel, rhs, _ = self._rows.read()
            row, var, val = self._entries.read()
            ends = np.searchsorted(row, np.arange(1, len(rel) + 1)).tolist()
            pairs = list(zip(map(self.var_names.__getitem__, var.tolist()), val.tolist()))
            coeffs = (MappingProxyType(dict(pairs[start:end])) for start, end in zip([0] + ends, ends))
            return tuple(map(Constraint, self.row_names, coeffs,
                             map(_RELATION_OF.__getitem__, rel.tolist()), rhs.tolist()))

        return _View(len(self.row_names), build)

    def relaxed(self) -> "LpModel":
        """Continuous relaxation: every variable keeps its bounds (a
        binary's lie in [0, 1]) and loses integrality; metadata["relaxed"]
        is True."""
        out = LpModel(self.name, self.sense)
        out.objective = dict(self.objective)
        out.metadata = dict(self.metadata, relaxed=True)
        out.var_names, out.row_names = list(self.var_names), list(self.row_names)
        out._index = dict(self._index)
        out._vars, out._rows, out._entries = self._vars.copy(), self._rows.copy(), self._entries.copy()
        out.kind[:] = _KIND_CODE[CONTINUOUS]
        return out

    @property
    def integral_objective(self) -> bool:
        """Whether every objective variable is binary or integer with an
        integral coefficient: then every integer point has an integral
        objective, so a branch-and-bound may round its LP bounds up."""
        kind = self.kind
        return all(kind[self._index[name]] and float(coef).is_integer()
                   for name, coef in self.objective.items())

    def integer_var_names(self) -> list:
        return [self.var_names[k] for k in np.flatnonzero(self.kind).tolist()]


def _check_kind(name, lower, upper, kind) -> None:
    if kind not in _KIND_CODE:
        raise ValueError(f"bad kind {kind}")
    # so that a model and its relaxation have the same bounds
    if kind == BINARY and (lower < 0.0 or upper > 1.0):
        raise ValueError(f"binary {name} has bounds [{lower}, {upper}] outside [0, 1]")


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


def _add_charges(model: LpModel, i: int, kids, matrix: CliqueMatrix) -> dict:
    """Add a charge y_i_p >= 0 for each sweep row touching kids; returns
    row index -> charge name, rows ascending."""
    rows = sorted(set().union(*(matrix.rows[j] for j in kids)))
    return {r: model.add_var(f"y_{i}_p{matrix.points[r]}") for r in rows}


def _add_arborescence(model: LpModel, matrix: CliqueMatrix, arcs, sweep, label,
                      chain_rhs: float, entry: str, extra=()) -> None:
    """The part CG and CG_H share.  model.metadata["arcs"] names the arcs
    in variable order, arcs holds them as rows (tail, ..., head), and
    sweep is _sweep_rows of their child sets (0 for the root's) and heads.
    Adds a binary per arc, the integer objective c, and three blocks of
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
    model.add_vars(names, 0.0, 1.0, BINARY)
    model.add_var("c", 0.0, INF, INTEGER)
    model.objective = {"c": 1.0}
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
    tail = np.repeat(np.arange(rep.n + 1), [len(kids) for kids in dag.children])
    head = np.fromiter(chain.from_iterable(dag.children), np.int64, len(tail))
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
    model.add_vars(names, 0.0, INF, CONTINUOUS)
    model.objective = {name: float(values[j]) for name, j in zip(names, kids)}
    key, row, arc, implied = _sweep_rows(matrix, 0, list(kids))
    model.add_rows(_point_names(matrix, key, [""]), np.full(len(key), RELATION["<="]),
                   np.ones(len(key)), implied, row, arc, np.ones(len(row)))
    model.metadata = {"formulation": "LC", "vertex": i}
    return model


def build_dlc(i: int, rep: IntervalRep, dag: ContainmentDag, matrix: CliqueMatrix,
              values) -> LpModel:
    """The dual: cover each child's value by sweep-point charges."""
    _branching_or_root(i, dag)
    model = LpModel(name=f"DLC_{i}", sense="min")
    y = _add_charges(model, i, dag.children[i], matrix)
    model.objective = dict.fromkeys(y.values(), 1.0)
    for j in dag.children[i]:
        model.add_constraint(f"cover_{j}", {y[r]: 1.0 for r in matrix.rows[j]}, ">=", float(values[j]))
    model.metadata = {"formulation": "DLC", "vertex": i}
    return model


def _charge_program(name: str, sense: str, rep: IntervalRep, dag: ContainmentDag,
                    matrix: CliqueMatrix):
    """The part ISD and FCP share: charges y_{i,p} for i in V*-or-root (only
    at sweep rows touching the child set of i; structurally useless columns
    are dropped), a free label ell_i per vertex, and a cover row per
    containment arc i -> j (the charges of i at the rows of j cover ell_j).

    Returns (model, y, covers): y[i] maps row index -> charge name, and
    covers holds the (name, coeffs) of the cover rows, which the caller
    adds after its own rows."""
    model = LpModel(name=name, sense=sense)
    sources = [ROOT] + sorted(dag.branching)
    y = {i: _add_charges(model, i, dag.children[i], matrix) for i in sources}
    for i in rep.vertices:
        model.add_var(f"ell_{i}", -INF, INF, CONTINUOUS)
    covers = []
    for i in sources:
        for j in dag.children[i]:
            coeffs = {y[i][r]: 1.0 for r in matrix.rows[j]}
            coeffs[f"ell_{j}"] = -1.0
            covers.append((f"cover_{i}_{j}", coeffs))
    return model, y, covers


# ---------------------------------------------------------------------------
# ISD: one flat LP equal to the max-weight independent set value

def build_isd(rep: IntervalRep, dag: ContainmentDag, matrix: CliqueMatrix,
              weights) -> LpModel:
    """min ell_0 = sum of root charges, with per-vertex label equations and
    a cover row per containment arc."""
    model, y, covers = _charge_program("ISD", "min", rep, dag, matrix)
    model.objective = dict.fromkeys(y[ROOT].values(), 1.0)
    for i in rep.vertices:
        coeffs = {f"ell_{i}": 1.0}
        coeffs.update(dict.fromkeys(y.get(i, {}).values(), -1.0))
        model.add_constraint(f"label_{i}", coeffs, "=", float(weights[i]))
    for name, coeffs in covers:
        model.add_constraint(name, coeffs, ">=", 0.0)
    model.metadata = {"formulation": "ISD"}
    return model


# ---------------------------------------------------------------------------
# FCP: fractional coloring

def build_fcp(rep: IntervalRep, dag: ContainmentDag, matrix: CliqueMatrix) -> LpModel:
    """max sum of labels minus inner charges, subject to a unit budget on
    root charges and the same cover rows as ISD."""
    model, y, covers = _charge_program("FCP", "max", rep, dag, matrix)
    model.objective = {f"ell_{i}": 1.0 for i in rep.vertices}
    for i in sorted(dag.branching):
        model.objective.update(dict.fromkeys(y[i].values(), -1.0))
    model.add_constraint("budget", dict.fromkeys(y[ROOT].values(), 1.0), "<=", 1.0)
    for name, coeffs in covers:
        model.add_constraint(name, coeffs, ">=", 0.0)
    model.metadata = {"formulation": "FCP"}
    return model


# ---------------------------------------------------------------------------
# baselines: CL and AS

def build_cl(graph: CircleGraph, num_colors: int) -> LpModel:
    """The classical assignment program with num_colors color slots."""
    model = LpModel(name="CL", sense="min")
    colors = range(1, num_colors + 1)
    for i in graph.vertices:
        for c in colors:
            model.add_var(f"x_{i}_{c}", 0.0, 1.0, BINARY)
    for c in colors:
        model.add_var(f"y_{c}", 0.0, 1.0, BINARY)
    model.objective = {f"y_{c}": 1.0 for c in colors}
    for i in graph.vertices:
        for c in colors:
            model.add_constraint(f"open_{i}_{c}", {f"x_{i}_{c}": 1.0, f"y_{c}": -1.0}, "<=", 0.0)
    for c in colors:
        for i, j in graph.edges():
            model.add_constraint(f"edge_{i}_{j}_{c}", {f"x_{i}_{c}": 1.0, f"x_{j}_{c}": 1.0}, "<=", 1.0)
    for i in graph.vertices:
        model.add_constraint(f"assign_{i}", {f"x_{i}_{c}": 1.0 for c in colors}, ">=", 1.0)
    model.metadata = {"formulation": "CL", "num_colors": num_colors}
    return model


def build_as(graph: CircleGraph) -> LpModel:
    """The asymmetric representative program.

    Vertices are re-sorted by non-increasing degree (ties by original
    index); x_{i}_{j} means reordered vertex i represents reordered vertex
    j.  Structurally-zero variables are pinned by [0, 0] bounds.
    """
    order = sorted(graph.vertices, key=lambda v: (-len(graph.adj[v]), v))
    pos = {v: k + 1 for k, v in enumerate(order)}  # original -> reordered index
    n = graph.n
    edges = {(min(pos[i], pos[j]), max(pos[i], pos[j])) for i, j in graph.edges()}
    model = LpModel(name="AS", sense="min")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            zero = (min(i, j), max(i, j)) in edges or j < i
            model.add_var(f"x_{i}_{j}", 0.0, 0.0 if zero else 1.0, BINARY)
    model.objective = {f"x_{i}_{i}": 1.0 for i in range(1, n + 1)}
    for i in range(1, n + 1):
        for j, k in edges:
            if j != i and k != i:
                model.add_constraint(
                    f"conflict_{i}_{j}_{k}",
                    {f"x_{i}_{j}": 1.0, f"x_{i}_{k}": 1.0, f"x_{i}_{i}": -1.0},
                    "<=",
                    0.0,
                )
    for j in range(1, n + 1):
        model.add_constraint(f"rep_{j}", {f"x_{i}_{j}": 1.0 for i in range(1, n + 1)}, "=", 1.0)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                model.add_constraint(f"dom_{i}_{j}", {f"x_{i}_{j}": 1.0, f"x_{i}_{i}": -1.0}, "<=", 0.0)
    model.metadata = {"formulation": "AS", "order": {str(v): pos[v] for v in graph.vertices}}
    return model


# ---------------------------------------------------------------------------
# export / import

def _num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def write_lp_text(model: LpModel) -> str:
    """LP text format (CPLEX-like dialect; round-trips via parse_lp_text)."""
    names = model.var_names
    lines = ["\\ " + model.name]
    lines.append("Minimize" if model.sense == "min" else "Maximize")
    terms = []
    for name in names:
        if name in model.objective and model.objective[name] != 0.0:
            terms.append(_term(model.objective[name], name, first=not terms))
    lines.append(" obj: " + (" ".join(terms) if terms else "0 " + names[0]))
    lines.append("Subject To")
    for con, rel, rhs, entries in zip(model.row_names, model.rel.tolist(), model.rhs.tolist(),
                                      _nonzeros(model, by_var=False)):
        terms = [_term(coef, names[k], first=not t) for t, (k, coef) in enumerate(entries)]
        lines.append(f" {con}: " + " ".join(terms or ["0 " + names[0]])
                     + f" {_RELATION_OF[rel]} {_num(rhs)}")
    lines.append("Bounds")
    for v in model.variables:
        lo = "-inf" if v.lower == -INF else _num(v.lower)
        hi = "+inf" if v.upper == INF else _num(v.upper)
        lines.append(f" {lo} <= {v.name} <= {hi}")
    generals = [v.name for v in model.variables if v.kind == INTEGER]
    binaries = [v.name for v in model.variables if v.kind == BINARY]
    if generals:
        lines.append("General")
        lines.append(" " + " ".join(generals))
    if binaries:
        lines.append("Binary")
        lines.append(" " + " ".join(binaries))
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
    or one naming a variable the Bounds section does not declare, raises
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
    generals, binaries = set(), set()
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
                constraints.append((ln, name.strip(), _parse_expr(left), rel, float(right)))
            elif what == "bounds":
                lo, le, name, le_too, hi = stripped.split()
                if le != "<=" or le_too != "<=":
                    raise ValueError
                bounds.append((ln, name, float(lo), float(hi)))
            elif what == "general":
                generals.update(stripped.split())
            elif what == "binary":
                binaries.update(stripped.split())
            else:  # before Subject To or after End
                raise ValueError
        except (ValueError, StopIteration):
            raise InstanceFormatError(f"bad {what or 'LP'} line: {ln!r}") from None
    model = LpModel(name="parsed", sense=sense)
    for ln, name, lower, upper in bounds:
        kind = INTEGER if name in generals else (BINARY if name in binaries else CONTINUOUS)
        try:
            model.add_var(name, lower, upper, kind)
        except ValueError as exc:
            raise InstanceFormatError(f"bad bounds line: {ln!r} ({exc})") from None
    if not objective.keys() <= model._index.keys():
        raise InstanceFormatError(f"bad objective line: {lines[1]!r} (an undeclared variable)")
    model.objective = {k: v for k, v in objective.items() if v != 0.0}
    for ln, name, coeffs, rel, rhs in constraints:
        try:
            model.add_constraint(name, {k: v for k, v in coeffs.items() if v != 0.0}, rel, rhs)
        except ValueError as exc:
            raise InstanceFormatError(f"bad constraint line: {ln!r} ({exc})") from None
    return model


def _parse_expr(expr: str) -> dict:
    """The coefficient of each name in a sum of terms; a number with no
    name after it raises ValueError."""
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
                coeffs[tok] = coeffs.get(tok, 0.0) + coef
                sign, pending = 1.0, None
                continue
            pending = value
    if pending is not None:
        raise ValueError(f"{pending} has no variable")
    return coeffs


def write_mps(model: LpModel) -> str:
    """Fixed MPS.  Integrality is flagged with MARKER lines."""
    out = []
    out.append(f"NAME          {model.name}")
    out.append("ROWS")
    out.append(" N  OBJ")
    rel_code = {RELATION["<="]: "L", RELATION[">="]: "G", RELATION["="]: "E"}
    rows = model.row_names
    for name, rel in zip(rows, model.rel.tolist()):
        out.append(f" {rel_code[rel]}  {name}")
    out.append("COLUMNS")
    marker_on = False
    marker_idx = 0

    def fmt(col, row, val):
        return f"    {col:<12} {row:<12} {_num(val)}"

    for v, column in zip(model.variables, _nonzeros(model, by_var=True)):
        is_int = v.kind in (BINARY, INTEGER)
        if is_int != marker_on:
            kind = "'INTORG'" if is_int else "'INTEND'"
            out.append(f"    MARKER{marker_idx:<7} {'MARKER':<12} {kind}")
            marker_on = is_int
            marker_idx += 1
        obj = model.objective.get(v.name, 0.0)
        if obj != 0.0 or not column:  # a column with no entry keeps one, so it is read back
            out.append(fmt(v.name, "OBJ", obj))
        out.extend(fmt(v.name, rows[r], val) for r, val in column)
    if marker_on:
        out.append(f"    MARKER{marker_idx:<7} {'MARKER':<12} 'INTEND'")
    out.append("RHS")
    for name, rhs in zip(rows, model.rhs.tolist()):
        if rhs != 0.0:
            out.append(fmt("RHS", name, rhs))
    out.append("BOUNDS")
    for v in model.variables:
        if v.lower == -INF and v.upper == INF:
            out.append(f" FR BND       {v.name}")
            continue
        if v.lower == v.upper:
            out.append(f" FX BND       {v.name:<12} {_num(v.lower)}")
            continue
        if v.lower != 0.0:
            if v.lower == -INF:
                out.append(f" MI BND       {v.name}")
            else:
                out.append(f" LO BND       {v.name:<12} {_num(v.lower)}")
        if v.upper != INF:
            out.append(f" UP BND       {v.name:<12} {_num(v.upper)}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"


_MPS_RELATION = {"L": "<=", "G": ">=", "E": "="}


def parse_mps(text: str) -> LpModel:
    """Parse our own MPS dialect.  The objective sense is not stored in
    MPS; minimization is assumed (callers flip via metadata if needed).
    A line it cannot read, a COLUMNS or RHS entry naming a row that ROWS
    does not declare, or a BOUNDS line naming a column that COLUMNS lacks,
    raises InstanceFormatError naming that line.  Zero objective
    coefficients are dropped, as parse_lp_text drops them.  MPS marks
    binaries and integers alike (INTORG), so a marked column whose bounds
    lie inside [0, 1] is read as binary, a binary pinned at 0 or at 1
    included, and any other marked column as integer."""
    section = None
    objective = None  # the name of the N row
    rows = {}  # row name -> relation, in file order
    columns = {}  # column -> {row: value}, in file order
    col_kind = {}
    rhs = {}
    bounds = {}
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
                columns[col][row] = float(val)
            elif section == "RHS":
                _, row, val = parts
                if row not in rows:
                    raise ValueError
                rhs[row] = float(val)
            elif section == "BOUNDS":
                code, _, col, *val = parts
                if col not in columns:
                    raise ValueError
                lo, hi = bounds.get(col, (0.0, INF))
                if code == "FR" and not val:
                    lo, hi = -INF, INF
                elif code == "MI" and not val:
                    lo = -INF
                elif code == "LO" and len(val) == 1:
                    lo = float(val[0])
                elif code == "UP" and len(val) == 1:
                    hi = float(val[0])
                elif code == "FX" and len(val) == 1:
                    lo = hi = float(val[0])
                else:
                    raise ValueError
                bounds[col] = (lo, hi)
            else:
                raise ValueError
        except (ValueError, KeyError):
            raise InstanceFormatError(f"bad {section or 'MPS'} line: {raw!r}") from None
    model = LpModel(name=name, sense="min")
    for col in columns:
        lo, hi = bounds.get(col, (0.0, INF))
        kind = col_kind[col]
        if kind == INTEGER and 0.0 <= lo and hi <= 1.0:
            kind = BINARY
        model.add_var(col, lo, hi, kind)
    model.objective = {col: entries[objective] for col, entries in columns.items()
                       if entries.get(objective, 0.0) != 0.0}
    coeffs = {rname: {} for rname in rows}  # per row: column -> value in column order
    for col, entries in columns.items():
        for rname, val in entries.items():
            if rname != objective:
                coeffs[rname][col] = val
    for rname, rel in rows.items():
        model.add_constraint(rname, coeffs[rname], rel, rhs.get(rname, 0.0))
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
