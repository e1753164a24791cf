"""Solver-independent sparse LP/IP models and the formulation builders.

Builders cover the arborescence coloring program (CG), the chain LP and
its dual (LC/DLC), the flat independent-set dual program (ISD), the
fractional coloring program (FCP), the classical and representative
baseline colorings (CL, AS), and the layered stack program (CG_H, built in
the stowage module on top of this one).  Models can be written as LP text
or fixed MPS and re-read (our own dialect only).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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


@dataclass
class Variable:
    name: str
    lower: float = 0.0
    upper: float = INF
    kind: str = CONTINUOUS


@dataclass
class Constraint:
    name: str
    coeffs: dict  # var name -> coefficient
    relation: str  # '<=', '=', '>='
    rhs: float


@dataclass
class LpModel:
    name: str
    sense: str  # 'min' | 'max'
    variables: list = field(default_factory=list)
    objective: dict = field(default_factory=dict)  # var name -> coefficient
    constraints: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    # set by builders whose integer optimum is always integral, so a
    # branch-and-bound may round LP bounds up
    integral_objective: bool = False

    def __post_init__(self):
        self._index = {v.name: k for k, v in enumerate(self.variables)}
        if len(self._index) != len(self.variables):
            raise ValueError("duplicate variable names")

    def add_var(self, name, lower=0.0, upper=INF, kind=CONTINUOUS) -> str:
        if name in self._index:
            raise ValueError(f"duplicate variable {name}")
        # so that a model and its relaxation have the same bounds
        if kind == BINARY and (lower < 0.0 or upper > 1.0):
            raise ValueError(f"binary {name} has bounds [{lower}, {upper}] outside [0, 1]")
        self._index[name] = len(self.variables)
        self.variables.append(Variable(name, lower, upper, kind))
        return name

    def add_constraint(self, name, coeffs, relation, rhs):
        if relation not in ("<=", "=", ">="):
            raise ValueError(f"bad relation {relation}")
        for var in coeffs:
            if var not in self._index:
                raise ValueError(f"constraint {name} references unknown variable {var}")
        self.constraints.append(Constraint(name, dict(coeffs), relation, float(rhs)))

    def var(self, name) -> Variable:
        return self.variables[self._index[name]]

    @property
    def var_names(self) -> list:
        return [v.name for v in self.variables]

    def relaxed(self) -> "LpModel":
        """Continuous relaxation: every variable keeps its bounds (a
        binary's lie in [0, 1]) and loses integrality; metadata["relaxed"]
        is True."""
        return LpModel(
            name=self.name,
            sense=self.sense,
            variables=[Variable(v.name, v.lower, v.upper, CONTINUOUS) for v in self.variables],
            objective=dict(self.objective),
            constraints=[Constraint(c.name, dict(c.coeffs), c.relation, c.rhs) for c in self.constraints],
            metadata=dict(self.metadata, relaxed=True),
            integral_objective=self.integral_objective,
        )

    def integer_var_names(self) -> list:
        return [v.name for v in self.variables if v.kind in (BINARY, INTEGER)]


# ---------------------------------------------------------------------------
# helpers

def arc_var(i: int, j: int) -> str:
    return f"x_{i}_{j}"


def _cover_rows(col_rows, names) -> dict:
    """Row index -> {names[j]: 1.0} over the vertices j of names with a
    nonzero in that row, rows ascending and vertices in the order of
    names; col_rows is CliqueMatrix.rows.  O(nnz) plus sorting
    the rows."""
    rows = {}
    for j, name in names.items():
        for r in col_rows[j]:
            rows.setdefault(r, {})[name] = 1.0
    return {r: rows[r] for r in sorted(rows)}


def _add_charges(model: LpModel, i: int, kids, matrix: CliqueMatrix) -> dict:
    """Add a charge y_i_p >= 0 for each sweep row touching kids; returns
    row index -> charge name, rows ascending."""
    rows = sorted(set().union(*(matrix.rows[j] for j in kids)))
    return {r: model.add_var(f"y_{i}_p{matrix.points[r]}") for r in rows}


# ---------------------------------------------------------------------------
# CG: the arborescence coloring program

def build_cg(rep: IntervalRep, dag: ContainmentDag, matrix: CliqueMatrix) -> LpModel:
    """min c subject to: the root child set has antichains of size <= c,
    each inner child set has antichains of size <= 1 (a chain), and every
    vertex picks exactly one parent arc.
    """
    model = LpModel(name="CG", sense="min", integral_objective=True)
    arc_map = {}
    for i, j in dag.arcs:
        name = arc_var(i, j)
        model.add_var(name, 0.0, 1.0, BINARY)
        arc_map[name] = [i, j]
    model.add_var("c", 0.0, INF, INTEGER)
    model.objective = {"c": 1.0}
    root_rows = _cover_rows(matrix.rows, {j: arc_var(ROOT, j) for j in dag.children[ROOT]})
    for r in range(len(matrix.points)):
        coeffs = root_rows.get(r, {})
        coeffs["c"] = -1.0
        model.add_constraint(f"root_p{matrix.points[r]}", coeffs, "<=", 0.0)
    for i in sorted(dag.branching):
        for r, coeffs in _cover_rows(matrix.rows, {j: arc_var(i, j) for j in dag.children[i]}).items():
            model.add_constraint(f"chain_{i}_p{matrix.points[r]}", coeffs, "<=", 1.0)
    parent_rows = {j: {} for j in rep.vertices}
    for name, (i, j) in arc_map.items():
        parent_rows[j][name] = 1.0
    for j, coeffs in parent_rows.items():
        model.add_constraint(f"parent_{j}", coeffs, "=", 1.0)
    model.metadata = {"formulation": "CG", "relaxed": False, "arcs": arc_map, "n": rep.n}
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
    for j in kids:
        model.add_var(arc_var(i, j), 0.0, INF, CONTINUOUS)
    model.objective = {arc_var(i, j): float(values[j]) for j in kids}
    for r, coeffs in _cover_rows(matrix.rows, {j: arc_var(i, j) for j in kids}).items():
        model.add_constraint(f"p{matrix.points[r]}", coeffs, "<=", 1.0)
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
    model = LpModel(name="CL", sense="min", integral_objective=True)
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
    model = LpModel(name="AS", sense="min", integral_objective=True)
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
    lines = ["\\ " + model.name]
    lines.append("Minimize" if model.sense == "min" else "Maximize")
    terms = []
    for name in model.var_names:
        if name in model.objective and model.objective[name] != 0.0:
            terms.append(_term(model.objective[name], name, first=not terms))
    lines.append(" obj: " + (" ".join(terms) if terms else "0 " + model.var_names[0]))
    lines.append("Subject To")
    for con in model.constraints:
        terms = []
        for name, coef in _in_var_order(model, con.coeffs):
            terms.append(_term(coef, name, first=not terms))
        if not terms:
            terms = ["0 " + model.var_names[0]]
        rel = {"<=": "<=", ">=": ">=", "=": "="}[con.relation]
        lines.append(f" {con.name}: " + " ".join(terms) + f" {rel} {_num(con.rhs)}")
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


def _in_var_order(model: LpModel, coeffs: dict) -> list:
    """The nonzero (name, coefficient) pairs of coeffs in variable order."""
    return sorted(((name, coef) for name, coef in coeffs.items() if coef != 0.0),
                  key=lambda term: model._index[term[0]])


def _term(coef: float, name: str, first: bool) -> str:
    mag = abs(coef)
    body = name if mag == 1.0 else f"{_num(mag)} {name}"
    if first:
        return f"- {body}" if coef < 0 else body
    return ("- " if coef < 0 else "+ ") + body


def parse_lp_text(text: str) -> LpModel:
    """Parse our own LP dialect back into a model."""
    lines = [ln.rstrip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.lstrip().startswith("\\")]
    it = iter(lines)
    try:
        sense_line = next(it)
    except StopIteration:
        raise InstanceFormatError("empty LP file")
    sense = "min" if sense_line.strip().lower().startswith("min") else "max"
    model = LpModel(name="parsed", sense=sense)
    obj_line = next(it).strip()
    _, expr = obj_line.split(":", 1)
    obj_terms = _parse_expr(expr)
    section = None
    bounds = []
    constraints = []
    generals, binaries = set(), set()
    for ln in it:
        stripped = ln.strip()
        low = stripped.lower()
        if low in ("subject to", "bounds", "general", "binary", "end"):
            section = low
            continue
        if section == "subject to":
            name, rest = stripped.split(":", 1)
            for rel in ("<=", ">=", "="):
                if f" {rel} " in rest:
                    left, right = rest.rsplit(f" {rel} ", 1)
                    constraints.append((name.strip(), _parse_expr(left), rel, float(right)))
                    break
            else:
                raise InstanceFormatError(f"bad constraint line: {ln!r}")
        elif section == "bounds":
            lo, _, name, _, hi = stripped.split()
            bounds.append((name, lo, hi))
        elif section == "general":
            generals.update(stripped.split())
        elif section == "binary":
            binaries.update(stripped.split())
    for name, lo, hi in bounds:
        lower = -INF if lo == "-inf" else float(lo)
        upper = INF if hi == "+inf" else float(hi)
        kind = INTEGER if name in generals else (BINARY if name in binaries else CONTINUOUS)
        model.add_var(name, lower, upper, kind)
    model.objective = {k: v for k, v in obj_terms.items() if v != 0.0}
    for name, coeffs, rel, rhs in constraints:
        model.add_constraint(name, {k: v for k, v in coeffs.items() if v != 0.0}, rel, rhs)
    return model


def _parse_expr(expr: str) -> dict:
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
    return coeffs


def write_mps(model: LpModel) -> str:
    """Fixed MPS.  Integrality is flagged with MARKER lines."""
    out = []
    out.append(f"NAME          {model.name}")
    out.append("ROWS")
    out.append(" N  OBJ")
    rel_code = {"<=": "L", ">=": "G", "=": "E"}
    for con in model.constraints:
        out.append(f" {rel_code[con.relation]}  {con.name}")
    out.append("COLUMNS")
    marker_on = False
    marker_idx = 0

    def fmt(col, row, val):
        return f"    {col:<12} {row:<12} {_num(val)}"

    entries = [[] for _ in model.variables]  # per column: (row, value) in row order
    for con in model.constraints:
        for name, coef in con.coeffs.items():
            if coef != 0.0:
                entries[model._index[name]].append((con.name, coef))
    for v, column in zip(model.variables, entries):
        is_int = v.kind in (BINARY, INTEGER)
        if is_int != marker_on:
            kind = "'INTORG'" if is_int else "'INTEND'"
            out.append(f"    MARKER{marker_idx:<7} {'MARKER':<12} {kind}")
            marker_on = is_int
            marker_idx += 1
        if v.name in model.objective and model.objective[v.name] != 0.0:
            out.append(fmt(v.name, "OBJ", model.objective[v.name]))
        out.extend(fmt(v.name, row, val) for row, val in column)
    if marker_on:
        out.append(f"    MARKER{marker_idx:<7} {'MARKER':<12} 'INTEND'")
    out.append("RHS")
    for con in model.constraints:
        if con.rhs != 0.0:
            out.append(fmt("RHS", con.name, con.rhs))
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


def parse_mps(text: str) -> LpModel:
    """Parse our own MPS dialect.  The objective sense is not stored in
    MPS; minimization is assumed (callers flip via metadata if needed)."""
    section = None
    rows = {}
    row_order = []
    columns = {}
    col_order = []
    col_kind = {}
    rhs = {}
    bounds = {}
    marker_int = False
    name = "parsed"
    for raw in text.splitlines():
        if not raw.strip() or raw.startswith("*"):
            continue
        if not raw.startswith(" "):
            parts = raw.split()
            section = parts[0]
            if section == "NAME" and len(parts) > 1:
                name = parts[1]
            continue
        parts = raw.split()
        if section == "ROWS":
            code, rname = parts
            if code != "N":
                rows[rname] = code
                row_order.append(rname)
        elif section == "COLUMNS":
            if len(parts) >= 3 and parts[2] in ("'INTORG'", "'INTEND'"):
                marker_int = parts[2] == "'INTORG'"
                continue
            col, row, val = parts[0], parts[1], float(parts[2])
            if col not in columns:
                columns[col] = {}
                col_order.append(col)
                col_kind[col] = INTEGER if marker_int else CONTINUOUS
            columns[col][row] = val
        elif section == "RHS":
            rhs[parts[1]] = float(parts[2])
        elif section == "BOUNDS":
            code, _, col = parts[0], parts[1], parts[2]
            val = float(parts[3]) if len(parts) > 3 else None
            lo, hi = bounds.get(col, (0.0, INF))
            if code == "FR":
                lo, hi = -INF, INF
            elif code == "MI":
                lo = -INF
            elif code == "LO":
                lo = val
            elif code == "UP":
                hi = val
            elif code == "FX":
                lo = hi = val
            bounds[col] = (lo, hi)
    model = LpModel(name=name, sense="min")
    for col in col_order:
        lo, hi = bounds.get(col, (0.0, INF))
        kind = col_kind[col]
        if kind == INTEGER and lo == 0.0 and hi == 1.0:
            kind = BINARY
        model.add_var(col, lo, hi, kind)
    model.objective = {
        col: columns[col]["OBJ"] for col in col_order if "OBJ" in columns[col]
    }
    coeffs = {rname: {} for rname in row_order}  # per row: column -> value in column order
    for col in col_order:
        for rname, val in columns[col].items():
            if rname in coeffs:
                coeffs[rname][col] = val
    rel_code = {"L": "<=", "G": ">=", "E": "="}
    for rname in row_order:
        model.add_constraint(rname, coeffs[rname], rel_code[rows[rname]], rhs.get(rname, 0.0))
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
