"""Dense two-phase primal simplex with implicit variable bounds.

Solves the continuous models built in lpmodels (integrality is ignored;
callers relax explicitly).  Devex pricing (Harris, "Pivot selection
methods of the Devex LP code", Math. Programming 5, 1973) with a switch to
Bland's rule after 3*(rows+cols) degenerate pivots; a two-phase start
keeps the duals clean for the duality checks the rest of the package
relies on.  The CG programs are highly degenerate, and on them Devex
needs far fewer pivots than choosing the most negative reduced cost.
Devex weights only grow, so they are all reset to 1 once one passes 1e6.

Bounded variables (Chvatal, *Linear Programming*, 1983, ch. 8): every
column is shifted or mirrored to a lower bound of 0 and keeps its finite
upper bound u outside the tableau, so a [0,1] variable adds no row.  A
column resting at its upper bound is complemented, x = u - x', which keeps
every nonbasic column at 0:

- the ratio test also stops a basic variable that rises to its upper bound;
- an entering variable that reaches its own bound first flips to it with
  no pivot;
- a variable that leaves the basis at its upper bound is complemented
  after the pivot;
- the primal is unflipped when it is read out.

A pivot updates only the rows where the pivot column is nonzero and the
columns where the pivot row is nonzero.

Crash start (Bixby, "Implementing the simplex method: the initial
basis", ORSA J. Computing 4(3), 1992): solve_lp(start=...) takes a
feasible point and builds a basis whose basic solution is that point, then
goes straight to phase 2.  Columns at their finite upper bound are
complemented, each column strictly inside its bounds is pivoted onto a row
that is tight at the point and still has its slack or artificial basic (a
'>=' row with a positive surplus takes its surplus), and the artificials
left in the basis are fixed at 0.  If the start is infeasible, or some
column finds no such row (always so when the point is no vertex), the
tableau is built again and the two-phase method runs as it does without a start.  Crash
pivots count in `iterations`; a dropped start's do not.

Dual sign convention: for a minimization problem the returned row duals
satisfy y >= 0 on '>=' rows, y <= 0 on '<=' rows, free on '='; signs flip
for maximization.  They are read from the phase-2 cost row under each
row's slack or artificial column.  Variable bounds are not rows, so their
duals are not returned: they sit in the reduced costs z_j = c_j - y'A_j.
At an optimum sum(y_r * rhs_r) + sum(z_j * x_j) equals the objective, so
sum(y_r * rhs_r) alone equals it when no variable with a nonzero reduced
cost rests at a nonzero bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailureError
from .lpmodels import LpModel

INF = math.inf


@dataclass
class SimplexOptions:
    feas_tol: float = 1e-9
    opt_tol: float = 1e-9
    int_tol: float = 1e-6
    pivot_tol: float = 1e-9
    max_iter: int = 200000


DEFAULT_OPTIONS = SimplexOptions()


@dataclass
class LpSolution:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    objective: float | None
    primal: dict = field(default_factory=dict)
    dual: dict = field(default_factory=dict)
    iterations: int = 0


# Devex weights only grow; past this bound they are reset to 1 before
# they overflow
_DEVEX_RESET = 1e6

# relation codes; each is also the sign of the row's slack column
_RELATION = {"<=": 1, ">=": -1, "=": 0}


class _Standardized:
    """Rows A x (rel) b over columns 0 <= x <= upper.

    Model variable k is offset[k] + sign[k] * x[col[k]], less x[col[k] + 1]
    when it is free; a fixed variable has col -1 and equals its offset.
    Only constraints that keep a column become rows.
    """

    def __init__(self, n_var):
        self.offset = np.zeros(n_var)
        self.col = np.full(n_var, -1, dtype=np.int64)
        self.sign = np.ones(n_var)
        self.free = np.zeros(n_var, dtype=bool)
        self.upper = []      # per column: finite upper bound or INF
        self.origin = None   # per row: index of its model constraint
        self.rel = None      # per row: relation code
        self.rhs = None      # per row: right-hand side
        self.entries = None  # (row, column, value) arrays of A


def _standardize(model: LpModel, overrides, feas_tol):
    """Standard form of the model, or None when some variable's bounds, or
    some constraint left without a column, cannot hold."""
    std = _Standardized(len(model.variables))
    for k, v in enumerate(model.variables):
        lo, hi = v.lower, v.upper
        if overrides and v.name in overrides:
            olo, ohi = overrides[v.name]
            lo, hi = max(lo, olo), min(hi, ohi)
        if lo > hi + feas_tol:
            return None  # contradictory bounds
        if hi - lo <= feas_tol and hi < INF:
            std.offset[k] = lo
            continue
        std.col[k] = len(std.upper)
        if lo == -INF and hi == INF:  # x = x' - x''
            std.free[k] = True
            std.upper += [INF, INF]
        elif lo > -INF:  # x = lo + x'
            std.offset[k] = lo
            std.upper.append(hi - lo)
        else:  # lo == -inf, hi finite: x = hi - x'
            std.offset[k] = hi
            std.sign[k] = -1.0
            std.upper.append(INF)

    index = model._index
    row, var, val = [], [], []
    for r, con in enumerate(model.constraints):
        row += [r] * len(con.coeffs)
        var += map(index.__getitem__, con.coeffs)
        val += con.coeffs.values()
    row = np.array(row, dtype=np.int64)
    var = np.array(var, dtype=np.int64)
    val = np.array(val, dtype=float)
    n_con = len(model.constraints)
    rel = np.array([_RELATION[con.relation] for con in model.constraints], dtype=np.int64)
    rhs = np.array([con.rhs for con in model.constraints], dtype=float)
    rhs -= np.bincount(row, weights=val * std.offset[var], minlength=n_con)
    live = std.col[var] >= 0
    kept = np.bincount(row[live], minlength=n_con) > 0
    for r in np.flatnonzero(~kept):
        if (rel[r] >= 0 and rhs[r] < -feas_tol) or (rel[r] <= 0 and rhs[r] > feas_tol):
            return None  # a constraint on fixed variables only fails
    std.origin = np.flatnonzero(kept)
    std.rel = rel[kept]
    std.rhs = rhs[kept]
    pos = np.cumsum(kept) - 1
    row, var, val = pos[row[live]], var[live], val[live]
    free = std.free[var]
    std.entries = (np.concatenate([row, row[free]]),
                   np.concatenate([std.col[var], std.col[var[free]] + 1]),
                   np.concatenate([val * std.sign[var], -val[free]]))
    return std


def _pivot(T, row, col):
    """Eliminate col from every other row.  Only rows where the column is
    nonzero and columns where the pivot row is nonzero change, so the
    update touches a small block of a sparse tableau."""
    T[row] /= T[row, col]
    rows = T[:, col].nonzero()[0]
    rows = rows[rows != row]
    cols = T[row].nonzero()[0]
    T[rows[:, None], cols] -= T[rows, col, None] * T[row, cols]


def _complement(T, col, upper, flipped):
    """Substitute x = u - x' in a nonbasic column: the right-hand sides
    absorb u times the column, and the column changes sign."""
    T[:, -1] -= upper[col] * T[:, col]
    T[:, col] *= -1.0
    flipped[col] = not flipped[col]


def _optimize(T, basis, n_enter, m, upper, flipped, opts):
    """Pivot until the cost row (row m) has no improving column among the
    first n_enter.

    Returns ('optimal' | 'unbounded', pivots); bound flips are not pivots.
    """
    iters = 0
    flips = 0
    degenerate = 0
    bland_after = 3 * (m + n_enter)
    if n_enter == 0:
        return "optimal", iters
    cost = T[m, :n_enter]
    rhs = T[:m, -1]
    upper_basic = upper[basis]
    ratios = np.empty(m)
    # Devex reference weights: the entering column maximizes d_j^2 / w_j
    weight = np.ones(n_enter)
    score = np.empty(n_enter)
    while True:
        if degenerate <= bland_after:
            np.minimum(cost, 0.0, out=score)
            score *= score
            score /= weight
            j = int(score.argmax())
            if cost[j] >= -opts.opt_tol:  # only columns within tolerance left
                j = int(cost.argmin())
        else:
            j = int((cost < -opts.opt_tol).argmax())
        if cost[j] >= -opts.opt_tol:
            return "optimal", iters
        col = T[:m, j]
        # a basic variable falls to 0 where col > 0 and rises to its upper
        # bound where col < 0
        ratios.fill(INF)
        np.divide(rhs, col, out=ratios, where=col > opts.pivot_tol)
        np.divide(upper_basic - rhs, -col, out=ratios, where=col < -opts.pivot_tol)
        best = float(ratios.min(initial=INF))
        if upper[j] <= best:
            if upper[j] == INF:
                return "unbounded", iters
            # the entering variable reaches its own bound first
            _complement(T, j, upper, flipped)
            flips += 1
            degenerate = 0
            continue
        ties = (ratios <= best + opts.feas_tol).nonzero()[0]
        # deterministic leaving choice; prefer lowest basis index on ties
        r = int(ties[basis[ties].argmin()])
        if best <= opts.feas_tol:
            degenerate += 1
        else:
            degenerate = 0
        leaving = int(basis[r])
        # a variable fixed at 0 (a crash's leftover artificial) leaves at 0
        at_upper = col[r] < 0 and upper_basic[r] > 0
        w_leaving = max(weight[j] / (col[r] * col[r]), 1.0)
        _pivot(T, r, j)
        # the new pivot row holds alpha_rk / alpha_rj for every column k
        np.square(T[r, :n_enter], out=score)
        score *= weight[j]
        np.maximum(weight, score, out=weight)
        if leaving < n_enter:
            weight[leaving] = w_leaving
        if weight.max() > _DEVEX_RESET:  # restart the reference framework
            weight.fill(1.0)
        basis[r] = j
        upper_basic[r] = upper[j]
        if at_upper:
            _complement(T, leaving, upper, flipped)
        iters += 1
        if iters + flips > opts.max_iter:
            raise NumericalFailureError(f"simplex exceeded {opts.max_iter} iterations")


def _start_columns(model: LpModel, std: _Standardized, start: dict) -> np.ndarray | None:
    """The start point in standardized columns (unnamed variables are 0),
    or None when it names a variable the model does not have."""
    value = np.zeros(len(model.variables))
    for name, v in start.items():
        if name not in model._index:
            return None
        value[model._index[name]] = v
    live = std.col >= 0
    x = np.zeros(len(std.upper))
    z = (value - std.offset) * std.sign
    x[std.col[live]] = np.where(std.free[live], np.maximum(z[live], 0.0), z[live])
    x[std.col[std.free] + 1] = np.maximum(-value[std.free], 0.0)
    return x


def _crash(T, basis, upper, flipped, x, rel, slack_col, n_enter, tol, opts):
    """Pivot from the slack/artificial basis to one whose basic solution is
    the start point x, a value per structural column (the crash in the
    module docstring).  Returns the pivots made, or None when x is
    infeasible or some column finds no row to enter on."""
    m = len(basis)
    n_struct = len(x)
    top = np.flatnonzero(x >= upper[:n_struct] - tol)
    T[:, -1] -= T[:, top] @ upper[top]
    T[:, top] *= -1.0
    flipped[top] = True
    inner = np.flatnonzero((np.abs(x) > tol) & ~flipped[:n_struct])
    # each row's slack or artificial at x, with every surplus at 0
    resid = T[:m, -1] - T[:m, inner] @ x[inner]
    tight = np.abs(resid) <= tol
    pivots = 0
    for r in np.flatnonzero((rel < 0) & (resid < -tol)):
        _pivot(T, r, slack_col[r])
        basis[r] = slack_col[r]
        pivots += 1
    for j in inner:
        # the tight row with the largest pivot element
        size = np.where(tight, np.abs(T[:m, j]), 0.0)
        r = int(size.argmax())
        if size[r] <= opts.pivot_tol:
            return None
        _pivot(T, r, j)
        basis[r] = j
        tight[r] = False
        pivots += 1
    upper[n_enter:] = 0.0  # artificials never enter, so fix them all
    b = T[:m, -1]
    if (b < -tol).any() or (b > upper[basis] + tol).any():
        return None
    return pivots


def solve_lp(model: LpModel, options: SimplexOptions | None = None,
             bound_overrides: dict | None = None, start: dict | None = None) -> LpSolution:
    """Solve the continuous model; integrality markers are ignored.

    bound_overrides maps variable names to (lower, upper) pairs tightened
    on top of the model's own bounds (used by branch-and-bound).  start
    maps variable names to a feasible point (unnamed variables are 0); the
    solve then begins from a basis whose basic solution is that point and
    skips phase 1.  An infeasible start, or one the crash cannot turn into
    a basis, is dropped and the model is solved from scratch.
    """
    opts = options or DEFAULT_OPTIONS
    std = _standardize(model, bound_overrides, opts.feas_tol)
    if std is None:
        return LpSolution(status="infeasible", objective=None)

    sense_mul = 1.0 if model.sense == "min" else -1.0
    n_struct = len(std.upper)
    index = model._index
    c_struct = np.zeros(n_struct)
    for name, coef in model.objective.items():
        k = index[name]
        p = std.col[k]
        if p >= 0:
            c_struct[p] += sense_mul * coef * std.sign[k]
            if std.free[k]:
                c_struct[p + 1] -= sense_mul * coef

    m = len(std.rhs)
    # rows with a negative right-hand side are negated
    sgn = np.where(std.rhs < 0, -1.0, 1.0)
    rel = np.where(std.rhs < 0, -std.rel, std.rel)
    # column layout: structural | slack/surplus | artificial.  Each row
    # has one unit column (its '<=' slack or its artificial) whose phase-2
    # reduced cost is minus the row's dual.
    has_slack = rel != 0
    art_rows = np.flatnonzero(rel <= 0)
    n_slack = int(has_slack.sum())
    n_art = len(art_rows)
    ncols = n_struct + n_slack + n_art
    n_enter = n_struct + n_slack  # artificials never re-enter
    slack_col = n_struct + np.cumsum(has_slack) - 1
    unit_col = slack_col.copy()
    unit_col[art_rows] = n_enter + np.arange(n_art)

    def tableau():
        T = np.zeros((m + 1, ncols + 1))
        rows, cols, vals = std.entries
        T[rows, cols] = vals * sgn[rows]
        T[:m, -1] = sgn * std.rhs
        T[has_slack.nonzero()[0], slack_col[has_slack]] = rel[has_slack]
        T[np.arange(m), unit_col] = 1.0
        upper = np.full(ncols, INF)
        upper[:n_struct] = std.upper
        return T, unit_col.copy(), upper, np.zeros(ncols, dtype=bool)

    T, basis, upper, flipped = tableau()
    b_max = float(np.abs(T[:m, -1]).max(initial=0.0))
    tol = opts.feas_tol * max(1.0, b_max)
    x = None if start is None else _start_columns(model, std, start)
    crash = None if x is None else _crash(T, basis, upper, flipped, x, rel, slack_col,
                                          n_enter, tol, opts)
    if x is not None and crash is None:  # the start is dropped
        T, basis, upper, flipped = tableau()
    iterations = crash or 0

    if n_art and crash is None:
        T[m, n_enter:ncols] = 1.0
        T[m] -= T[art_rows].sum(axis=0)
        status, it1 = _optimize(T, basis, n_enter, m, upper, flipped, opts)
        iterations += it1
        phase1 = -T[m, -1]
        if phase1 > tol:
            return LpSolution(status="infeasible", objective=None, iterations=iterations)
        # drive basic artificials out where possible; leftover rows are
        # redundant and stay inert
        for i in range(m):
            if basis[i] >= n_enter:
                row = T[i, :n_enter]
                j = int(np.argmax(np.abs(row)))
                if abs(row[j]) > opts.pivot_tol:
                    _pivot(T, i, j)
                    basis[i] = j
                    iterations += 1

    # phase-2 costs in the current (partly complemented) columns; the
    # objective is read from the primal, so T[m, -1] is left as it is
    c_ext = np.zeros(ncols)
    c_ext[:n_struct] = c_struct
    T[m, :ncols] = np.where(flipped, -c_ext, c_ext)
    c_basic = T[m, basis].copy()
    for i in np.flatnonzero(c_basic):
        T[m] -= c_basic[i] * T[i]
    status, it2 = _optimize(T, basis, n_enter, m, upper, flipped, opts)
    iterations += it2
    if status == "unbounded":
        return LpSolution(status="unbounded", objective=None, iterations=iterations)

    # x[-1] = 0 stands in for the column a fixed variable does not have
    x = np.append(np.where(flipped, upper, 0.0), 0.0)
    x[basis] = np.where(flipped[basis], upper[basis] - T[:m, -1], T[:m, -1])
    values = std.offset + std.sign * x[std.col]
    values[std.free] -= x[std.col[std.free] + 1]
    primal = dict(zip(model.var_names, values.tolist()))
    objective = sum(coef * primal[name] for name, coef in model.objective.items())

    dual = {con.name: 0.0 for con in model.constraints}
    y = -T[m, unit_col] * sgn * sense_mul
    for r, val in zip(std.origin.tolist(), y.tolist()):
        dual[model.constraints[r].name] = val

    return LpSolution(
        status="optimal",
        objective=float(objective),
        primal=primal,
        dual=dual,
        iterations=iterations,
    )
