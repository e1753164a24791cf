"""Dense two-phase primal simplex with implicit variable bounds, and a
dual simplex that resumes a solved tableau after its bounds tighten.

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
complemented, and each column strictly inside its bounds is pivoted onto a
row that is tight at the point and still has its slack or artificial
basic.  Then each tight '=' row whose artificial is still basic takes a
complemented column that is not fixed and is nonzero in no other such
row, all in one block pivot (_pivot_block).  In CG and CG_H each arc lies
in one '=' row and a plan sets one arc into each vertex, so every
artificial leaves there.  No surplus column and no free variable's second
column enters: a start with a positive surplus leaves that row's
artificial below 0, and one with a free variable below 0 leaves its first
column below 0, so both fail the final check.  If the start is
infeasible, or some column finds no such row (always so when the point is
no vertex), the tableau is built again and the two-phase method runs as
it does without a start.  Crash pivots count in `iterations`, one per row
of a block; a dropped start's do not.

Artificials: every start ends in one state, each artificial still basic
fixed at 0 (upper bound 0).  Phase 1 fixes them once it has found the
model feasible and the crash once its basis holds the start point, so
every tableau a resume copies has them fixed too.  Phase 2 and the dual
simplex treat one as any basic variable with upper bound 0: a pivot takes
it out at 0, and one still basic at the optimum gives its row a dual of 0.

Warm restart (branch-and-bound children; Koberstein, *The dual simplex
method, techniques for a fast and stable implementation*, PhD thesis,
Paderborn 2005, ch. 3): solve_lp(warm=parent) resumes from a copy of the
parent's final tableau (_Tableau.copy), whose cost row is still dual
feasible after bounds tighten.  The child's bounds come from the cold
solve's merge (_bounds: the model's bounds with the given ones tightened
on top, np.maximum and np.minimum), and comparing them as whole arrays
with the parent's gives the bounds that loosen, contradict or move.  A
column whose bounds move is shifted, T[:, -1] -= a * T[:, p],
basic or not, with a = the move of its lower bound (of its upper bound
when it is complemented); its new lower bound goes into a per-variable
offset for the read-out, and a fixed column stays in the tableau with
upper bound 0 and never enters, as a variable fixed in the model does.
A dual simplex restores feasibility:

- the row with the largest bound violation leaves; a basic variable above
  its upper bound is complemented first, so it leaves at 0;
- the bound-flipping ratio test picks the entering column: a boxed column
  whose breakpoint the dual step passes flips to its upper bound while the
  leaving row stays infeasible, and the column that would make it
  feasible enters;
- after m + (columns that may enter) dual-degenerate pivots the leaving
  row and the entering column are chosen by lowest index (Bland);
- when no column can enter, the node is infeasible.

Phase 2 then runs once to clean up, and the answer is checked against the
model in O(nnz): every row and bound within the feasibility tolerance.  A
bound that would loosen, a moved bound on a free or mirrored column, or a
failed check solves the node from scratch instead.

Standard form: _standardize reads the model's arrays (lpmodels) with no
loop over variables or rows: the bounds give each variable's column,
offset and sign, and the COO entries are shifted, masked and renumbered
as whole arrays.  Every variable has a column, one rule per shape: a
variable bounded below is shifted (x = lo + x'), one bounded only above
is mirrored (x = hi - x'), a free one is split (x = x' - x''), and one
whose bounds lie within feas_tol is shifted with upper bound 0, so it
never enters.  Every row that is not implied is a tableau row, one with
no entry or on fixed variables alone included; phase 1 or the dual
simplex finds it infeasible when it fails.  Only contradictory bounds
are answered before a tableau is built.  The dense tableau, (rows + 1) x
(columns + 1) floats, is sized before _tableau allocates it; one over
_MAX_TABLEAU_BYTES (1 GiB) raises TableauTooLargeError.

Layout: _standardize also fixes the tableau layout, and nothing changes
_Standardized after it returns.  A row with a negative right-hand side is
negated (sgn), so every right-hand side is at least 0.  The columns are
the structural ones, then a slack ('<=') or surplus ('>=') column per
inequality row, then an artificial per '>=' or '=' row; only the first
n_enter, structural, slack and surplus, may enter.  Each row has one unit
column, its '<=' slack or its artificial: _tableau starts with it basic,
and _solution reads the row's dual under it in the phase-2 cost row.
_tableau reads slack_col, the phase-2 setup the cost vector, and every
loop the feasibility tolerance scaled by the largest right-hand side.  A
_Tableau carries the solve state (tableau, basis, column bounds and
complements, variable offsets and bounds) that the cold, crashed and
resumed solves share.

Implied rows: the LpModel.implied mask marks the rows that the others and
the variable bounds imply.  In CG, CG_H and LC these are the sweep rows
whose arc set lies inside another row of the same child set with the same
other terms and right-hand side, so the tableau keeps one row per distinct
maximal clique of each child set instead of one per sweep point.
_standardize leaves them and their entries out of the tableau, and their
duals are 0, which keeps the duals optimal for the whole model.  Every
optimal answer, cold or resumed, is checked against every model row,
implied ones included, and every bound (_certify, O(nnz)); a cold answer
that fails raises NumericalFailureError, as does a phase 1, bounded below
by 0, that comes back unbounded.

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

from .errors import NumericalFailureError, TableauTooLargeError
from .lpmodels import LpModel

INF = math.inf
# the largest dense tableau a solve may allocate
_MAX_TABLEAU_BYTES = 1 << 30


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
    """primal[k] is the value of variable var_names[k] and dual[r] the
    dual of row row_names[r]; both are empty unless the status is
    'optimal'."""
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    objective: float | None
    primal: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dual: np.ndarray = field(default_factory=lambda: np.zeros(0))
    iterations: int = 0
    # the final tableau of an optimal solve, which solve_lp(warm=...) resumes
    tableau: _Tableau | None = field(default=None, repr=False, compare=False)


# Devex weights only grow; past this bound they are reset to 1 before
# they overflow
_DEVEX_RESET = 1e6

class _Standardized:
    """Rows A x (rel) b, b >= 0, over columns 0 <= x <= upper, and their
    tableau layout (Layout in the module docstring).

    Model variable k is offset[k] + sign[k] * x[col[k]], less x[col[k] + 1]
    when it is free; a fixed variable's column has upper bound 0.  Every
    constraint that is not implied becomes a row.
    """

    def __init__(self):
        self.offset = self.col = self.sign = self.free = None  # per variable
        self.lo = self.hi = None  # per variable: its bounds in effect
        self.upper = None    # per column: finite upper bound or INF
        self.cost = None     # per column: phase-2 cost, to be minimized
        self.origin = None   # per row: index of its model constraint
        self.sgn = None      # per row: -1.0 when the model row is negated, else 1.0
        self.rel = None      # per row: relation code, after the negation
        self.rhs = None      # per row: right-hand side, after the negation
        self.slack_col = None  # per row: its slack or surplus column, if it has one
        self.unit_col = None   # per row: its slack ('<=') or artificial column
        self.entries = None  # (row, column, value) arrays of A, after the negation
        self.n_enter = 0     # the columns that may enter: all but the artificials
        self.sense_mul = 1.0  # -1.0 for a max model
        self.tol = 0.0       # feas_tol scaled by the largest right-hand side


@dataclass(eq=False)
class _Tableau:
    """The state of a solve: the tableau T (the cost row last, the
    right-hand sides in the last column), the basic column of each row,
    each column's upper bound and whether it is complemented.  offset is
    std.offset with the lower bounds a restart moved into it, and lo and hi
    are the variables' bounds in effect.  An optimal solve keeps its final
    one on its LpSolution for a warm restart."""
    model: LpModel
    std: _Standardized
    T: np.ndarray
    basis: np.ndarray
    upper: np.ndarray
    flipped: np.ndarray
    offset: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def copy(self) -> _Tableau:
        """A copy with its own arrays; the model and std are shared."""
        return _Tableau(self.model, self.std, self.T.copy(), self.basis.copy(),
                        self.upper.copy(), self.flipped.copy(), self.offset.copy(),
                        self.lo.copy(), self.hi.copy())


def _bounds(model: LpModel, bounds):
    """Each variable's (lower, upper) bounds: the model's, tightened by
    bounds, a (lower, upper) pair of per-variable arrays, when given."""
    if bounds is None:
        return model.lower.copy(), model.upper.copy()
    return np.maximum(model.lower, bounds[0]), np.minimum(model.upper, bounds[1])


def _standardize(model: LpModel, bounds, feas_tol):
    """Standard form of the model and its tableau layout, or None when some
    variable's bounds contradict each other."""
    std = _Standardized()
    lo, hi = _bounds(model, bounds)
    if (lo > hi + feas_tol).any():
        return None  # contradictory bounds
    free = (lo == -INF) & (hi == INF)
    mirrored = (lo == -INF) & (hi < INF)  # x = hi - x'
    shifted = ~(free | mirrored)  # x = lo + x'
    width = np.where(free, 2, 1)  # a free x is x' - x''
    std.col = np.cumsum(width) - width
    upper = np.full(int(width.sum()), INF)
    gap = hi[shifted] - lo[shifted]
    # a variable whose bounds lie within feas_tol is fixed: upper bound 0
    upper[std.col[shifted]] = np.where(gap > feas_tol, gap, 0.0)
    std.offset = np.where(shifted, lo, np.where(mirrored, hi, 0.0))
    std.sign = np.where(mirrored, -1.0, 1.0)
    std.free = free
    std.lo, std.hi = lo, hi

    row, var, val, rel = model.row, model.var, model.val, model.rel
    rhs = model.rhs - np.bincount(row, weights=val * std.offset[var], minlength=len(rel))
    kept = ~model.implied  # implied rows and their entries stay out
    live = kept[row]
    std.origin = np.flatnonzero(kept)
    rhs = rhs[kept]
    std.sgn = np.where(rhs < 0, -1.0, 1.0)
    std.rel = np.where(rhs < 0, -rel[kept], rel[kept])
    std.rhs = std.sgn * rhs
    pos = np.cumsum(kept) - 1
    row, var, val = pos[row[live]], var[live], val[live]
    free = std.free[var]
    rows = np.concatenate([row, row[free]])
    std.entries = (rows, np.concatenate([std.col[var], std.col[var[free]] + 1]),
                   np.concatenate([val * std.sign[var], -val[free]]) * std.sgn[rows])

    has_slack, art = std.rel != 0, std.rel <= 0
    std.n_enter = len(upper) + int(has_slack.sum())
    std.slack_col = len(upper) + np.cumsum(has_slack) - 1
    std.unit_col = np.where(art, std.n_enter + np.cumsum(art) - 1, std.slack_col)
    std.upper = np.full(std.n_enter + int(art.sum()), INF)
    std.upper[:len(upper)] = upper
    std.sense_mul = 1.0 if model.sense == "min" else -1.0
    coef = std.sense_mul * model.cost
    std.cost = np.zeros(len(std.upper))
    # added to zeros, so that a zero cost stays +0.0 whatever its sign
    std.cost[std.col] += coef * std.sign
    std.cost[std.col[std.free] + 1] -= coef[std.free]
    std.tol = feas_tol * max(1.0, float(np.abs(std.rhs).max(initial=0.0)))
    return std


def _tableau(model: LpModel, std: _Standardized) -> _Tableau:
    """The starting tableau of the standard form, every row's unit column
    basic and the cost row 0; one over the byte budget is refused before
    it is allocated."""
    m, ncols = len(std.rhs), len(std.upper)
    size = (m + 1) * (ncols + 1) * 8
    if size > _MAX_TABLEAU_BYTES:
        raise TableauTooLargeError(
            f"{model.name}: its {m + 1} x {ncols + 1} tableau needs {size} bytes, "
            f"over the budget of {_MAX_TABLEAU_BYTES}")
    T = np.zeros((m + 1, ncols + 1))
    rows, cols, vals = std.entries
    T[rows, cols] = vals
    T[:m, -1] = std.rhs
    slack = np.flatnonzero(std.rel)
    T[slack, std.slack_col[slack]] = std.rel[slack]
    T[np.arange(m), std.unit_col] = 1.0
    return _Tableau(model, std, T, std.unit_col.copy(), std.upper.copy(),
                    np.zeros(ncols, dtype=bool), std.offset, std.lo, std.hi)


def _pivot(T, row, col):
    """Eliminate col from every other row.  Only rows where the column is
    nonzero and columns where the pivot row is nonzero change, so the
    update touches a small block of a sparse tableau.  It is addressed by
    flat index into the C-contiguous tableau, which numpy gathers and
    scatters faster than a 2-D fancy index; the arithmetic is the same."""
    T[row] /= T[row, col]
    column, pivot_row = T[:, col], T[row]
    rows = column.nonzero()[0]
    rows = rows[rows != row]
    cols = pivot_row.nonzero()[0]
    flat = T.reshape(-1)  # a view: every tableau is built C contiguous
    flat[(rows * T.shape[1])[:, None] + cols] -= np.multiply.outer(column[rows], pivot_row[cols])


def _pivot_block(T, rows, cols):
    """Pivot on (rows[i], cols[i]) for every i at once.  Each column must
    be zero in the other pivot rows; then T[rows][:, cols] is diagonal and
    the pivots leave each other's rows alone, so one division and one
    rank-k update of the rows where some column is nonzero equal the
    sequential _pivot calls, for a fraction of their per-call overhead."""
    pivot_rows = T[rows] / T[rows, cols][:, None]
    T[rows] = pivot_rows
    a = T[:, cols]
    hit = a.any(axis=1)
    hit[rows] = False
    T[hit] -= a[hit] @ pivot_rows


def _complement(T, cols, upper, flipped):
    """Substitute x = u - x' in nonbasic columns, one index or an array of
    distinct ones: the right-hand sides absorb u times each column, and
    the columns change sign."""
    T[:, -1] -= np.dot(T[:, cols], upper[cols])
    T[:, cols] *= -1.0
    flipped[cols] = ~flipped[cols]


def _optimize(tab: _Tableau, opts: SimplexOptions):
    """Pivot until the cost row has no improving column among the first
    n_enter.

    Returns ('optimal' | 'unbounded', pivots); bound flips are not pivots,
    but pivots and flips together may not pass max_iter, which every turn
    checks (a NaN entry can make the entering column flip forever).
    """
    T, basis, upper, flipped = tab.T, tab.basis, tab.upper, tab.flipped
    n_enter, m = tab.std.n_enter, len(basis)
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
    # a column fixed at 0 never enters: its flips would have zero length
    fixed = np.flatnonzero(upper[:n_enter] <= 0.0)
    # Devex reference weights: the entering column maximizes d_j^2 / w_j
    weight = np.ones(n_enter)
    score = np.empty(n_enter)
    while True:
        if iters + flips > opts.max_iter:
            raise NumericalFailureError(f"simplex exceeded {opts.max_iter} iterations")
        price = cost
        if fixed.size:
            price = cost.copy()
            price[fixed] = 0.0
        if degenerate <= bland_after:
            np.minimum(price, 0.0, out=score)
            score *= score
            score /= weight
            j = int(score.argmax())
            if price[j] >= -opts.opt_tol:  # only columns within tolerance left
                j = int(price.argmin())
        else:
            j = int((price < -opts.opt_tol).argmax())
        if price[j] >= -opts.opt_tol:
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
        # a variable fixed at 0 (an artificial left basic) leaves at 0
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


def _dual(tab: _Tableau, opts: SimplexOptions):
    """Dual simplex from a dual feasible cost row (the warm restart in the
    module docstring) until every basic variable is within its bounds.

    Returns ('optimal' | 'infeasible', pivots); 'optimal' means primal
    feasible, with the cost row still dual feasible.
    """
    T, basis, upper, flipped = tab.T, tab.basis, tab.upper, tab.flipped
    n_enter, m, tol = tab.std.n_enter, len(basis), tab.std.tol
    rhs = T[:m, -1]
    cost = T[m, :n_enter]
    iters = 0
    degenerate = 0
    bland_after = m + n_enter
    while True:
        bland = degenerate >= bland_after
        above = rhs - upper[basis]
        violation = np.maximum(-rhs, above)
        rows = (violation > tol).nonzero()[0]
        if not rows.size:
            return "optimal", iters
        # the largest violation leaves, or under Bland the lowest basis index
        r = int(rows[basis[rows].argmin()] if bland else violation.argmax())
        if above[r] > 0.0:  # above its upper bound: leave at 0 as x' = u - x
            _complement(T, int(basis[r]), upper, flipped)
            T[r] *= -1.0
        # row r's basic variable, rhs[r] < 0, rises with every column whose
        # alpha is negative; the dual step stops at their ratios d_j / -alpha_j
        alpha = T[r, :n_enter]
        cand = ((alpha < -opts.pivot_tol) & (upper[:n_enter] > 0.0)).nonzero()[0]
        step = -alpha[cand]
        ratio = np.maximum(cost[cand], 0.0) / step
        order = np.argsort(ratio, kind="stable") if bland else np.lexsort((-step, ratio))
        # bound flipping: a boxed column passed by the dual step flips to
        # its upper bound while row r stays below 0 by more than tol
        slope = -rhs[r]
        flips = []
        q = -1
        for k in order.tolist():
            j = int(cand[k])
            if step[k] * upper[j] >= slope - tol:
                q = j
                break
            slope -= step[k] * upper[j]
            flips.append(j)
        if flips:
            _complement(T, flips, upper, flipped)
        if q < 0:  # even with every column at its best bound row r fails
            return "infeasible", iters
        if ratio[k] <= opts.opt_tol:
            degenerate += 1
        _pivot(T, r, q)
        basis[r] = q
        iters += 1
        if iters > opts.max_iter:
            raise NumericalFailureError(f"dual simplex exceeded {opts.max_iter} iterations")


def _resume(model: LpModel, prev: _Tableau, bounds, opts: SimplexOptions):
    """Resume from a copy of prev, the tableau of an earlier solve of the
    same model, with the given bounds (the warm restart in the module
    docstring); prev is left as it was.

    Returns (solution or None, pivots); None when a bound would loosen, a
    free or mirrored column's bound moves, or the answer fails _certify."""
    std = prev.std
    if prev.model is not model:
        return None, 0
    lo, hi = _bounds(model, bounds)
    if (lo < prev.lo).any() or (hi > prev.hi).any():
        return None, 0
    if (lo > hi + opts.feas_tol).any():
        return LpSolution(status="infeasible", objective=None), 0
    moved = np.flatnonzero((lo != prev.lo) | (hi != prev.hi))
    if (std.free[moved] | (std.sign[moved] < 0)).any():
        return None, 0
    tab = prev.copy()
    tab.lo, tab.hi = lo, hi
    T, upper, offset = tab.T, tab.upper, tab.offset
    for k in moved.tolist():
        p = std.col[k]
        u = hi[k] - lo[k] if hi[k] - lo[k] > opts.feas_tol else 0.0
        # the column's value moves by shift: from its lower bound, or from
        # its upper bound when it is complemented
        shift = offset[k] + upper[p] - (lo[k] + u) if tab.flipped[p] else lo[k] - offset[k]
        if shift:
            T[:, -1] -= shift * T[:, p]
        offset[k] = lo[k]
        upper[p] = u
    status, pivots = _dual(tab, opts)
    if status == "infeasible":
        return LpSolution(status="infeasible", objective=None, iterations=pivots), pivots
    status, more = _optimize(tab, opts)
    pivots += more
    if status != "optimal":
        return None, pivots
    return _solution(tab, pivots), pivots


def _certify(tab: _Tableau, values: np.ndarray) -> bool:
    """Whether values meet every model row and bound within the solve's
    feasibility tolerance, in O(nnz)."""
    model, tol = tab.model, tab.std.tol
    rel, rhs = model.rel, model.rhs
    gap = np.bincount(model.row, weights=model.val * values[model.var], minlength=len(rhs)) - rhs
    bad = np.where(rel > 0, gap > tol, np.where(rel < 0, gap < -tol, np.abs(gap) > tol))
    return not bad.any() and bool((values >= tab.lo - tol).all() and (values <= tab.hi + tol).all())


def _solution(tab: _Tableau, iterations: int) -> LpSolution | None:
    """The optimal LpSolution read off a final tableau, or None when its
    values fail _certify."""
    model, std, T, upper, flipped, basis = tab.model, tab.std, tab.T, tab.upper, tab.flipped, tab.basis
    m = len(basis)
    x = np.where(flipped, upper, 0.0)
    x[basis] = np.where(flipped[basis], upper[basis] - T[:m, -1], T[:m, -1])
    values = tab.offset + std.sign * x[std.col]
    values[std.free] -= x[std.col[std.free] + 1]
    if not _certify(tab, values):
        return None
    costed = np.flatnonzero(model.cost)
    objective = sum(c * x for c, x in zip(model.cost[costed].tolist(), values[costed].tolist()))
    # a resume may complement an artificial, which negates its cost entry
    d = T[m, std.unit_col]
    y = np.zeros(len(model.rhs))
    y[std.origin] = np.where(flipped[std.unit_col], d, -d) * std.sgn * std.sense_mul
    return LpSolution(status="optimal", objective=float(objective), primal=values, dual=y,
                      iterations=iterations, tableau=tab)


def _start_columns(std: _Standardized, start) -> np.ndarray:
    """The start point, one value per variable, in standardized columns
    (the second column of a free variable and the slack and artificial
    columns are 0)."""
    x = np.zeros(len(std.upper))
    x[std.col] = (np.asarray(start, float) - std.offset) * std.sign
    return x


def _crash(tab: _Tableau, x: np.ndarray, opts: SimplexOptions):
    """Pivot from the slack/artificial basis to one whose basic solution is
    the start point x, a value per column (the crash in the module
    docstring).  Returns the pivots made, or None when x is infeasible or
    some column finds no row to enter on."""
    T, basis, upper, flipped, std = tab.T, tab.basis, tab.upper, tab.flipped, tab.std
    m, tol = len(basis), std.tol
    top = np.flatnonzero(x >= upper - tol)
    _complement(T, top, upper, flipped)
    inner = np.flatnonzero((np.abs(x) > tol) & ~flipped)
    # a row is tight when its slack or artificial is 0 at x
    tight = np.abs(T[:m, -1] - T[:m, inner] @ x[inner]) <= tol
    pivots = 0
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
    # a tight '=' row whose artificial is still basic takes a complemented
    # column that is nonzero in no other such row and is not fixed
    eq = np.flatnonzero((std.rel == 0) & (basis == std.unit_col) & (np.abs(T[:m, -1]) <= tol))
    if eq.size and top.size:
        size = np.abs(T[eq[:, None], top])
        size[:, ((size != 0.0).sum(axis=0) != 1) | (upper[top] <= 0.0)] = 0.0
        best = size.argmax(axis=1)
        ok = size[np.arange(eq.size), best] > opts.pivot_tol
        rows, cols = eq[ok], top[best[ok]]
        _pivot_block(T, rows, cols)
        basis[rows] = cols
        pivots += rows.size
    upper[std.n_enter:] = 0.0  # artificials never enter, so fix them all
    b = T[:m, -1]
    if (b < -tol).any() or (b > upper[basis] + tol).any():
        return None
    return pivots


def solve_lp(model: LpModel, options: SimplexOptions | None = None,
             bounds: tuple | None = None, start: np.ndarray | None = None,
             warm: LpSolution | None = None) -> LpSolution:
    """Solve the continuous model; integrality markers are ignored.

    bounds is a (lower, upper) pair of arrays, one value per variable,
    tightened on top of the model's own bounds (branch-and-bound passes
    each node's); a looser value leaves the model's bound in effect.  start
    is a feasible point, one value per variable; the solve then begins
    from a basis whose basic solution is that point and skips phase 1.  An
    infeasible start, or one the crash cannot turn into a basis, is
    dropped and the model is solved from scratch.  warm is an earlier
    optimal solution of this model whose bounds these only tighten; the
    solve resumes from its final tableau, which is left as it was (the
    warm restart in the module docstring).  Pivots of a resume that falls
    back to the cold solve count in `iterations`.
    """
    opts = options or DEFAULT_OPTIONS
    resumed = 0
    if warm is not None and warm.tableau is not None:
        sol, resumed = _resume(model, warm.tableau, bounds, opts)
        if sol is not None:
            return sol
    sol = _solve_cold(model, opts, bounds, start)
    sol.iterations += resumed
    return sol


def _solve_cold(model: LpModel, opts: SimplexOptions, bounds, start) -> LpSolution:
    """solve_lp from a fresh tableau: crash or two phases."""
    std = _standardize(model, bounds, opts.feas_tol)
    if std is None:
        return LpSolution(status="infeasible", objective=None)
    tab = _tableau(model, std)
    crash = None if start is None else _crash(tab, _start_columns(std, start), opts)
    if start is not None and crash is None:  # the start is dropped
        tab = _tableau(model, std)
    T, basis, m = tab.T, tab.basis, len(tab.basis)
    iterations = crash or 0

    art = np.flatnonzero(std.unit_col >= std.n_enter)
    if art.size and crash is None:
        T[m, std.n_enter:-1] = 1.0
        T[m] -= T[art].sum(axis=0)
        status, it1 = _optimize(tab, opts)
        iterations += it1
        if status != "optimal":  # phase 1 is bounded below by 0
            raise NumericalFailureError(f"phase 1 of {model.name} came back {status}")
        if -T[m, -1] > std.tol:
            return LpSolution(status="infeasible", objective=None, iterations=iterations)
        tab.upper[std.n_enter:] = 0.0  # as the crash leaves them

    # phase-2 costs in the current (partly complemented) columns; the
    # objective is read from the primal, so T[m, -1] is left as it is
    T[m, :-1] = np.where(tab.flipped, -std.cost, std.cost)
    c_basic = T[m, basis].copy()
    for i in np.flatnonzero(c_basic):
        T[m] -= c_basic[i] * T[i]
    status, it2 = _optimize(tab, opts)
    iterations += it2
    if status == "unbounded":
        return LpSolution(status="unbounded", objective=None, iterations=iterations)
    sol = _solution(tab, iterations)
    if sol is None:
        raise NumericalFailureError(f"{model.name}: the optimal basis fails a row or bound")
    return sol
