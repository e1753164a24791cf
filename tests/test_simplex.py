import signal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import interval_reps

from circlecolor import simplex
from circlecolor.errors import NumericalFailureError, TableauTooLargeError
from circlecolor.instances import generate_one
from circlecolor.intervals import build_clique_matrix, build_dag
from circlecolor.lpmodels import (
    CONTINUOUS,
    INF,
    RELATION,
    LpModel,
    arc_var,
    build_cg,
    build_dlc,
    build_lc,
    parse_lp_text,
)
from circlecolor.simplex import SimplexOptions, solve_lp
from circlecolor.stowage import (
    build_cgh,
    effective_height,
    greedy_stack_plan,
    layer_var,
    plan_arcs,
)


def _model(sense="min", name="t"):
    return LpModel(name=name, sense=sense)


def _point(model, values):
    """The per-variable array of values, a dict by variable name; the
    variables it does not name are 0."""
    return np.array([values.get(name, 0.0) for name in model.var_names], float)


def _same(a, b):
    """Whether two solutions agree in status, objective and pivots, and
    entry by entry in their primal and dual arrays."""
    return ((a.status, a.objective, a.iterations) == (b.status, b.objective, b.iterations)
            and np.array_equal(a.primal, b.primal) and np.array_equal(a.dual, b.dual))


def _bounds(model, by_name):
    """A bounds pair for solve_lp: the (lower, upper) that by_name gives a
    variable by name, and (-inf, inf), which leaves the model's bounds in
    effect, for the others."""
    lower, upper = np.full(len(model.var_names), -INF), np.full(len(model.var_names), INF)
    for name, (lo, hi) in by_name.items():
        k = model.var_names.index(name)
        lower[k], upper[k] = lo, hi
    return lower, upper


def _reduced_costs(model, y):
    """d = c - A'y from the model's coefficient arrays, O(nnz)."""
    return model.cost - np.bincount(model.var, weights=model.val * y[model.row],
                                    minlength=len(model.cost))


def test_trivial_max():
    m = _model("max")
    m.add_var("x", 0.0, INF, cost=1.0)
    m.add_constraint("r", {"x": 1.0}, "<=", 1.0)
    sol = solve_lp(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0)
    assert sol.primal == pytest.approx([1.0])


def test_infeasible():
    m = _model()
    m.add_var("x", 0.0, INF, cost=1.0)
    m.add_constraint("a", {"x": 1.0}, "<=", 1.0)
    m.add_constraint("b", {"x": 1.0}, ">=", 2.0)
    assert solve_lp(m).status == "infeasible"


def test_unbounded():
    m = _model("max")
    m.add_var("x", 0.0, INF, cost=1.0)
    m.add_constraint("a", {"x": -1.0}, "<=", 1.0)
    assert solve_lp(m).status == "unbounded"


def test_free_variable_and_equality():
    m = _model()
    m.add_var("x", -INF, INF, cost=1.0)
    m.add_var("y", 0.0, INF, cost=2.0)
    m.add_constraint("a", {"x": 1.0, "y": 1.0}, "=", 3.0)
    m.add_constraint("b", {"x": 1.0}, ">=", -5.0)
    sol = solve_lp(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0)
    assert sol.primal == pytest.approx([3.0, 0.0])


def test_cg_relaxation_c5(c5):
    dag = build_dag(c5)
    m = build_clique_matrix(c5)
    sol = solve_lp(build_cg(c5, dag, m).relaxed())
    assert sol.objective == pytest.approx(2.5, abs=1e-6)


def test_duals_small_example():
    # min x st x >= 1 has dual value 1 on the binding row
    m = _model()
    m.add_var("x", 0.0, INF, cost=1.0)
    m.add_constraint("r", {"x": 1.0}, ">=", 1.0)
    sol = solve_lp(m)
    assert sol.dual == pytest.approx([1.0])


def _weak_duality_gap(model, sol):
    """c'x and y'b for the returned pair; equal at optimality by strong
    duality when signs are right."""
    return float(model.cost @ sol.primal), float(sol.dual @ model.rhs)


def test_duality_on_lc_dlc_pairs():
    rng = np.random.default_rng(31)
    for k in range(30):
        rep = generate_one(int(rng.integers(2, 11)), 451, k)
        dag = build_dag(rep)
        mat = build_clique_matrix(rep)
        values = {v: float(rng.integers(-5, 6)) for v in rep.vertices}
        lc = solve_lp(build_lc(0, rep, dag, mat, values))
        dlc = solve_lp(build_dlc(0, rep, dag, mat, values))
        assert lc.objective == pytest.approx(dlc.objective, abs=1e-7)


def test_lc_vertex_solution_integral():
    rng = np.random.default_rng(32)
    for k in range(30):
        rep = generate_one(int(rng.integers(2, 11)), 452, k)
        dag = build_dag(rep)
        mat = build_clique_matrix(rep)
        values = {v: float(rng.integers(-5, 6)) for v in rep.vertices}
        model = build_lc(0, rep, dag, mat, values)
        sol = solve_lp(model)
        for name, x in zip(model.var_names, sol.primal.tolist()):
            assert abs(x - round(x)) < 1e-6, (k, name, x)


def test_objective_stable_under_permutation():
    rng = np.random.default_rng(33)
    for k in range(10):
        rep = generate_one(int(rng.integers(2, 11)), 453, k)
        dag = build_dag(rep)
        mat = build_clique_matrix(rep)
        model = build_cg(rep, dag, mat).relaxed()
        base = solve_lp(model).objective
        shuffled = LpModel(name=model.name, sense=model.sense)
        cols = list(model.variables)
        rows = list(model.constraints)
        rng.shuffle(cols)
        rng.shuffle(rows)
        cost = dict(zip(model.var_names, model.cost.tolist()))
        for v in cols:
            shuffled.add_var(v.name, v.lower, v.upper, v.kind, cost[v.name])
        for r in rows:
            shuffled.add_constraint(r.name, dict(r.coeffs), r.relation, r.rhs)
        assert solve_lp(shuffled).objective == pytest.approx(base, abs=1e-8)


def test_dual_weak_duality_sign_convention():
    # random feasible bounded min problems with mixed rows: check y'b <= c'x
    rng = np.random.default_rng(34)
    for k in range(25):
        n_var, n_row = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        m = _model("min", f"rand{k}")
        names = [f"v{t}" for t in range(n_var)]
        m.add_vars(names, 0.0, 10.0, CONTINUOUS, [float(rng.integers(1, 6)) for nm in names])
        for r in range(n_row):
            coeffs = {nm: float(rng.integers(0, 4)) for nm in names}
            if all(c == 0 for c in coeffs.values()):
                coeffs[names[0]] = 1.0
            m.add_constraint(f"r{r}", coeffs, ">=", float(rng.integers(1, 8)))
        sol = solve_lp(m)
        assert sol.status == "optimal"
        primal_obj, dual_obj = _weak_duality_gap(m, sol)
        assert (sol.dual >= -1e-9).all()
        assert dual_obj <= primal_obj + 1e-7


# ---------------------------------------------------------------------------
# bounded variables and tableau duals


def _spy(monkeypatch, events):
    """Log ('pivot', row, column) and ('flip', column) steps; a complement
    of several columns logs a flip for each."""
    pivot, complement = simplex._pivot, simplex._complement

    def spy_pivot(T, row, col, *args):
        events.append(("pivot", row, col))
        pivot(T, row, col, *args)

    def spy_complement(T, cols, *args):
        events.extend(("flip", col) for col in np.atleast_1d(cols).tolist())
        complement(T, cols, *args)

    monkeypatch.setattr(simplex, "_pivot", spy_pivot)
    monkeypatch.setattr(simplex, "_complement", spy_complement)


def test_bound_flip_without_pivot(monkeypatch):
    # both variables reach their own bound before the row binds
    m = _model("max")
    m.add_var("x", 0.0, 1.0, cost=1.0)
    m.add_var("y", 0.0, 1.0, cost=2.0)
    m.add_constraint("r", {"x": 1.0, "y": 1.0}, "<=", 5.0)
    events = []
    _spy(monkeypatch, events)
    sol = solve_lp(m)
    assert sol.status == "optimal"
    assert sol.iterations == 0
    assert events == [("flip", 1), ("flip", 0)]
    assert sol.primal.tolist() == [1.0, 1.0]
    assert sol.objective == pytest.approx(3.0)
    assert sol.dual.tolist() == [0.0]


def test_basic_variable_leaves_at_upper_bound(monkeypatch):
    m = _model("max")
    m.add_var("x", 0.0, 2.0, cost=1.0)
    m.add_var("y", 0.0, 3.0)
    m.add_var("z", 0.0, 2.0, cost=1.0)
    m.add_constraint("r", {"x": 2.0, "y": -1.0, "z": 1.0}, "<=", 2.0)
    events = []
    _spy(monkeypatch, events)
    sol = solve_lp(m, SimplexOptions(max_iter=50))
    assert sol.status == "optimal"
    # every pivot but the first lifts the basic variable to its upper
    # bound: x (column 0) as y enters, y as z enters, then z as x' = 2 - x
    # enters; each is complemented right after its pivot
    assert events == [("pivot", 0, 0), ("pivot", 0, 1), ("flip", 0), ("pivot", 0, 2),
                      ("flip", 1), ("pivot", 0, 0), ("flip", 2)]
    assert sol.iterations == 4
    assert sol.primal == pytest.approx([1.5, 3.0, 2.0])
    assert sol.objective == pytest.approx(3.5)
    assert sol.dual == pytest.approx([0.5])


def test_complementing_an_array_equals_one_call_per_column():
    # negating the columns is exact; the right-hand sides subtract one sum
    # instead of one product at a time, which is exact on integer values
    # (the 0/1 entries and integer bounds of CG) and within rounding on others
    rng = np.random.default_rng(41)
    for values, exact in ((rng.integers(-3, 4, size=(7, 10)).astype(float), True),
                          (rng.normal(size=(7, 10)), False)):
        upper = np.abs(values[0, :-1]) + 1.0
        cols = np.array([0, 3, 4, 8])
        flipped = rng.random(9) < 0.5
        T, one = values.copy(), values.copy()
        flips, one_flips = flipped.copy(), flipped.copy()
        simplex._complement(T, cols, upper, flips)
        for col in cols.tolist():
            simplex._complement(one, col, upper, one_flips)
        assert np.array_equal(flips, one_flips) and np.array_equal(flips[cols], ~flipped[cols])
        assert np.array_equal(T[:, :-1], one[:, :-1])
        if exact:
            assert np.array_equal(T[:, -1], one[:, -1])
        else:
            np.testing.assert_allclose(T[:, -1], one[:, -1], rtol=1e-14, atol=1e-14)


def _bounds_as_rows(model):
    """The same LP with every finite bound written as a constraint row and
    every variable free, so no implicit bound is left to the solver."""
    out = LpModel(name=model.name, sense=model.sense)
    for v, cost in zip(model.variables, model.cost.tolist()):
        out.add_var(v.name, -INF, INF, cost=cost)
        if v.lower > -INF:
            out.add_constraint(f"lo_{v.name}", {v.name: 1.0}, ">=", v.lower)
        if v.upper < INF:
            out.add_constraint(f"hi_{v.name}", {v.name: 1.0}, "<=", v.upper)
    for r in model.constraints:
        out.add_constraint(r.name, dict(r.coeffs), r.relation, r.rhs)
    return out


def _random_bounded_lp(rng, k):
    """A random LP over every bound shape: [lo, hi] with lo > 0, lo < 0 < hi
    and hi < 0, [lo, inf), (-inf, hi], (-inf, inf) and [0, 1].  Returns the
    model and a point strictly inside its bounds that meets every row
    ('<=' and '>=' rows with slack 1, '=' rows exactly)."""
    shapes = [(2.0, 5.0), (-3.0, 4.0), (-6.0, -1.0), (1.5, INF), (-INF, 3.0),
              (-INF, INF), (0.0, 1.0)]
    m = _model(["min", "max"][k % 2], f"b{k}")
    names = []
    for t in range(int(rng.integers(3, 8))):
        lo, hi = shapes[int(rng.integers(len(shapes)))]
        names.append(m.add_var(f"v{t}", lo, hi))
    point = {}
    for v in m.variables:
        lo = v.lower if v.lower > -INF else v.upper - 3.0 if v.upper < INF else -2.0
        hi = v.upper if v.upper < INF else lo + 3.0
        point[v.name] = float(rng.uniform(lo, hi))
    # drawn after the point, so written into the cost array in place
    m.cost[:] = [float(rng.integers(-4, 5)) for nm in names]
    for r in range(int(rng.integers(1, 5))):
        coeffs = {nm: float(rng.integers(-3, 4)) for nm in names if rng.random() < 0.7}
        coeffs = coeffs or {names[0]: 1.0}
        at = sum(c * point[nm] for nm, c in coeffs.items())
        rel = ["<=", ">=", "="][int(rng.integers(3))]
        rhs = at if rel == "=" else at + 1.0 if rel == "<=" else at - 1.0
        m.add_constraint(f"r{r}", coeffs, rel, rhs)
    return m, _point(m, point)


def test_shifted_mirrored_free_and_bounded_columns_agree_with_bound_rows():
    rng = np.random.default_rng(35)
    statuses = set()
    for k in range(60):
        m, _ = _random_bounded_lp(rng, k)
        got = solve_lp(m)
        want = solve_lp(_bounds_as_rows(m))
        statuses.add(got.status)
        assert got.status == want.status, k
        if got.status != "optimal":
            continue
        assert got.objective == pytest.approx(want.objective, abs=1e-7), k
        _assert_optimality_conditions(m, got, k)
    assert statuses == {"optimal", "unbounded"}


def _assert_optimality_conditions(model, sol, k, tol=1e-7):
    """The primal is feasible; the row duals have the documented signs and
    vanish on slack rows; each reduced cost d = c - A'y (the dual of a
    variable bound) is zero unless its variable rests at the bound it
    points to.  Every check is an array expression over the model's
    arrays, O(nnz)."""
    s = 1.0 if model.sense == "min" else -1.0
    x, y, lo, hi = sol.primal, s * sol.dual, model.lower, model.upper
    slack = np.bincount(model.row, weights=model.val * x[model.var],
                        minlength=len(model.rhs)) - model.rhs
    ok = np.select([model.rel == RELATION["<="], model.rel == RELATION[">="]],
                   [(slack <= tol) & (y <= tol), (slack >= -tol) & (y >= -tol)],
                   np.abs(slack) <= tol)
    ok &= (np.abs(y) <= tol) | (np.abs(slack) <= tol)
    bad = np.flatnonzero(~ok)[:1].tolist()
    assert not bad, (k, [(model.row_names[r], slack[r], y[r]) for r in bad])
    z = s * _reduced_costs(model, sol.dual)
    ok = (lo - tol <= x) & (x <= hi + tol)
    ok &= (z <= tol) | (x <= lo + tol)
    ok &= (z >= -tol) | (x >= hi - tol)
    bad = np.flatnonzero(~ok)[:1].tolist()
    assert not bad, (k, [(model.var_names[j], z[j], x[j]) for j in bad])


def test_bounds_tighten_unit_interval():
    m = _model("max")
    m.add_var("x", 0.0, 1.0, cost=2.0)
    m.add_var("y", 0.0, 1.0, cost=1.0)
    m.add_constraint("r", {"x": 1.0, "y": 1.0}, "<=", 1.5)
    assert solve_lp(m).primal == pytest.approx([1.0, 0.5])
    cases = [
        ((0.0, 0.0), [0.0, 1.0]),   # fixed at 0
        ((1.0, 1.0), [1.0, 0.5]),   # fixed at 1
        ((0.0, 0.25), [0.25, 1.0]),  # tighter upper bound
        ((0.75, 2.0), [1.0, 0.5]),  # only the lower bound tightens
        ((-1.0, 0.5), [0.5, 1.0]),  # a looser lower bound is ignored
    ]
    for bounds, want in cases:
        sol = solve_lp(m, bounds=_bounds(m, {"x": bounds}))
        assert sol.status == "optimal", bounds
        assert sol.primal == pytest.approx(want), bounds
        assert sol.objective == pytest.approx(2.0 * want[0] + want[1]), bounds
    assert solve_lp(m, bounds=_bounds(m, {"x": (1.0, 0.0)})).status == "infeasible"


def test_bounds_looser_than_the_models_are_tightened_to_them(monkeypatch):
    # bounds wider than the model's on every variable, or on some, solve
    # as the model's own bounds do: the same answer and the same pivots
    rng = np.random.default_rng(43)
    for k in range(40):
        m, _ = _random_bounded_lp(rng, k)
        want_events, got_events = [], []
        with monkeypatch.context() as patch:
            _spy(patch, want_events)
            want = solve_lp(m)
        wide = rng.random(len(m.var_names)) < 0.7
        loose = (np.where(wide, -INF, m.lower - rng.uniform(0, 2, len(m.var_names))),
                 np.where(wide, INF, m.upper + rng.uniform(0, 2, len(m.var_names))))
        with monkeypatch.context() as patch:
            _spy(patch, got_events)
            got = solve_lp(m, bounds=loose)
        assert _same(got, want) and got_events == want_events, k
        for f in ("lo", "hi"):
            if want.tableau is not None:
                assert np.array_equal(getattr(got.tableau, f), getattr(want.tableau, f)), (k, f)


def test_tableau_duals_match_basis_solve(monkeypatch):
    """The duals read off the cost row equal B^-T c_B for the final basis
    B of the tableau rows, implied rows' duals are 0, and with the bound
    duals from the reduced costs they close the duality gap."""
    seen = {}
    orig = simplex._optimize

    def spy(tab, *args):
        seen.setdefault("A", tab.T[:-1, :-1].copy())  # first call: no pivot yet
        seen["basis"] = tab.basis  # updated in place up to the optimum
        return orig(tab, *args)

    monkeypatch.setattr(simplex, "_optimize", spy)
    rng = np.random.default_rng(36)
    for k in range(30):
        rep = generate_one(int(rng.integers(2, 16)), 454, k)
        model = build_cg(rep, build_dag(rep), build_clique_matrix(rep)).relaxed()
        seen.clear()
        sol = solve_lp(model)
        assert sol.status == "optimal"
        A, basis = seen["A"], seen["basis"]
        c = np.zeros(A.shape[1])
        c[:len(model.variables)] = model.cost
        y_ref = np.linalg.solve(A[:, basis].T, c[basis])
        y = sol.dual
        assert np.abs(y[~model.implied] - y_ref).max() <= 1e-9, k
        assert not y[model.implied].any(), k
        # strong duality: y'b plus u times each negative reduced cost
        z, x = _reduced_costs(model, y), sol.primal
        assert ((z >= -1e-9) | (np.abs(x - model.upper) <= 1e-9)).all(), k
        assert ((z <= 1e-9) | (np.abs(x - model.lower) <= 1e-9)).all(), k
        dual_obj = y @ model.rhs + z[z < 0] @ model.upper[z < 0]
        assert dual_obj == pytest.approx(sol.objective, abs=1e-9), k


# ---------------------------------------------------------------------------
# crash start and Devex weights


def _cg_start(rep):
    """The CG relaxation of rep, started from the greedy stack plan with
    no binding height (first fit)."""
    model = build_cg(rep, build_dag(rep), build_clique_matrix(rep)).relaxed()
    plan = greedy_stack_plan(rep, rep.n)
    start = {arc_var(i, j): 1.0 for i, _, j in plan_arcs(rep, plan)}
    return model, _point(model, start | {"c": plan.num_stacks})


def _cgh_start(rep, height):
    """The CG_H relaxation of rep, started from the greedy stack plan."""
    h = effective_height(rep, height)
    model = build_cgh(rep, build_dag(rep), build_clique_matrix(rep), h).relaxed()
    plan = greedy_stack_plan(rep, h)
    start = {layer_var(*arc): 1.0 for arc in plan_arcs(rep, plan)}
    return model, _point(model, start | {"c": plan.num_stacks})


def _crashed(model, start):
    """solve_lp from start, and whether the crash took (no fallback)."""
    results = []
    crash = simplex._crash

    def spy(*args):
        results.append(crash(*args))
        return results[-1]

    with mock.patch.object(simplex, "_crash", spy):
        sol = solve_lp(model, start=start)
    return sol, bool(results) and results[0] is not None


def _dual_objective(model, sol):
    """y'b plus, for each variable, its reduced cost times the bound that
    cost points at (a min model)."""
    z = _reduced_costs(model, sol.dual)
    bound = np.where(z < 0, model.upper, model.lower)
    finite = np.abs(bound) < INF
    return float(sol.dual @ model.rhs + z[finite] @ bound[finite])


@settings(max_examples=60, deadline=None)
@given(interval_reps(max_n=10), st.integers(1, 3))
def test_crash_start_matches_the_cold_solve(rep, height):
    for model, start in (_cg_start(rep), _cgh_start(rep, height)):
        warm, took = _crashed(model, start)
        cold = solve_lp(model)
        assert took, model.name
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9), model.name


@settings(max_examples=60, deadline=None)
@given(interval_reps(max_n=10), st.integers(1, 3))
def test_crash_start_duals_are_optimal(rep, height):
    for model, start in (_cg_start(rep), _cgh_start(rep, height)):
        sol, took = _crashed(model, start)
        assert took, model.name
        _assert_optimality_conditions(model, sol, model.name, tol=1e-9)
        assert _dual_objective(model, sol) == pytest.approx(sol.objective, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(interval_reps(max_n=10))
def test_a_bad_cg_start_falls_back_to_the_cold_solve(rep):
    model, start = _cg_start(rep)
    cold = solve_lp(model)
    at_root = _point(model, {arc_var(0, j): 1.0 for j in rep.vertices} | {"c": rep.n})
    unit_c = _point(model, {"c": 1.0})
    bad = [
        _point(model, {}),  # every parent row fails
        start - 0.5 * unit_c,  # some root row fails
        # c sits strictly inside its bounds and no root row is tight
        at_root + 0.5 * unit_c,
    ]
    # the midpoint of two feasible points is no vertex, so no basis has it
    # as its basic solution
    if not np.array_equal(start, at_root):
        bad.append((start + at_root) / 2)
    for k, s in enumerate(bad):
        sol, took = _crashed(model, s)
        assert not took, k
        assert _same(sol, cold), k


def test_a_start_on_a_positive_surplus_or_a_negative_free_value_is_dropped():
    # the crash enters neither a surplus column nor a free variable's
    # second column: x = 3 leaves row lo's artificial at -2, and y = -2
    # puts y's first column below 0, so both starts fail the crash's final
    # check and the answer is the cold solve's
    surplus = _model()
    surplus.add_var("x", 0.0, INF, cost=-1.0)
    surplus.add_constraint("hi", {"x": 1.0}, "<=", 3.0)
    surplus.add_constraint("lo", {"x": 1.0}, ">=", 1.0)
    free = _model()
    free.add_var("y", -INF, INF, cost=1.0)
    free.add_var("z", 0.0, 1.0, cost=1.0)
    free.add_constraint("lo", {"y": 1.0, "z": 1.0}, ">=", -2.0)
    for model, start in ((surplus, [3.0]), (free, [-2.0, 0.0])):
        sol, took = _crashed(model, np.array(start))
        assert not took, model.var_names
        assert _same(sol, solve_lp(model)), model.var_names
        assert sol.primal == pytest.approx(start)


def test_crash_start_on_every_bound_shape():
    # from the cold optimum the crash lands on an optimal basis; from a
    # point strictly inside all bounds it falls back to the cold solve
    rng = np.random.default_rng(37)
    took_some = False
    for k in range(60):
        m, point = _random_bounded_lp(rng, k)
        cold = solve_lp(m)
        if cold.status != "optimal":
            continue
        warm, took = _crashed(m, cold.primal)
        took_some |= took
        assert warm.objective == pytest.approx(cold.objective, abs=1e-7), k
        _assert_optimality_conditions(m, warm, k)
        sol, took = _crashed(m, point)
        assert _same(sol, cold) or took, k
        assert sol.objective == pytest.approx(cold.objective, abs=1e-7), k
        off = cold.primal.copy()
        off[0] += 1.0  # v0 breaks a row or a bound
        sol, took = _crashed(m, off)
        assert _same(sol, cold) or took, k
    assert took_some


def _crash_input(model, start):
    """The starting tableau of model and start in its columns: what
    _crash takes."""
    std = simplex._standardize(model, None, simplex.DEFAULT_OPTIONS.feas_tol)
    return simplex._tableau(model, std), simplex._start_columns(std, start)


@settings(max_examples=60, deadline=None)
@given(interval_reps(max_n=10), st.integers(1, 3))
def test_the_crash_pivots_out_every_equality_rows_artificial(rep, height):
    # each arc lies in one '=' row and a plan sets one arc into each vertex,
    # so every parent_j / enter_j row takes its plan arc
    for model, start in (_cg_start(rep), _cgh_start(rep, height)):
        tab, x = _crash_input(model, start)
        assert simplex._crash(tab, x, simplex.DEFAULT_OPTIONS) is not None, model.name
        eq = tab.std.rel == 0
        assert eq.any(), model.name
        assert not np.isin(tab.std.unit_col[eq], tab.basis).any(), model.name


def test_the_crashed_basis_reads_back_the_start():
    # the '=' rows' pivots are degenerate: every column keeps its start value
    rep = generate_one(25, 21, 0)
    model, start = _cg_start(rep)
    tab, x = _crash_input(model, start)
    crash = simplex._crash(tab, x, simplex.DEFAULT_OPTIONS)
    assert crash is not None and crash > rep.n
    m = len(tab.basis)
    value = np.where(tab.flipped, tab.upper, 0.0)
    b = tab.T[:m, -1]
    value[tab.basis] = np.where(tab.flipped[tab.basis], tab.upper[tab.basis] - b, b)
    np.testing.assert_allclose(value[tab.std.col], x[tab.std.col], rtol=0.0, atol=1e-9)


def test_the_block_pivot_equals_sequential_pivots():
    rep = generate_one(25, 21, 0)
    model, start = _cg_start(rep)
    tab, x = _crash_input(model, start)
    seq = tab.copy()
    blocks = []
    block = simplex._pivot_block

    def spy(T, rows, cols):
        blocks.append(len(rows))
        block(T, rows, cols)

    def one_by_one(T, rows, cols):
        for r, c in zip(rows, cols):
            simplex._pivot(T, r, c)

    with mock.patch.object(simplex, "_pivot_block", spy):
        crash = simplex._crash(tab, x, simplex.DEFAULT_OPTIONS)
    with mock.patch.object(simplex, "_pivot_block", one_by_one):
        assert simplex._crash(seq, x, simplex.DEFAULT_OPTIONS) == crash
    assert blocks == [rep.n]
    np.testing.assert_allclose(tab.T, seq.T, rtol=0.0, atol=1e-12)
    assert (tab.basis == seq.basis).all()


def test_an_at_upper_column_in_two_equality_rows_keeps_their_artificials():
    # x rests at its upper bound in rows a and b, so neither row takes it
    # and both artificials stay basic at 0; row c takes w
    m = _model()
    m.add_vars(list("xyzw"), 0.0, 1.0, cost=[3.0, 1.0, 1.0, 1.0])
    m.add_constraint("a", {"x": 1.0, "y": 1.0}, "=", 1.0)
    m.add_constraint("b", {"x": 1.0, "z": 1.0}, "=", 1.0)
    m.add_constraint("c", {"w": 1.0}, "=", 1.0)
    start = np.array([1.0, 0.0, 0.0, 1.0])
    tab, x = _crash_input(m, start)
    assert simplex._crash(tab, x, simplex.DEFAULT_OPTIONS) == 1
    art = tab.std.unit_col
    assert tab.basis.tolist() == [art[0], art[1], tab.std.col[m._index["w"]]]
    sol, took = _crashed(m, start)
    cold = solve_lp(m)
    assert took
    assert sol.objective == pytest.approx(cold.objective, abs=1e-12) == 3.0
    assert sol.primal == pytest.approx(cold.primal, abs=1e-12)
    _assert_optimality_conditions(m, sol, "a, b", tol=1e-9)


# ---------------------------------------------------------------------------
# fixed variables and empty rows


def _pinned_model():
    """min x + 2y + 3z with z fixed at 2 and a row on z alone."""
    m = _model()
    m.add_var("x", 0.0, 1.0, cost=1.0)
    m.add_var("y", 0.0, INF, cost=2.0)
    m.add_var("z", 2.0, 2.0, cost=3.0)
    m.add_constraint("r", {"x": 1.0, "y": 1.0, "z": 1.0}, ">=", 3.5)
    m.add_constraint("zr", {"z": 1.0}, "<=", 2.0)
    return m


def test_a_fixed_variable_is_a_column_with_upper_bound_0_in_every_solve():
    m = _pinned_model()
    cold = solve_lp(m)
    assert cold.primal.tolist() == [1.0, 0.5, 2.0]
    crashed, took = _crashed(m, cold.primal)
    with mock.patch.object(simplex, "_solve_cold", wraps=simplex._solve_cold) as fallback:
        resumed = solve_lp(m, bounds=_bounds(m, {"x": (0.0, 0.5)}), warm=cold)
    assert not fallback.called
    assert took and np.array_equal(crashed.primal, cold.primal)
    assert resumed.primal.tolist() == [0.5, 1.0, 2.0]
    tight = m.relaxed()
    tight.upper[m._index["x"]] = 0.5
    for how, model, sol in (("cold", m, cold), ("crash", m, crashed), ("resume", tight, resumed)):
        tab = sol.tableau
        z = tab.std.col[m._index["z"]]
        assert tab.upper[z] == 0.0 and z not in tab.basis, how
        assert len(tab.basis) == 2, how  # zr is a row of the tableau too
        _assert_optimality_conditions(model, sol, how, tol=1e-12)
    # within feas_tol of each other the bounds still fix z, at its lower one
    m.upper[m._index["z"]] = 2.0 + 1e-10
    sol = solve_lp(m)
    assert sol.primal[m._index["z"]] == 2.0
    assert sol.tableau.upper[sol.tableau.std.col[m._index["z"]]] == 0.0


def test_the_crash_takes_an_equality_rows_artificial_out_with_no_fixed_column():
    # x and z both rest at their upper bound and lie in row a alone; z has
    # the larger entry, but it is fixed, so x enters
    m = _model()
    m.add_var("x", 0.0, 1.0, cost=1.0)
    m.add_var("z", 0.0, 0.0, cost=1.0)
    m.add_constraint("a", {"x": 1.0, "z": 2.0}, "=", 1.0)
    tab, x = _crash_input(m, np.array([1.0, 0.0]))
    assert simplex._crash(tab, x, simplex.DEFAULT_OPTIONS) == 1
    assert tab.basis.tolist() == [tab.std.col[m._index["x"]]]


def test_a_row_on_fixed_variables_alone_that_fails_is_infeasible():
    m = _pinned_model()
    m.rhs[m.row_names.index("zr")] = 1.0
    assert solve_lp(m).status == "infeasible"
    assert solve_lp(m, start=np.array([1.0, 0.5, 2.0])).status == "infeasible"
    # a resumed node that fixes z's row to fail
    m = _pinned_model()
    m.add_var("w", 0.0, 1.0)
    m.add_constraint("wr", {"w": 1.0}, ">=", 0.5)
    root = solve_lp(m)
    assert root.status == "optimal"
    assert solve_lp(m, bounds=_bounds(m, {"w": (0.0, 0.0)}), warm=root).status == "infeasible"


def _with_empty_row(relation, rhs):
    m = _model()
    m.add_var("x", 0.0, 1.0, cost=1.0)
    m.add_constraint("r", {"x": 1.0}, ">=", 0.5)
    m.add_constraint("e", {}, relation, rhs)
    return m


@pytest.mark.parametrize("relation, rhs", [("<=", 1.0), (">=", -1.0), ("=", 0.0), ("<=", 0.0)])
def test_a_satisfied_empty_row_is_a_row_with_dual_0(relation, rhs):
    m = _with_empty_row(relation, rhs)
    cold = solve_lp(m)
    crashed, took = _crashed(m, np.array([0.5]))
    assert took
    for sol in (cold, crashed):
        assert sol.status == "optimal"
        assert sol.primal.tolist() == [0.5]
        assert sol.dual.tolist() == [1.0, 0.0]
        assert len(sol.tableau.basis) == 2


@pytest.mark.parametrize("relation, rhs", [(">=", 1.0), ("=", 1.0), ("=", -1.0), ("<=", -1.0)])
def test_a_violated_empty_row_is_infeasible(relation, rhs):
    m = _with_empty_row(relation, rhs)
    assert solve_lp(m).status == "infeasible"
    sol, took = _crashed(m, np.array([0.5]))
    assert not took
    assert sol.status == "infeasible"


# ---------------------------------------------------------------------------
# artificials


def test_every_start_ends_with_its_artificials_fixed_at_0():
    # cold two-phase solves, crashes from the cold optimum, and resumes
    # after a boxed column's upper bound falls below its optimal value
    rng = np.random.default_rng(42)
    seen = set()
    for k in range(80):
        m, _ = _random_bounded_lp(rng, k)
        cold = solve_lp(m)
        if cold.status != "optimal":
            continue
        solves = [("cold", m, cold)]
        crashed, took = _crashed(m, cold.primal)
        if took:
            solves.append(("crash", m, crashed))
        boxed = [(v, x) for v, x in zip(m.variables, cold.primal.tolist())
                 if -INF < v.lower and v.upper < INF and x > v.lower + 0.1]
        if boxed:
            v, x = boxed[0]
            bounds = (v.lower, (v.lower + x) / 2)
            with mock.patch.object(simplex, "_solve_cold", wraps=simplex._solve_cold) as fallback:
                resumed = solve_lp(m, bounds=_bounds(m, {v.name: bounds}), warm=cold)
            tight = m.relaxed()
            tight.lower[m._index[v.name]], tight.upper[m._index[v.name]] = bounds
            if not fallback.called:
                solves.append(("resume", tight, resumed))
        for how, model, sol in solves:
            if sol.status != "optimal":
                continue
            seen.add(how)
            tab = sol.tableau
            assert not tab.upper[tab.std.n_enter:].any(), (k, how)
            _assert_optimality_conditions(model, sol, (k, how))
    assert seen == {"cold", "crash", "resume"}


def test_an_artificial_that_phase_one_leaves_basic_stays_there_at_0():
    # phase 1 ends with r2's artificial basic at 0 in a row where x2 and
    # r2's surplus are nonzero, so a pivot could take it out; it stays
    # basic, fixed at 0, through the optimum, and r2's dual is 0
    m = _model()
    m.add_vars(["x0", "x1"], 0.0, 1.0, cost=-2.0)
    m.add_vars(["x2", "x3"], 0.0, INF, cost=-2.0)
    m.add_constraint("r0", {"x1": 2.0, "x2": 1.0}, "=", 1.0)
    m.add_constraint("r1", {"x0": -1.0, "x1": 2.0, "x3": -2.0}, ">=", 0.0)
    m.add_constraint("r2", {"x2": -2.0}, ">=", 0.0)
    starts = []
    optimize = simplex._optimize

    def spy(tab, *args):
        # at the start of each phase: the rows whose artificial is basic,
        # the largest entry of each in a column that may enter, and the
        # artificials' upper bounds
        n_enter = tab.std.n_enter
        art = np.flatnonzero(tab.basis >= n_enter)
        starts.append((art.tolist(), np.abs(tab.T[art, :n_enter]).max(axis=1).tolist(),
                       tab.upper[n_enter:].tolist()))
        return optimize(tab, *args)

    with mock.patch.object(simplex, "_optimize", spy):
        sol = solve_lp(m)
    assert len(starts) == 2
    assert starts[1] == ([2], [2.0], [0.0, 0.0, 0.0])
    assert sol.iterations == 2  # both in phase 1
    assert sol.tableau.basis[2] == sol.tableau.std.unit_col[2]
    assert sol.primal.tolist() == [1.0, 0.5, 0.0, 0.0]
    assert sol.objective == -3.0
    assert sol.dual.tolist() == [-2.0, 1.0, 0.0]
    assert solve_lp(_bounds_as_rows(m)).objective == pytest.approx(-3.0, abs=1e-12)
    _assert_optimality_conditions(m, sol, "r2", tol=1e-12)


def test_devex_weights_stay_finite():
    # a fractional clique cutting-plane master: the first-fit color classes
    # of generate_one(50, 9102, 6) and the max-weight independent sets
    # added while one weighed more than 1.  Devex weights that never reset
    # overflowed to inf and NaN on it.
    model = parse_lp_text((Path(__file__).parent / "data" / "devex_overflow.lp").read_text())
    with np.errstate(over="raise", invalid="raise"):
        sol = solve_lp(model)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1021 / 113, abs=1e-9)


# ---------------------------------------------------------------------------
# warm restart


def test_warm_restart_flips_bounds_in_the_dual_ratio_test():
    # the root rests at x1 = x2 = 1 with x3 = 0.5 basic; fixing x1 and x2 at
    # 0 lifts x3 to 2.5.  The dual step passes x4's breakpoint, so x4 flips
    # to 1 and x5 enters at 0.5: one pivot, where a ratio test without
    # flips enters x4 first and needs a second pivot to take it out again
    m = _model()
    m.add_vars([f"x{j}" for j in range(1, 6)], 0.0, 1.0, cost=[1.0, 2.0, 3.0, 4.0, 5.0])
    m.add_constraint("r", {f"x{j}": 1.0 for j in range(1, 6)}, ">=", 2.5)
    root = solve_lp(m)
    assert root.primal == pytest.approx([1.0, 1.0, 0.5, 0.0, 0.0])
    fixings = _bounds(m, {"x1": (0.0, 0.0), "x2": (0.0, 0.0)})
    with mock.patch.object(simplex, "_solve_cold", side_effect=AssertionError("solved cold")):
        sol = solve_lp(m, bounds=fixings, warm=root)
    assert sol.iterations == 1
    assert sol.primal == pytest.approx([0.0, 0.0, 1.0, 1.0, 0.5])
    assert sol.objective == pytest.approx(solve_lp(m, bounds=fixings).objective, abs=1e-9)
    assert sol.dual == pytest.approx([5.0])
    # the root's tableau is left as it was
    x1_fixed = _bounds(m, {"x1": (0.0, 0.0)})
    assert solve_lp(m, bounds=x1_fixed, warm=root).objective == pytest.approx(7.0)


def test_warm_child_with_a_failing_parent_row_is_infeasible():
    # fixing every arc into vertex j but one, then that one, leaves its
    # parent row with no column: the resumed child is infeasible, as cold
    rep = generate_one(12, 9103, 3)
    model = build_cg(rep, build_dag(rep), build_clique_matrix(rep))
    j = max(rep.vertices, key=lambda v: sum(1 for a in model.metadata["arcs"].values() if a[1] == v))
    into = [name for name, arc in model.metadata["arcs"].items() if arc[1] == j]
    assert len(into) >= 2
    parent_fix = _bounds(model, {name: (0.0, 0.0) for name in into[:-1]})
    child_fix = _bounds(model, {name: (0.0, 0.0) for name in into})
    parent = solve_lp(model, bounds=parent_fix, warm=solve_lp(model))
    assert parent.status == "optimal"
    assert solve_lp(model, bounds=child_fix).status == "infeasible"
    with mock.patch.object(simplex, "_solve_cold", side_effect=AssertionError("solved cold")):
        assert solve_lp(model, bounds=child_fix, warm=parent).status == "infeasible"


def test_warm_restart_falls_back_when_a_bound_loosens():
    m = _model("max")
    m.add_var("x", 0.0, 1.0, cost=2.0)
    m.add_var("y", 0.0, 1.0, cost=1.0)
    m.add_constraint("r", {"x": 1.0, "y": 1.0}, "<=", 1.5)
    fixed = solve_lp(m, bounds=_bounds(m, {"x": (0.0, 0.0)}))
    assert fixed.primal == pytest.approx([0.0, 1.0])
    # an override the tableau holds is dropped or widened: solved cold
    for overrides in ({}, {"y": (0.0, 1.0)}, {"x": (0.0, 1.0)}):
        sol = solve_lp(m, bounds=_bounds(m, overrides), warm=fixed)
        assert sol.primal == pytest.approx([1.0, 0.5]), overrides
    # a tableau of another model is not resumed
    other = _model("max")
    other.add_var("x", 0.0, 1.0, cost=1.0)
    assert solve_lp(other, warm=fixed).primal.tolist() == [1.0]


def test_dropping_an_override_that_does_not_bind_still_resumes():
    # the parent's override repeats x's own bounds, so the child that drops
    # it asks for the same bounds: the tableau stays valid and is resumed
    m = _model("max")
    m.add_var("x", 0.0, 1.0, cost=2.0)
    m.add_var("y", 0.0, 1.0, cost=1.0)
    m.add_constraint("r", {"x": 1.0, "y": 1.0}, "<=", 1.5)
    parent = solve_lp(m, bounds=_bounds(m, {"x": (0.0, 1.0)}))
    with mock.patch.object(simplex, "_solve_cold", wraps=simplex._solve_cold) as cold:
        sol = solve_lp(m, warm=parent)
    assert not cold.called
    want = solve_lp(m)
    assert sol.status == want.status == "optimal"
    assert sol.objective == pytest.approx(want.objective, abs=1e-9)
    assert sol.primal == pytest.approx(want.primal)


def test_a_resume_leaves_its_parents_tableau_as_it_was():
    # an optimal resume, an infeasible one, one that asks for the model's
    # own bounds, and one that falls back to the cold solve because a
    # mirrored column's bound moves
    m = _model()
    m.add_vars([f"x{j}" for j in range(1, 6)], 0.0, 1.0, cost=[1.0, 2.0, 3.0, 4.0, 5.0])
    m.add_var("w", -INF, 3.0)
    m.add_constraint("r", {f"x{j}": 1.0 for j in range(1, 6)}, ">=", 2.5)
    root = solve_lp(m)
    fields = ("T", "basis", "upper", "flipped", "offset", "lo", "hi")
    before = [getattr(root.tableau, f).copy() for f in fields]
    zero = (0.0, 0.0)
    for overrides, resumed in (({"x1": zero, "x2": zero}, True),
                               ({"x1": zero, "x2": zero, "x3": zero}, True),
                               ({}, True),
                               ({"w": (-INF, 2.0)}, False)):
        with mock.patch.object(simplex, "_solve_cold", wraps=simplex._solve_cold) as cold:
            sol = solve_lp(m, bounds=_bounds(m, overrides), warm=root)
        assert cold.called != resumed, overrides
        want = solve_lp(m, bounds=_bounds(m, overrides))
        assert sol.status == want.status, overrides
        if want.status == "optimal":
            assert sol.objective == pytest.approx(want.objective, abs=1e-9), overrides
        for f, old in zip(fields, before):
            assert np.array_equal(getattr(root.tableau, f), old), (overrides, f)


# ---------------------------------------------------------------------------
# implied rows


@settings(max_examples=60, deadline=None)
@given(interval_reps(max_n=12))
def test_implied_rows_leave_the_lp_value_as_it_is(rep):
    dag, matrix = build_dag(rep), build_clique_matrix(rep)
    models = [build_cg(rep, dag, matrix)] + [build_cgh(rep, dag, matrix, h) for h in (1, 2, 3)]
    models += [build_lc(i, rep, dag, matrix, {j: float(j % 3) for j in rep.vertices})
               for i in [0] + sorted(dag.branching)]
    for model in models:
        sol = solve_lp(model)
        assert len(sol.tableau.basis) <= len(model.row_names) - model.implied.sum(), model.name
        assert not sol.dual[model.implied].any(), model.name
        every_row = model.relaxed()
        every_row.implied[:] = False
        full = solve_lp(every_row)
        assert len(full.tableau.basis) == len(model.constraints), model.name
        assert sol.objective == pytest.approx(full.objective, abs=1e-9), model.name


def test_a_binding_row_marked_implied_fails_the_certificate(c5):
    # chain_5_p5 is maximal and binding (dual -1/2); without it the LP
    # drops below 2.5 and its optimum breaks the row
    model = build_cg(c5, build_dag(c5), build_clique_matrix(c5))
    row = model.row_names.index("chain_5_p5")
    assert solve_lp(model).dual[row] == pytest.approx(-0.5)
    model.implied[row] = True
    with pytest.raises(NumericalFailureError, match="fails a row or bound"):
        solve_lp(model)


def test_tableau_over_the_byte_budget_is_refused_before_it_is_built(c5, monkeypatch):
    model = build_cg(c5, build_dag(c5), build_clique_matrix(c5))
    size = solve_lp(model).tableau.T.nbytes
    monkeypatch.setattr(simplex, "_MAX_TABLEAU_BYTES", size)
    assert solve_lp(model).objective == pytest.approx(2.5)
    monkeypatch.setattr(simplex, "_MAX_TABLEAU_BYTES", size - 1)
    monkeypatch.setattr(simplex, "_optimize", None)  # nothing may pivot
    with pytest.raises(TableauTooLargeError, match=f"needs {size} bytes"):
        solve_lp(model)


def test_phase_one_that_comes_back_unbounded_raises(monkeypatch):
    # phase 1 is bounded below by 0, so "unbounded" there is numerical
    # trouble, not an answer to go on from
    m = _model()
    m.add_var("x", 0.0, INF, cost=1.0)
    m.add_constraint("r", {"x": 1.0}, ">=", 1.0)
    orig = simplex._optimize
    calls = []

    def first_unbounded(*args):
        calls.append(args)
        return ("unbounded", 0) if len(calls) == 1 else orig(*args)

    monkeypatch.setattr(simplex, "_optimize", first_unbounded)
    with pytest.raises(NumericalFailureError, match="phase 1"):
        solve_lp(m)
    assert len(calls) == 1


def test_bound_flips_count_against_max_iter():
    # a NaN coefficient leaves every ratio test empty, so the entering
    # column only flips between its bounds; the flips reach max_iter
    model = parse_lp_text("Minimize\n obj: x\nSubject To\n r: x + y >= 1\nBounds\n"
                          " 0 <= x <= 1\n 0 <= y <= +inf\nEnd\n")
    model.val[0] = np.nan

    def stop(signum, frame):
        raise TimeoutError("solve_lp still running after 10 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(10)
    try:
        with pytest.raises(NumericalFailureError, match="exceeded 50 iterations"):
            solve_lp(model, SimplexOptions(max_iter=50))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
