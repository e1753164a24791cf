from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import interval_reps

from circlecolor import simplex
from circlecolor.instances import generate_one
from circlecolor.intervals import build_clique_matrix, build_dag
from circlecolor.lpmodels import (
    CONTINUOUS,
    INF,
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
    build_layered_dag,
    effective_height,
    greedy_stack_plan,
    layer_var,
    plan_arcs,
)


def _model(sense="min", name="t"):
    return LpModel(name=name, sense=sense)


def test_trivial_max():
    m = _model("max")
    m.add_var("x", 0.0, INF)
    m.objective = {"x": 1.0}
    m.add_constraint("r", {"x": 1.0}, "<=", 1.0)
    sol = solve_lp(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0)
    assert sol.primal["x"] == pytest.approx(1.0)


def test_infeasible():
    m = _model()
    m.add_var("x", 0.0, INF)
    m.objective = {"x": 1.0}
    m.add_constraint("a", {"x": 1.0}, "<=", 1.0)
    m.add_constraint("b", {"x": 1.0}, ">=", 2.0)
    assert solve_lp(m).status == "infeasible"


def test_unbounded():
    m = _model("max")
    m.add_var("x", 0.0, INF)
    m.objective = {"x": 1.0}
    m.add_constraint("a", {"x": -1.0}, "<=", 1.0)
    assert solve_lp(m).status == "unbounded"


def test_free_variable_and_equality():
    m = _model()
    m.add_var("x", -INF, INF)
    m.add_var("y", 0.0, INF)
    m.objective = {"x": 1.0, "y": 2.0}
    m.add_constraint("a", {"x": 1.0, "y": 1.0}, "=", 3.0)
    m.add_constraint("b", {"x": 1.0}, ">=", -5.0)
    sol = solve_lp(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0)
    assert sol.primal["x"] == pytest.approx(3.0)
    assert sol.primal["y"] == pytest.approx(0.0)


def test_cg_relaxation_c5(c5):
    dag = build_dag(c5)
    m = build_clique_matrix(c5)
    sol = solve_lp(build_cg(c5, dag, m).relaxed())
    assert sol.objective == pytest.approx(2.5, abs=1e-6)


def test_duals_small_example():
    # min x st x >= 1 has dual value 1 on the binding row
    m = _model()
    m.add_var("x", 0.0, INF)
    m.objective = {"x": 1.0}
    m.add_constraint("r", {"x": 1.0}, ">=", 1.0)
    sol = solve_lp(m)
    assert sol.dual["r"] == pytest.approx(1.0)


def _weak_duality_gap(model, sol):
    """|c'x - y'b| for the returned pair; zero at optimality by strong
    duality when signs are right."""
    primal_obj = sum(model.objective.get(v.name, 0.0) * sol.primal[v.name]
                     for v in model.variables)
    dual_obj = sum(sol.dual.get(row.name, 0.0) * row.rhs for row in model.constraints)
    return primal_obj, dual_obj


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
        sol = solve_lp(build_lc(0, rep, dag, mat, values))
        for name, x in sol.primal.items():
            assert abs(x - round(x)) < 1e-6, (k, name, x)


def test_objective_stable_under_permutation():
    rng = np.random.default_rng(33)
    for k in range(10):
        rep = generate_one(int(rng.integers(2, 11)), 453, k)
        dag = build_dag(rep)
        mat = build_clique_matrix(rep)
        model = build_cg(rep, dag, mat).relaxed()
        base = solve_lp(model).objective
        shuffled = LpModel(name=model.name, sense=model.sense,
                           integral_objective=model.integral_objective)
        cols = list(model.variables)
        rows = list(model.constraints)
        rng.shuffle(cols)
        rng.shuffle(rows)
        for v in cols:
            shuffled.add_var(v.name, v.lower, v.upper, v.kind)
        shuffled.objective = dict(model.objective)
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
        for nm in names:
            m.add_var(nm, 0.0, 10.0, CONTINUOUS)
        m.objective = {nm: float(rng.integers(1, 6)) for nm in names}
        for r in range(n_row):
            coeffs = {nm: float(rng.integers(0, 4)) for nm in names}
            if all(c == 0 for c in coeffs.values()):
                coeffs[names[0]] = 1.0
            m.add_constraint(f"r{r}", coeffs, ">=", float(rng.integers(1, 8)))
        sol = solve_lp(m)
        assert sol.status == "optimal"
        primal_obj, dual_obj = _weak_duality_gap(m, sol)
        assert all(y >= -1e-9 for y in sol.dual.values())
        assert dual_obj <= primal_obj + 1e-7


# ---------------------------------------------------------------------------
# bounded variables and tableau duals


def _spy(monkeypatch, events):
    """Log ('pivot', row, column) and ('flip', column) steps."""
    pivot, complement = simplex._pivot, simplex._complement

    def spy_pivot(T, row, col, *args):
        events.append(("pivot", row, col))
        pivot(T, row, col, *args)

    def spy_complement(T, col, *args):
        events.append(("flip", col))
        complement(T, col, *args)

    monkeypatch.setattr(simplex, "_pivot", spy_pivot)
    monkeypatch.setattr(simplex, "_complement", spy_complement)


def test_bound_flip_without_pivot(monkeypatch):
    # both variables reach their own bound before the row binds
    m = _model("max")
    m.add_var("x", 0.0, 1.0)
    m.add_var("y", 0.0, 1.0)
    m.objective = {"x": 1.0, "y": 2.0}
    m.add_constraint("r", {"x": 1.0, "y": 1.0}, "<=", 5.0)
    events = []
    _spy(monkeypatch, events)
    sol = solve_lp(m)
    assert sol.status == "optimal"
    assert sol.iterations == 0
    assert events == [("flip", 1), ("flip", 0)]
    assert sol.primal == {"x": 1.0, "y": 1.0}
    assert sol.objective == pytest.approx(3.0)
    assert sol.dual["r"] == 0.0


def test_basic_variable_leaves_at_upper_bound(monkeypatch):
    m = _model("max")
    m.add_var("x", 0.0, 2.0)
    m.add_var("y", 0.0, 3.0)
    m.add_var("z", 0.0, 2.0)
    m.objective = {"x": 1.0, "z": 1.0}
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
    assert sol.primal == pytest.approx({"x": 1.5, "y": 3.0, "z": 2.0})
    assert sol.objective == pytest.approx(3.5)
    assert sol.dual["r"] == pytest.approx(0.5)


def _bounds_as_rows(model):
    """The same LP with every finite bound written as a constraint row and
    every variable free, so no implicit bound is left to the solver."""
    out = LpModel(name=model.name, sense=model.sense)
    for v in model.variables:
        out.add_var(v.name, -INF, INF)
        if v.lower > -INF:
            out.add_constraint(f"lo_{v.name}", {v.name: 1.0}, ">=", v.lower)
        if v.upper < INF:
            out.add_constraint(f"hi_{v.name}", {v.name: 1.0}, "<=", v.upper)
    out.objective = dict(model.objective)
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
    m.objective = {nm: float(rng.integers(-4, 5)) for nm in names}
    for r in range(int(rng.integers(1, 5))):
        coeffs = {nm: float(rng.integers(-3, 4)) for nm in names if rng.random() < 0.7}
        coeffs = coeffs or {names[0]: 1.0}
        at = sum(c * point[nm] for nm, c in coeffs.items())
        rel = ["<=", ">=", "="][int(rng.integers(3))]
        rhs = at if rel == "=" else at + 1.0 if rel == "<=" else at - 1.0
        m.add_constraint(f"r{r}", coeffs, rel, rhs)
    return m, point


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
    vanish on slack rows; each reduced cost (the dual of a variable bound)
    is zero unless its variable rests at the bound it points to."""
    s = 1.0 if model.sense == "min" else -1.0
    reduced = {v.name: s * model.objective.get(v.name, 0.0) for v in model.variables}
    for r in model.constraints:
        y = s * sol.dual[r.name]
        slack = sum(c * sol.primal[nm] for nm, c in r.coeffs.items()) - r.rhs
        assert {"<=": slack <= tol and y <= tol, ">=": slack >= -tol and y >= -tol,
                "=": abs(slack) <= tol}[r.relation], (k, r.name, slack, y)
        assert abs(y) <= tol or abs(slack) <= tol, (k, r.name, slack, y)
        for nm, c in r.coeffs.items():
            reduced[nm] -= y * c
    for v in model.variables:
        z, x = reduced[v.name], sol.primal[v.name]
        assert v.lower - tol <= x <= v.upper + tol, (k, v.name, x)
        assert z <= tol or x <= v.lower + tol, (k, v.name, z, x)
        assert z >= -tol or x >= v.upper - tol, (k, v.name, z, x)


def test_bound_overrides_tighten_unit_interval():
    m = _model("max")
    m.add_var("x", 0.0, 1.0)
    m.add_var("y", 0.0, 1.0)
    m.objective = {"x": 2.0, "y": 1.0}
    m.add_constraint("r", {"x": 1.0, "y": 1.0}, "<=", 1.5)
    assert solve_lp(m).primal == pytest.approx({"x": 1.0, "y": 0.5})
    cases = [
        ((0.0, 0.0), {"x": 0.0, "y": 1.0}),   # fixed at 0
        ((1.0, 1.0), {"x": 1.0, "y": 0.5}),   # fixed at 1
        ((0.0, 0.25), {"x": 0.25, "y": 1.0}),  # tighter upper bound
        ((0.75, 2.0), {"x": 1.0, "y": 0.5}),  # only the lower bound tightens
        ((-1.0, 0.5), {"x": 0.5, "y": 1.0}),  # a looser lower bound is ignored
    ]
    for bounds, want in cases:
        sol = solve_lp(m, bound_overrides={"x": bounds})
        assert sol.status == "optimal", bounds
        assert sol.primal == pytest.approx(want), bounds
        assert sol.objective == pytest.approx(2.0 * want["x"] + want["y"]), bounds
    assert solve_lp(m, bound_overrides={"x": (1.0, 0.0)}).status == "infeasible"


def test_tableau_duals_match_basis_solve(monkeypatch):
    """The duals read off the cost row equal B^-T c_B for the final basis
    B, and with the bound duals from the reduced costs they close the
    duality gap."""
    seen = {}
    orig = simplex._optimize

    def spy(T, basis, *args):
        seen.setdefault("A", T[:-1, :-1].copy())  # first call: no pivot yet
        seen["basis"] = basis  # updated in place up to the optimum
        return orig(T, basis, *args)

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
        c[:len(model.variables)] = [model.objective.get(v.name, 0.0) for v in model.variables]
        y_ref = np.linalg.solve(A[:, basis].T, c[basis])
        y = np.array([sol.dual[r.name] for r in model.constraints])
        assert np.abs(y - y_ref).max() <= 1e-9, k
        # strong duality: y'b plus u times each negative reduced cost
        dual_obj = sum(y[i] * r.rhs for i, r in enumerate(model.constraints))
        reduced = dict(model.objective)
        for yi, r in zip(y, model.constraints):
            for name, coef in r.coeffs.items():
                reduced[name] = reduced.get(name, 0.0) - yi * coef
        for v in model.variables:
            z = reduced.get(v.name, 0.0)
            x = sol.primal[v.name]
            assert z >= -1e-9 or x == pytest.approx(v.upper, abs=1e-9), (k, v.name)
            assert z <= 1e-9 or x == pytest.approx(v.lower, abs=1e-9), (k, v.name)
            if z < 0:
                dual_obj += z * v.upper
        assert dual_obj == pytest.approx(sol.objective, abs=1e-9), k


# ---------------------------------------------------------------------------
# crash start and Devex weights


def _cg_start(rep):
    """The CG relaxation of rep, started from the greedy stack plan with
    no binding height (first fit)."""
    model = build_cg(rep, build_dag(rep), build_clique_matrix(rep)).relaxed()
    plan = greedy_stack_plan(rep, rep.n)
    start = {arc_var(i, j): 1.0 for (i, _), (j, _) in plan_arcs(rep, plan)}
    start["c"] = plan.num_stacks
    return model, start


def _cgh_start(rep, height):
    """The CG_H relaxation of rep, started from the greedy stack plan."""
    h = effective_height(rep, height)
    model = build_cgh(rep, build_layered_dag(rep, build_dag(rep), h),
                      build_clique_matrix(rep)).relaxed()
    plan = greedy_stack_plan(rep, h)
    start = {layer_var(i, hs, j): 1.0 for (i, hs), (j, _) in plan_arcs(rep, plan)}
    start["c"] = plan.num_stacks
    return model, start


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
    reduced = dict(model.objective)
    value = 0.0
    for r in model.constraints:
        y = sol.dual[r.name]
        value += y * r.rhs
        for nm, c in r.coeffs.items():
            reduced[nm] = reduced.get(nm, 0.0) - y * c
    for v in model.variables:
        z = reduced.get(v.name, 0.0)
        bound = v.upper if z < 0 else v.lower
        if abs(bound) < INF:
            value += z * bound
    return value


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
    at_root = {arc_var(0, j): 1.0 for j in rep.vertices}
    bad = [
        {"c": 0.0},  # every parent row fails
        {**start, "c": start["c"] - 0.5},  # some root row fails
        {**start, "x_0_0": 1.0},  # not a variable of the model
        # c sits strictly inside its bounds and no root row is tight
        {**at_root, "c": rep.n + 0.5},
    ]
    # the midpoint of two feasible points is no vertex, so no basis has it
    # as its basic solution
    if start != {**at_root, "c": rep.n}:
        bad.append({name: (start.get(name, 0.0) + at_root.get(name, 0.0)) / 2
                    for name in model.var_names if name != "c"}
                   | {"c": (start["c"] + rep.n) / 2})
    for k, s in enumerate(bad):
        sol, took = _crashed(model, s)
        assert not took, k
        assert sol == cold, k


def test_crash_start_enters_a_positive_surplus_on_its_own_row():
    # x = 3 is a vertex: the '<=' row is tight and takes x, the '>=' row
    # has surplus 2, which enters in place of that row's artificial
    m = _model()
    m.add_var("x", 0.0, INF)
    m.objective = {"x": -1.0}
    m.add_constraint("hi", {"x": 1.0}, "<=", 3.0)
    m.add_constraint("lo", {"x": 1.0}, ">=", 1.0)
    sol, took = _crashed(m, {"x": 3.0})
    assert took
    assert sol.iterations == 2  # two crash pivots, none in phase 2
    assert sol.primal == {"x": 3.0}
    assert sol.dual == {"hi": -1.0, "lo": 0.0}


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
        assert sol == cold or took, k
        assert sol.objective == pytest.approx(cold.objective, abs=1e-7), k
        off = {**cold.primal, "v0": cold.primal["v0"] + 1.0}  # breaks a row or a bound
        sol, took = _crashed(m, off)
        assert sol == cold or took, k
    assert took_some


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
