import numpy as np
import pytest

from circlecolor import simplex
from circlecolor.instances import generate_one
from circlecolor.intervals import build_clique_matrix, build_dag
from circlecolor.lpmodels import CONTINUOUS, INF, LpModel, build_cg, build_dlc, build_lc
from circlecolor.simplex import SimplexOptions, solve_lp


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


def test_shifted_mirrored_free_and_bounded_columns_agree_with_bound_rows():
    # random LPs over every bound shape: [lo, hi] with lo > 0, lo < 0 < hi
    # and hi < 0, [lo, inf), (-inf, hi], (-inf, inf) and [0, 1]
    rng = np.random.default_rng(35)
    shapes = [(2.0, 5.0), (-3.0, 4.0), (-6.0, -1.0), (1.5, INF), (-INF, 3.0),
              (-INF, INF), (0.0, 1.0)]
    statuses = set()
    for k in range(60):
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
