import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import interval_reps

from circlecolor.bnb import first_fit, solve_ip
from circlecolor.errors import InstanceFormatError, VertexNotBranchingError
from circlecolor.instances import generate_one
from circlecolor.intervals import (
    ROOT,
    build_clique_matrix,
    build_dag,
    build_graph,
    normalize,
    topological_order,
)
from circlecolor.lpmodels import (
    BINARY,
    CONTINUOUS,
    INF,
    INTEGER,
    RELATION,
    LpModel,
    arc_var,
    _num,
    _term,
    build_as,
    build_cg,
    build_cl,
    build_dlc,
    build_fcp,
    build_isd,
    build_lc,
    export_model,
    metadata_sidecar,
    parse_lp_text,
    parse_mps,
    write_lp_text,
    write_mps,
)
from circlecolor.mwis import max_weight_chain, solve_mwis
from circlecolor.oracle import fractional_chromatic_exact
from circlecolor.simplex import _standardize, solve_lp
from circlecolor.stowage import build_cgh, effective_height, layer_var

NAN = float("nan")


def _core(rep):
    return build_dag(rep), build_clique_matrix(rep)


def test_cg_single_vertex():
    rep = normalize([(1, 2)])
    dag, m = _core(rep)
    model = build_cg(rep, dag, m)
    assert sorted(v.name for v in model.variables) == ["c", "x_0_1"]
    value, _, _ = solve_ip(model)
    assert value == 1


def test_cg_c5_shape_and_relaxation(c5):
    dag, m = _core(c5)
    model = build_cg(c5, dag, m)
    assert len(model.variables) == 8  # 7 arcs + c
    sol = solve_lp(model.relaxed())
    assert sol.objective == pytest.approx(2.5, abs=1e-6)


def _sweep_families(model):
    """The sweep rows of a model by family (root_p*, chain_i_p*,
    chain_i.h_p*, or LC's p*): family -> {constraint index: (arc set,
    other terms, rhs)}, the arcs being the terms with coefficient 1."""
    families = {}
    for r, con in enumerate(model.constraints):
        family, sep, point = con.name.rpartition("p")
        if sep and point.isdigit():
            arcs = frozenset(name for name, coef in con.coeffs.items() if coef == 1.0)
            other = {name: coef for name, coef in con.coeffs.items() if coef != 1.0}
            families.setdefault(family, {})[r] = (arcs, other, con.rhs)
    return families


@settings(max_examples=80, deadline=None)
@given(interval_reps(max_n=14))
def test_implied_rows_are_the_dominated_sweep_rows(rep):
    dag, m = _core(rep)
    models = [build_cg(rep, dag, m)] + [build_cgh(rep, dag, m, h) for h in (1, 2, 3)]
    models += [build_lc(i, rep, dag, m, {j: 1.0 for j in rep.vertices})
               for i in [ROOT] + sorted(dag.branching)]
    for model in models:
        families = _sweep_families(model)
        implied = set(np.flatnonzero(model.implied).tolist())
        assert implied <= {r for rows in families.values() for r in rows}, model.name
        for family, rows in families.items():
            # pairwise: a set is maximal when no other row's set strictly holds it
            maximal = {a for a, _, _ in rows.values() if not any(a < b for b, _, _ in rows.values())}
            kept = [rows[r][0] for r in rows if r not in implied]
            assert len(set(kept)) == len(kept) and set(kept) == maximal, (model.name, family)
            for r in rows.keys() & implied:
                arcs, other, rhs = rows[r]
                assert any(arcs <= rows[k][0] and (other, rhs) == rows[k][1:]
                           for k in rows if k not in implied), (model.name, r)


def test_c5_implied_rows(c5):
    dag, m = _core(c5)

    def implied(model):
        return sorted(model.row_names[r] for r in np.flatnonzero(model.implied))

    cg = build_cg(c5, dag, m)
    assert implied(cg) == ["chain_5_p3", "chain_5_p7", "root_p1", "root_p2"]
    assert implied(build_cgh(c5, dag, m, 1)) == ["root_p1", "root_p2"]
    assert implied(build_cgh(c5, dag, m, 2)) == ["chain_5.1_p3", "chain_5.1_p7", "root_p1", "root_p2"]
    # a relaxed copy keeps the marks; the writers write every row and the
    # parsers mark none
    assert np.array_equal(cg.relaxed().implied, cg.implied)
    for back in (parse_lp_text(write_lp_text(cg)), parse_mps(write_mps(cg))):
        assert len(back.constraints) == len(cg.constraints) and not back.implied.any()


def test_cg_p3_integer_optimum(p3):
    dag, m = _core(p3)
    value, _, _ = solve_ip(build_cg(p3, dag, m))
    assert value == 2


def test_lc_examples(p3):
    dag, m = _core(p3)
    values = {v: 1.0 for v in p3.vertices}
    sol = solve_lp(build_lc(0, p3, dag, m, values))
    want, _ = max_weight_chain(p3, p3.vertices, values)
    assert sol.objective == pytest.approx(want, abs=1e-9)
    zero = solve_lp(build_lc(0, p3, dag, m, {v: 0.0 for v in p3.vertices}))
    assert zero.objective == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(VertexNotBranchingError):
        build_lc(1, p3, dag, m, values)


def test_lc_dlc_strong_duality():
    rng = np.random.default_rng(21)
    for k in range(50):
        rep = generate_one(int(rng.integers(2, 11)), 321, k)
        dag, m = _core(rep)
        values = {v: float(rng.integers(-5, 6)) for v in rep.vertices}
        for i in [0] + sorted(dag.branching):
            lc = solve_lp(build_lc(i, rep, dag, m, values))
            dlc = solve_lp(build_dlc(i, rep, dag, m, values))
            assert lc.objective == pytest.approx(dlc.objective, abs=1e-6)


def test_isd_examples(nested, c5):
    single = normalize([(1, 2)])
    dag, m = _core(single)
    assert solve_lp(build_isd(single, dag, m, {1: 5.0})).objective == pytest.approx(5.0)
    dag, m = _core(nested)
    assert solve_lp(build_isd(nested, dag, m, {1: 1.0, 2: 1.0})).objective == pytest.approx(2.0)
    dag, m = _core(c5)
    w = {v: 1.0 for v in c5.vertices}
    assert solve_lp(build_isd(c5, dag, m, w)).objective == pytest.approx(2.0)


def test_isd_equals_dp_on_random():
    rng = np.random.default_rng(22)
    for k in range(40):
        rep = generate_one(int(rng.integers(1, 31)), 322, k)
        dag, m = _core(rep)
        w = {v: float(rng.integers(-5, 6)) for v in rep.vertices}
        value, _, _ = solve_mwis(rep, w)
        sol = solve_lp(build_isd(rep, dag, m, w))
        assert sol.objective == pytest.approx(value, abs=1e-6)


def test_fcp_examples(c5):
    dag, m = _core(c5)
    assert solve_lp(build_fcp(c5, dag, m)).objective == pytest.approx(2.5, abs=1e-6)
    single = normalize([(1, 2)])
    dag, m = _core(single)
    assert solve_lp(build_fcp(single, dag, m)).objective == pytest.approx(1.0, abs=1e-6)


def test_fcp_is_dual_of_cg_relaxation():
    rng = np.random.default_rng(23)
    for k in range(100):
        rep = generate_one(int(rng.integers(1, 31)), 323, k)
        dag, m = _core(rep)
        fcp = solve_lp(build_fcp(rep, dag, m))
        cg = solve_lp(build_cg(rep, dag, m).relaxed())
        assert fcp.objective == pytest.approx(cg.objective, abs=1e-6)


def test_cl_examples(p3, c5, c5_graph):
    g3 = build_graph(p3)
    value, _, _ = solve_ip(build_cl(g3, 2))
    assert value == 2
    edgeless = build_graph(normalize([(1, 2), (3, 4)]))
    value, _, _ = solve_ip(build_cl(edgeless, 1))
    assert value == 1
    value, _, _ = solve_ip(build_cl(c5_graph, 3))
    assert value == 3


def test_as_examples(p3, c5_graph):
    single = build_graph(normalize([(1, 2)]))
    value, _, _ = solve_ip(build_as(single))
    assert value == 1
    value, _, _ = solve_ip(build_as(build_graph(p3)))
    assert value == 2
    value, _, _ = solve_ip(build_as(c5_graph))
    assert value == 3


def test_lp_text_single_vertex_golden():
    rep = normalize([(1, 2)])
    dag, m = _core(rep)
    text = write_lp_text(build_cg(rep, dag, m))
    assert "Minimize" in text
    assert text.count("=") >= 1
    again = parse_lp_text(text)
    value, _, _ = solve_ip(again)
    assert value == 1


def test_mps_column_count_c5(c5):
    dag, m = _core(c5)
    model = build_cg(c5, dag, m)
    mps = write_mps(model)
    cols = {ln.split()[0] for ln in _section(mps, "COLUMNS") if "MARKER" not in ln}
    assert len(cols) == 8


def _section(mps: str, name: str):
    lines = mps.splitlines()
    out, active = [], False
    for ln in lines:
        if not ln.startswith(" "):
            active = ln.strip() == name
            continue
        if active:
            out.append(ln)
    return out


def test_round_trip_random_models():
    rng = np.random.default_rng(24)
    for k in range(20):
        rep = generate_one(int(rng.integers(1, 9)), 324, k)
        dag, m = _core(rep)
        model = build_cg(rep, dag, m)
        direct = solve_lp(model.relaxed()).objective
        for fmt in ("lp", "mps"):
            data = export_model(model, fmt).decode()
            again = parse_lp_text(data) if fmt == "lp" else parse_mps(data)
            assert solve_lp(again.relaxed()).objective == pytest.approx(direct, abs=1e-6)
            arcs = np.arange(len(model.var_names) - 1)  # c is the last variable
            iv, _, _ = solve_ip(again, branch=arcs)
            dv, _, _ = solve_ip(model, branch=arcs)
            assert iv == dv


def test_integral_objective_holds_for_integer_objectives_only(c5):
    # every variable with a nonzero cost binary or integer with an integral
    # cost; the relaxation loses it, so its optimum is not rounded
    dag, m = _core(c5)
    graph = build_graph(c5)
    weights = {v: 1.0 for v in c5.vertices}
    assert build_cg(c5, dag, m).integral_objective
    assert build_cgh(c5, dag, m, 2).integral_objective
    assert build_cl(graph, 3).integral_objective
    assert build_as(graph).integral_objective
    for model in (build_isd(c5, dag, m, weights), build_fcp(c5, dag, m),
                  build_lc(ROOT, c5, dag, m, weights), build_dlc(ROOT, c5, dag, m, weights),
                  build_cg(c5, dag, m).relaxed()):
        assert not model.integral_objective, model.name
    value, _, _ = solve_ip(build_cg(c5, dag, m).relaxed())
    assert value == pytest.approx(2.5)

    def model_with(name, kind, cost):
        model = LpModel(name="t", sense="min")
        model.add_vars(["a", "b"], 0.0, 1.0, BINARY, [2.0, -1.0])
        model.add_var(name, 0.0, 1.0, kind, cost)
        return model

    assert model_with("w", CONTINUOUS, 0.0).integral_objective  # a zero cost is no term
    assert model_with("k", INTEGER, -3.0).integral_objective
    for name, kind, cost in (("h", BINARY, 0.5), ("v", CONTINUOUS, 1.0), ("g", INTEGER, -2.25)):
        assert not model_with(name, kind, cost).integral_objective, name


_LP = """Minimize
 obj: x
Subject To
 r: x + y >= 1
Bounds
 0 <= x <= 1
 0 <= y <= +inf
End
"""

_MPS = """NAME          t
ROWS
 N  OBJ
 G  r
COLUMNS
    x            OBJ          1
    x            r            1
    y            r            1
RHS
    RHS          r            1
BOUNDS
 UP BND       x            1
ENDATA
"""


@pytest.mark.parametrize("old, new, error", [
    (_LP, "Minimize\n", "no objective line after 'Minimize'"),
    (" obj: x", " obj x", "bad objective line: ' obj x'"),
    (" obj: x", " obj: z", "bad objective line: ' obj: z' (an undeclared variable)"),
    (" obj: x", " obj: x + 3", "bad objective line: ' obj: x + 3'"),
    ("Minimize", "Optimize", "bad sense line: 'Optimize'"),
    (" 0 <= x <= 1", " 0 <= x", "bad bounds line: ' 0 <= x'"),
    (" 0 <= y <= +inf", " 0 <= y <= many", "bad bounds line: ' 0 <= y <= many'"),
    (" 0 <= y <= +inf", " 0 <= x <= 2", "bad bounds line: ' 0 <= x <= 2' (duplicate variable x)"),
    (">= 1", ">= one", "bad constraint line: ' r: x + y >= one'"),
    (" r: x + y", " r x + y", "bad constraint line: ' r x + y >= 1'"),
    (" r: x + y", " r: x + w", "bad constraint line: ' r: x + w >= 1' (constraint r references"),
    ("Subject To\n", "Subject To\n stray\n", "bad constraint line: ' stray'"),
    ("End\n", "End\nmore\n", "bad LP line: 'more'"),
    (" 0 <= x <= 1", " nan <= x <= 1",
     "bad bounds line: ' nan <= x <= 1' (continuous x has bounds [nan, 1.0])"),
    (" 0 <= y <= +inf", " inf <= y <= inf",
     "bad bounds line: ' inf <= y <= inf' (continuous y has bounds [inf, inf])"),
    (" 0 <= x <= 1", " 0 <= x <= -inf",
     "bad bounds line: ' 0 <= x <= -inf' (continuous x has bounds [0.0, -inf])"),
    (" r: x + y", " r: nan x + y", "bad constraint line: ' r: nan x + y >= 1'"),
    (">= 1", ">= inf", "bad constraint line: ' r: x + y >= inf'"),
    (" obj: x", " obj: inf x", "bad objective line: ' obj: inf x'"),
    (" obj: x", " obj: 1e308 x + 1e308 x", "bad objective line: ' obj: 1e308 x + 1e308 x'"),
    (" r: x + y", " r: x + 1e308 y + 1e308 y",
     "bad constraint line: ' r: x + 1e308 y + 1e308 y >= 1'"),
    (" r: x + y >= 1\n", " r: x + y >= 1\n r: x >= 0\n",
     "bad constraint line: ' r: x >= 0' (constraint r is a duplicate)"),
    ("End\n", "General\n x\n z\nEnd\n", "bad general line: ' z' (an undeclared variable z)"),
    ("End\n", "Binary\n x w\nEnd\n", "bad binary line: ' x w' (an undeclared variable w)"),
], ids=["no-objective", "objective-colon", "objective-variable", "objective-constant", "sense",
        "bounds-tokens", "bounds-value", "bounds-twice", "constraint-value", "constraint-colon",
        "constraint-variable", "stray-line", "after-end", "bounds-nan", "bounds-lower-inf",
        "bounds-upper-minus-inf", "constraint-nan", "constraint-rhs-inf", "objective-inf",
        "objective-sum-inf", "constraint-sum-inf", "constraint-twice", "general-variable",
        "binary-variable"])
def test_parse_lp_text_names_the_line_it_cannot_read(old, new, error):
    assert old in _LP
    with pytest.raises(InstanceFormatError) as info:
        parse_lp_text(_LP.replace(old, new))
    assert str(info.value).startswith(error)


@pytest.mark.parametrize("old, new, error", [
    (" G  r", " X  r", "bad ROWS line: ' X  r'"),
    (" G  r", " G  r s", "bad ROWS line: ' G  r s'"),
    (" G  r", " N  r", "bad ROWS line: ' N  r'"),
    (" G  r", " G  r\n E  r", "bad ROWS line: ' E  r'"),
    ("    y            r ", "    y            s ", "bad COLUMNS line: '    y            s"),
    ("r            1\nRHS", "r            one\nRHS", "bad COLUMNS line: '    y            r            one'"),
    ("RHS          r", "RHS          s", "bad RHS line: '    RHS          s            1'"),
    ("RHS          r            1", "RHS          r", "bad RHS line: '    RHS          r'"),
    (" UP BND       x            1", " UP BND       x", "bad BOUNDS line: ' UP BND       x'"),
    (" UP BND       x            1", " UP BND       x            up", "bad BOUNDS line: ' UP BND       x            up'"),
    (" UP BND       x", " XX BND       x", "bad BOUNDS line: ' XX BND       x            1'"),
    (" UP BND       x            1", " UP BND       z            1", "bad BOUNDS line: ' UP BND       z            1'"),
    ("ENDATA", "RANGES\n    RNG          r            1\nENDATA", "bad RANGES line"),
    ("r            1\nRHS", "r            nan\nRHS", "bad COLUMNS line: '    y            r            nan'"),
    ("RHS          r            1", "RHS          r            inf",
     "bad RHS line: '    RHS          r            inf'"),
    (" UP BND       x            1", " UP BND       x            -inf",
     "bad BOUNDS line: ' UP BND       x            -inf'"),
    (" UP BND       x            1", " LO BND       x            inf",
     "bad BOUNDS line: ' LO BND       x            inf'"),
    (" UP BND       x            1", " FX BND       x            nan",
     "bad BOUNDS line: ' FX BND       x            nan'"),
], ids=["row-code", "rows-tokens", "second-n-row", "row-twice", "columns-row", "columns-value", "rhs-row",
        "rhs-tokens", "bounds-tokens", "bounds-value", "bounds-code", "bounds-column", "section",
        "columns-nan", "rhs-inf", "bounds-upper-minus-inf", "bounds-lower-inf", "bounds-fixed-nan"])
def test_parse_mps_names_the_line_it_cannot_read(old, new, error):
    assert old in _MPS
    with pytest.raises(InstanceFormatError) as info:
        parse_mps(_MPS.replace(old, new))
    assert str(info.value).startswith(error)


def test_the_parsers_read_the_error_cases_unbroken():
    lp, mps = parse_lp_text(_LP), parse_mps(_MPS)
    for model in (lp, mps):
        assert model.var_names == ["x", "y"] and model.cost.tolist() == [1.0, 0.0]
        assert [tuple(c) for c in model.constraints] == [("r", {"x": 1.0, "y": 1.0}, ">=", 1.0)]
        assert [(v.lower, v.upper) for v in model.variables] == [(0.0, 1.0), (0.0, INF)]


def test_a_column_with_no_nonzero_entry_survives_both_round_trips():
    # z's only entry is a 0 in row r; MPS keeps it as a zero objective entry
    model = LpModel(name="t", sense="min")
    model.add_var("x", 0.0, 1.0, cost=1.0)
    model.add_var("z", 0.0, 5.0, INTEGER)
    model.add_constraint("r", {"x": 1.0, "z": 0.0}, ">=", 0.5)
    for back in (parse_lp_text(write_lp_text(model)), parse_mps(write_mps(model))):
        assert back.var_names == ["x", "z"]
        assert back.cost.tolist() == [1.0, 0.0]
        z = back.variables[1]
        assert (z.kind, z.lower, z.upper) == (INTEGER, 0.0, 5.0)


def test_a_row_named_obj_survives_the_mps_round_trip():
    # the N row takes a name no row has, so a row may be called OBJ
    model = LpModel(name="t", sense="min")
    model.add_var("x", 0.0, 1.0, cost=2.0)
    model.add_constraint("OBJ", {"x": 1.0}, ">=", 0.5)
    model.add_constraint("OBJ_", {"x": 1.0}, "<=", 1.0)
    text = write_mps(model)
    assert " N  OBJ__" in text.splitlines()
    back = parse_mps(text)
    assert back.row_names == ["OBJ", "OBJ_"] and back.cost.tolist() == [2.0]
    assert [tuple(c) for c in back.constraints] == [tuple(c) for c in model.constraints]
    assert write_mps(back) == text


def test_lp_text_refuses_a_model_with_no_variable():
    # every sum needs a variable to write 0 times; MPS writes such a model
    model = LpModel(name="empty", sense="min")
    model.add_constraint("r", {}, "<=", 1.0)
    with pytest.raises(ValueError, match="^model empty has no variable, and LP text needs one$"):
        write_lp_text(model)
    assert parse_mps(write_mps(model)).row_names == ["r"]


def _variables(model):
    return [(v.name, v.lower, v.upper, v.kind) for v in model.variables]


def _assert_round_trips_keep_the_variables(model, what):
    want = _variables(model)
    assert _variables(parse_lp_text(write_lp_text(model))) == want, (what, "lp")
    assert _variables(parse_mps(write_mps(model))) == want, (what, "mps")


def test_formulations_keep_every_variable_through_both_round_trips():
    # MPS marks binaries and integers alike: AS's structurally zero arcs,
    # binaries with bounds [0, 0], must come back binary
    for k in range(30):
        rep = generate_one(1 + k % 9, 3, k)
        dag, m = _core(rep)
        graph = build_graph(rep)
        for model in (build_as(graph),
                      build_cl(graph, first_fit(graph, topological_order(rep)).num_colors),
                      build_cg(rep, dag, m),
                      build_cgh(rep, dag, m, effective_height(rep, 2))):
            _assert_round_trips_keep_the_variables(model, (k, model.name))


def test_every_bound_shape_survives_both_round_trips():
    model = LpModel(name="shapes", sense="min")
    model.add_var("free", -INF, INF, cost=1.0)
    model.add_var("at_most", -INF, 4.0, cost=1.0)
    model.add_var("at_least", 2.5, INF, cost=1.0)
    model.add_var("boxed", -3.0, 7.0, cost=1.0)
    model.add_var("fixed", 1.5, 1.5, cost=1.0)
    model.add_var("off", 0.0, 0.0, BINARY, cost=1.0)
    model.add_var("on", 1.0, 1.0, BINARY, cost=1.0)
    model.add_var("count", -4.0, -1.0, INTEGER, cost=1.0)
    model.add_constraint("r", {name: 1.0 for name in model.var_names}, ">=", -100.0)
    mps = write_mps(model)
    assert " MI BND       at_most" in mps and " LO BND       at_least     2.5" in mps
    _assert_round_trips_keep_the_variables(model, model.name)


def test_binary_bounds_stay_in_the_unit_interval():
    # so a model and its relaxation have the same bounds, and the solver
    # can take the model itself
    model = LpModel(name="t", sense="min")
    model.add_var("a", 0.0, 1.0, BINARY)
    model.add_var("b", 1.0, 1.0, BINARY)
    model.add_var("c", 0.0, 0.0, BINARY)
    for lo, hi in ((-1.0, 1.0), (0.0, 2.0), (0.0, INF), (-INF, 0.0)):
        with pytest.raises(ValueError):
            model.add_var("x", lo, hi, BINARY)
    model.add_var("x", -1.0, 2.0, INTEGER)
    bounds = [(v.lower, v.upper) for v in model.variables]
    assert [(v.lower, v.upper) for v in model.relaxed().variables] == bounds


def test_add_vars_refuses_a_duplicate_and_leaves_the_model_as_it_was():
    model = LpModel(name="t", sense="min")
    model.add_vars(["a", "b"], 0.0, 1.0, BINARY, [1.0, 2.0])
    for names in (["c", "a"], ["c", "c"]):
        with pytest.raises(ValueError):
            model.add_vars(names, 0.0, 1.0, BINARY)
    # per-variable bounds: one binary outside [0, 1] anywhere refuses the block
    for lower, upper in (([0.0, 0.0, -1.0], 1.0), (0.0, [1.0, 2.0, 1.0]), ([-INF, 0.0, 0.0], 1.0)):
        with pytest.raises(ValueError, match="outside"):
            model.add_vars(["c", "d", "e"], lower, upper, BINARY)
    with pytest.raises(ValueError, match="binary d"):
        model.add_vars(["c", "d"], 0.0, [1.0, 3.0], [INTEGER, BINARY])
    # a NaN bound, a lower bound of +inf or an upper bound of -inf, of any kind
    for lower, upper, kind in ((NAN, 1.0, BINARY), (0.0, NAN, CONTINUOUS), (INF, INF, INTEGER),
                               (-INF, -INF, CONTINUOUS), (INF, 5.0, CONTINUOUS)):
        with pytest.raises(ValueError, match=rf"^{kind} d has bounds \[{lower}, {upper}\]$"):
            model.add_vars(["c", "d"], [0.0, lower], [1.0, upper], kind)
    assert model.var_names == ["a", "b"] and model._index == {"a": 0, "b": 1}
    assert [len(a) for a in (model.lower, model.upper, model.kind, model.cost)] == [2, 2, 2, 2]
    model.add_vars(["c"], 0.0, 1.0, BINARY, 3.0)
    model.add_constraint("r", {"a": 1.0, "c": 1.0}, ">=", 1.0)
    assert solve_lp(model).primal == pytest.approx([1.0, 0.0, 0.0])


def test_add_rows_refuses_a_value_that_is_not_finite_and_leaves_the_model_as_it_was():
    model = LpModel(name="t", sense="min")
    model.add_vars(["x", "y"], 0.0, 1.0)
    model.add_constraint("r", {"x": 1.0}, ">=", 0.5)
    before = _arrays(model)
    # the entries are (a, x), (b, y) and (c, x)
    for rhs, val, first in ((1.0, [1.0, NAN, 1.0], "b"), ([1.0, INF, 1.0], 1.0, "b"),
                            (-INF, 1.0, "a"), ([1.0, 1.0, NAN], [1.0, -INF, 1.0], "b"),
                            ([1.0, 1.0, NAN], [1.0, 1.0, -INF], "c")):
        with pytest.raises(ValueError, match=f"^row {first} has a value that is not finite$"):
            model.add_rows(["a", "b", "c"], RELATION[">="], rhs, False, [0, 1, 2], [0, 1, 0], val)
    with pytest.raises(ValueError, match="^row s has"):
        model.add_constraint("s", {"x": 1.0, "y": NAN}, "<=", 1.0)
    assert _arrays(model) == before and model.row_names == ["r"]


def test_add_vars_refuses_a_cost_that_is_not_finite_and_leaves_the_model_as_it_was():
    model = LpModel(name="t", sense="min")
    model.add_vars(["x", "y"], 0.0, 1.0, cost=[1.0, -2.0])
    before = _arrays(model)
    for cost, first in ((NAN, "a"), ([1.0, INF, NAN], "b"), ([0.0, 0.0, -INF], "c")):
        with pytest.raises(ValueError, match=f"^continuous {first} has cost "):
            model.add_vars(["a", "b", "c"], 0.0, 1.0, CONTINUOUS, cost)
    # a bad bound is named before a bad cost
    with pytest.raises(ValueError, match=r"^integer a has bounds \[nan, 1.0\]$"):
        model.add_var("a", NAN, 1.0, INTEGER, cost=NAN)
    assert _arrays(model) == before and model.var_names == ["x", "y"]


def test_the_objective_is_the_cost_array_and_no_attribute_besides():
    model = LpModel(name="t", sense="max")
    with pytest.raises(AttributeError):
        model.objective = {"x": 1.0}
    model.add_vars(["x", "y"], 0.0, 1.0, BINARY, [3.0, 0.0])
    model.add_var("z", 0.0, 2.0, INTEGER, cost=-1.0)
    model.add_constraint("r", {"x": 1.0, "y": 1.0, "z": 1.0}, "<=", 2.0)
    relaxed = model.relaxed()
    assert relaxed.cost.tolist() == [3.0, 0.0, -1.0]
    assert relaxed.cost is not model.cost
    assert solve_lp(relaxed).objective == solve_lp(model).objective == 3.0
    assert write_lp_text(model).splitlines()[2] == " obj: 3 x - z"


def test_add_rows_refuses_a_duplicate_name_and_leaves_the_model_as_it_was():
    model = LpModel(name="t", sense="min")
    model.add_vars(["x", "y"], 0.0, 1.0, cost=1.0)
    model.add_constraint("r", {"x": 1.0}, ">=", 0.5)
    before = _arrays(model)
    for names, first in ((["a", "r"], "r"), (["a", "a"], "a"), (["b", "c", "b"], "b")):
        with pytest.raises(ValueError, match=f"^duplicate row {first}$"):
            model.add_rows(names, RELATION[">="], 0.5, False, [0, 1], [0, 1], [1.0, 1.0])
    with pytest.raises(ValueError, match="^duplicate row r$"):
        model.add_constraint("r", {"y": 1.0}, ">=", 0.5)
    assert _arrays(model) == before and model.row_names == ["r"]
    # so every row keeps its own dual
    model.add_constraint("s", {"y": 1.0}, ">=", 0.25)
    assert solve_lp(model).dual == pytest.approx([1.0, 1.0])


def _arrays(model):
    return [(name, getattr(model, name).dtype, getattr(model, name).tolist())
            for name in ("lower", "upper", "kind", "cost", "rel", "rhs", "implied", "row", "var",
                         "val")]


def test_one_item_adds_make_the_arrays_that_blocks_make():
    one = LpModel(name="t", sense="min")
    one.add_var("x", 0.0, 1.0, BINARY)
    one.add_var("y", -INF, 4.0)
    one.add_var("z", 0.0, INF, INTEGER)
    one.add_constraint("r", {"z": 2.0, "x": 1.0}, ">=", 1.0)
    one.add_constraint("s", {}, "<=", 0.0, implied=True)
    one.add_constraint("t", {"y": -1.0, "x": 0.0}, "=", 3.0)
    block = LpModel(name="t", sense="min")
    block.add_vars(["x", "y", "z"], [0.0, -INF, 0.0], [1.0, 4.0, INF],
                   [BINARY, CONTINUOUS, INTEGER])
    # entries in any row order; each row's keep their order
    block.add_rows(["r", "s", "t"], [RELATION[">="], RELATION["<="], RELATION["="]],
                   [1.0, 0.0, 3.0], [False, True, False],
                   [2, 0, 2, 0], [1, 2, 0, 0], [-1.0, 2.0, 0.0, 1.0])
    assert _arrays(one) == _arrays(block)
    assert one.var_names == block.var_names and one.row_names == block.row_names
    assert list(one.constraints) == list(block.constraints)
    assert dict(one.constraints[0].coeffs) == {"z": 2.0, "x": 1.0}


def test_builders_parsers_and_the_cover_oracle_add_in_blocks(monkeypatch):
    # a one-item add copies the arrays, so a writer of many items must not
    # use one: that would make it quadratic
    def refuse(*args, **kwargs):
        raise AssertionError("a one-item add")

    monkeypatch.setattr(LpModel, "add_var", refuse)
    monkeypatch.setattr(LpModel, "add_constraint", refuse)
    for k in range(6):
        rep = generate_one(4 + 3 * k, 17, k)
        dag, m = _core(rep)
        graph = build_graph(rep)
        weights = {v: float(v % 3 - 1) for v in rep.vertices}
        models = [build_cg(rep, dag, m), build_cgh(rep, dag, m, 2), build_isd(rep, dag, m, weights),
                  build_fcp(rep, dag, m), build_cl(graph, 3), build_as(graph)]
        for i in [ROOT] + sorted(dag.branching):
            models += [build_lc(i, rep, dag, m, weights), build_dlc(i, rep, dag, m, weights)]
        for model in models:
            for back in (parse_lp_text(write_lp_text(model)), parse_mps(write_mps(model))):
                assert back.var_names == model.var_names and back.row_names == model.row_names
        if rep.n <= 8:
            assert fractional_chromatic_exact(graph) >= 1.0


def test_metadata_sidecar(c5):
    dag, m = _core(c5)
    model = build_cg(c5, dag, m)
    meta = json.loads(metadata_sidecar(model))
    assert meta["metadata"]["formulation"] == "CG"
    assert len(meta["metadata"]["arcs"]) == 7
    names = {v.name for v in model.variables}
    for name, (i, j) in meta["metadata"]["arcs"].items():
        assert name in names
        assert 0 <= i <= 5 and 1 <= j <= 5


# The exporters before they became O(nnz): every constraint scans every
# variable, and every column scans every constraint.  Kept as the reference.

def _quadratic_lp_text(model):
    lines = ["\\ " + model.name]
    lines.append("Minimize" if model.sense == "min" else "Maximize")
    terms = []
    for name, cost in zip(model.var_names, model.cost.tolist()):
        if cost != 0.0:
            terms.append(_term(cost, name, first=not terms))
    lines.append(" obj: " + (" ".join(terms) if terms else "0 " + model.var_names[0]))
    lines.append("Subject To")
    for con in model.constraints:
        terms = []
        for name in model.var_names:
            if name in con.coeffs and con.coeffs[name] != 0.0:
                terms.append(_term(con.coeffs[name], name, first=not terms))
        if not terms:
            terms = ["0 " + model.var_names[0]]
        lines.append(f" {con.name}: " + " ".join(terms) + f" {con.relation} {_num(con.rhs)}")
    lines.append("Bounds")
    for v in model.variables:
        lo = "-inf" if v.lower == -INF else _num(v.lower)
        hi = "+inf" if v.upper == INF else _num(v.upper)
        lines.append(f" {lo} <= {v.name} <= {hi}")
    generals = [v.name for v in model.variables if v.kind == INTEGER]
    binaries = [v.name for v in model.variables if v.kind == BINARY]
    if generals:
        lines += ["General", " " + " ".join(generals)]
    if binaries:
        lines += ["Binary", " " + " ".join(binaries)]
    lines.append("End")
    return "\n".join(lines) + "\n"


def _quadratic_mps_columns(model):
    """The COLUMNS section of write_mps, markers included."""
    out = []
    marker_on = False
    marker_idx = 0

    def fmt(col, row, val):
        return f"    {col:<12} {row:<12} {_num(val)}"

    for v, cost in zip(model.variables, model.cost.tolist()):
        is_int = v.kind in (BINARY, INTEGER)
        if is_int != marker_on:
            kind = "'INTORG'" if is_int else "'INTEND'"
            out.append(f"    MARKER{marker_idx:<7} {'MARKER':<12} {kind}")
            marker_on = is_int
            marker_idx += 1
        if cost != 0.0:
            out.append(fmt(v.name, "OBJ", cost))
        for con in model.constraints:
            if v.name in con.coeffs and con.coeffs[v.name] != 0.0:
                out.append(fmt(v.name, con.name, con.coeffs[v.name]))
    if marker_on:
        out.append(f"    MARKER{marker_idx:<7} {'MARKER':<12} 'INTEND'")
    return out


def _export_models(rep):
    dag, m = _core(rep)
    graph = build_graph(rep)
    weights = {v: float(v % 3 - 1) for v in rep.vertices}
    return [
        build_cg(rep, dag, m),
        build_cgh(rep, dag, m, effective_height(rep, 2)),
        build_cl(graph, first_fit(graph, topological_order(rep)).num_colors),
        build_as(graph),
        build_isd(rep, dag, m, weights),
        build_fcp(rep, dag, m),
    ]


def _reordered(model, rnd):
    """The model built again row by row, with each row's coefficients out
    of variable order and one of them an explicit zero."""
    out = LpModel(name=model.name, sense=model.sense)
    for v, cost in zip(model.variables, model.cost.tolist()):
        out.add_var(v.name, v.lower, v.upper, v.kind, cost)
    rows = model.constraints
    zero = rnd.randrange(len(rows))
    for r, con in enumerate(rows):
        items = list(con.coeffs.items())
        rnd.shuffle(items)
        coeffs = dict(items)
        if r == zero:
            coeffs[rnd.choice(items)[0]] = 0.0
        out.add_constraint(con.name, coeffs, con.relation, con.rhs)
    return out


@settings(max_examples=40, deadline=None)
@given(interval_reps(max_n=7), st.randoms(use_true_random=False))
def test_exporters_match_the_quadratic_reference(rep, rnd):
    for model in _export_models(rep):
        model = _reordered(model, rnd)
        assert write_lp_text(model) == _quadratic_lp_text(model)
        mps = write_mps(model)
        assert _section(mps, "COLUMNS") == _quadratic_mps_columns(model)
        back = parse_mps(mps)
        for got, con in zip(back.constraints, model.constraints, strict=True):
            want = [(name, con.coeffs[name]) for name in model.var_names
                    if con.coeffs.get(name, 0.0) != 0.0]
            assert list(got.coeffs.items()) == want


# CG and CG_H as they were built before the models became arrays: one
# dict per row through add_constraint.  Kept as the reference for the
# array builders.

def _reference_cover_rows(col_rows, names):
    rows = {}
    for j, name in names.items():
        for r in col_rows[j]:
            rows.setdefault(r, {})[name] = 1.0
    rows = {r: rows[r] for r in sorted(rows)}
    starts = {col_rows[j].start for j in names}
    ends = {col_rows[j].stop - 1 for j in names}
    implied = set()
    started = False
    for r in rows:
        started = started or r in starts
        if started and r in ends:
            started = False
        else:
            implied.add(r)
    return rows, implied


def _reference_root_rows(model, matrix, names):
    model.add_var("c", 0.0, INF, INTEGER, cost=1.0)
    root_rows, implied = _reference_cover_rows(matrix.rows, names)
    for r in range(len(matrix.points)):
        coeffs = root_rows.get(r, {})
        coeffs["c"] = -1.0
        model.add_constraint(f"root_p{matrix.points[r]}", coeffs, "<=", 0.0,
                             implied=r in implied or r not in root_rows)


def _reference_cg(rep, dag, matrix):
    model = LpModel(name="CG", sense="min")
    arc_map = {}
    for i, j in dag.arcs:
        name = arc_var(i, j)
        model.add_var(name, 0.0, 1.0, BINARY)
        arc_map[name] = [i, j]
    _reference_root_rows(model, matrix, {j: arc_var(ROOT, j) for j in dag.children[ROOT]})
    for i in sorted(dag.branching):
        rows, implied = _reference_cover_rows(matrix.rows, {j: arc_var(i, j) for j in dag.children[i]})
        for r, coeffs in rows.items():
            model.add_constraint(f"chain_{i}_p{matrix.points[r]}", coeffs, "<=", 1.0,
                                 implied=r in implied)
    parent_rows = {j: {} for j in rep.vertices}
    for name, (i, j) in arc_map.items():
        parent_rows[j][name] = 1.0
    for j, coeffs in parent_rows.items():
        model.add_constraint(f"parent_{j}", coeffs, "=", 1.0)
    model.metadata = {"formulation": "CG", "relaxed": False, "arcs": arc_map, "n": rep.n}
    return model


def _reference_cgh(rep, dag, matrix, height):
    model = LpModel(name="CG_H", sense="min")
    arcs = [(ROOT, 0, j) for j in rep.vertices]
    arcs += [(i, h, j) for i in sorted(dag.branching) for h in range(1, height)
             for j in dag.children[i]]
    into = {}
    for i, h, j in arcs:
        name = layer_var(i, h, j)
        model.add_var(name, 0.0, 1.0, BINARY)
        into.setdefault((j, h + 1), []).append(name)
    _reference_root_rows(model, matrix, {j: layer_var(ROOT, 0, j) for j in rep.vertices})
    for i in sorted(dag.branching):
        for h in range(1, height):
            inflow = dict.fromkeys(into.get((i, h), ()), -1.0)
            names = {j: layer_var(i, h, j) for j in dag.children[i]}
            rows, implied = _reference_cover_rows(matrix.rows, names)
            for r, coeffs in rows.items():
                coeffs.update(inflow)
                model.add_constraint(f"chain_{i}.{h}_p{matrix.points[r]}", coeffs, "<=", 0.0,
                                     implied=r in implied)
    for j in rep.vertices:
        coeffs = {name: 1.0 for h in range(1, height + 1) for name in into.get((j, h), ())}
        model.add_constraint(f"enter_{j}", coeffs, "=", 1.0)
    model.metadata = {"formulation": "CG_H", "relaxed": False, "height": height,
                      "arcs": {layer_var(*arc): list(arc) for arc in arcs}, "n": rep.n}
    return model


def _assert_same_program(rep):
    dag, m = _core(rep)
    pairs = [(build_cg(rep, dag, m), _reference_cg(rep, dag, m))]
    pairs += [(build_cgh(rep, dag, m, h), _reference_cgh(rep, dag, m, h)) for h in (1, 2, 3)]
    for got, want in pairs:
        assert write_lp_text(got) == write_lp_text(want)
        assert write_mps(got) == write_mps(want)
        assert np.array_equal(got.implied, want.implied)
        assert got.metadata == want.metadata
        assert ([list(c.coeffs.items()) for c in got.constraints]
                == [list(c.coeffs.items()) for c in want.constraints])
        a, b = _standardize(got, None, 1e-9), _standardize(want, None, 1e-9)
        for field in ("origin", "rel", "rhs"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), (got.name, field)
        assert set(zip(*(e.tolist() for e in a.entries))) == set(zip(*(e.tolist() for e in b.entries)))


@settings(max_examples=80, deadline=None)
@given(interval_reps(max_n=14))
def test_array_builders_match_the_dict_reference(rep):
    _assert_same_program(rep)


@pytest.mark.parametrize("n, k", [(25, 0), (25, 1), (25, 2), (80, 0)])
def test_array_builders_match_the_dict_reference_at_benchmark_size(n, k):
    _assert_same_program(generate_one(n, 21, k))
