import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import interval_reps

from circlecolor.bnb import first_fit, solve_ip
from circlecolor.errors import VertexNotBranchingError
from circlecolor.instances import generate_one
from circlecolor.intervals import (
    build_clique_matrix,
    build_dag,
    build_graph,
    normalize,
    topological_order,
)
from circlecolor.lpmodels import (
    BINARY,
    INF,
    INTEGER,
    LpModel,
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
from circlecolor.simplex import solve_lp
from circlecolor.stowage import build_cgh, build_layered_dag, effective_height


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
            iv, _, _ = solve_ip(again, no_branch=frozenset(["c"]))
            dv, _, _ = solve_ip(model, no_branch=frozenset(["c"]))
            assert iv == dv


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
    for name in model.var_names:
        if name in model.objective and model.objective[name] != 0.0:
            terms.append(_term(model.objective[name], name, first=not terms))
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

    for v in model.variables:
        is_int = v.kind in (BINARY, INTEGER)
        if is_int != marker_on:
            kind = "'INTORG'" if is_int else "'INTEND'"
            out.append(f"    MARKER{marker_idx:<7} {'MARKER':<12} {kind}")
            marker_on = is_int
            marker_idx += 1
        if v.name in model.objective and model.objective[v.name] != 0.0:
            out.append(fmt(v.name, "OBJ", model.objective[v.name]))
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
    layered = build_layered_dag(rep, dag, effective_height(rep, 2))
    return [
        build_cg(rep, dag, m),
        build_cgh(rep, layered, m),
        build_cl(graph, first_fit(graph, topological_order(rep)).num_colors),
        build_as(graph),
        build_isd(rep, dag, m, weights),
        build_fcp(rep, dag, m),
    ]


@settings(max_examples=40, deadline=None)
@given(interval_reps(max_n=7), st.randoms(use_true_random=False))
def test_exporters_match_the_quadratic_reference(rep, rnd):
    for model in _export_models(rep):
        # coefficient dicts out of variable order, with an explicit zero
        for con in model.constraints:
            items = list(con.coeffs.items())
            rnd.shuffle(items)
            con.coeffs = dict(items)
        con = rnd.choice(model.constraints)
        con.coeffs[rnd.choice(list(con.coeffs))] = 0.0
        assert write_lp_text(model) == _quadratic_lp_text(model)
        mps = write_mps(model)
        assert _section(mps, "COLUMNS") == _quadratic_mps_columns(model)
        back = parse_mps(mps)
        for got, con in zip(back.constraints, model.constraints, strict=True):
            want = [(name, con.coeffs[name]) for name in model.var_names
                    if con.coeffs.get(name, 0.0) != 0.0]
            assert list(got.coeffs.items()) == want
