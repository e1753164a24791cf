"""The benchmark's spans wrap package functions by module attribute
(perfbench/spans.py:WRAPPED); a rename that drops one of those names must
fail here rather than in a traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

from circlecolor.instances import generate_one
from circlecolor.intervals import build_clique_matrix, build_dag, normalize
from circlecolor.lpmodels import build_cg
from circlecolor.stowage import build_cgh

C5 = normalize([(1, 4), (3, 6), (5, 8), (7, 10), (2, 9)])
SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_spanned_name_resolves():
    spans = _spans()
    assert spans.WRAPPED
    for owner, attr, _, _ in spans.WRAPPED:
        assert callable(getattr(spans._resolve(owner), attr)), (owner, attr)


@pytest.mark.parametrize("rep, cg, cgh", [
    (C5, (13, 8, 28), (13, 8, 31)),
    (generate_one(25, 21, 0), (186, 119, 749), (186, 119, 885)),
])
def test_lp_size_counts_every_row_of_the_model_arrays(rep, cg, cgh):
    # the sizes behind lpmodels.cg_rows/cols/nnz and stowage.cgh_*: implied
    # rows count, as they did when every row was a dict
    lp_size = _spans()._lp_size
    dag, matrix = build_dag(rep), build_clique_matrix(rep)
    for model, want in ((build_cg(rep, dag, matrix), cg), (build_cgh(rep, dag, matrix, 2), cgh)):
        assert model.implied.any()
        assert lp_size(model) == (len(model.rhs), len(model.lower), len(model.val)) == want
