"""The benchmark's spans wrap package functions by module attribute
(perfbench/spans.py:WRAPPED); a rename that drops one of those names must
fail here rather than in a traced benchmark run."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


def test_every_spanned_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    for owner, attr, _, _ in spans.WRAPPED:
        assert callable(getattr(spans._resolve(owner), attr)), (owner, attr)
