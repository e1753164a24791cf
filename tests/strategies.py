"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from circlecolor.intervals import normalize


@st.composite
def interval_reps(draw, max_n: int):
    """A normalized interval representation on 1..max_n vertices: any
    pairing of the endpoints 1..2n, so every nesting pattern can occur."""
    n = draw(st.integers(1, max_n))
    ends = draw(st.permutations(range(1, 2 * n + 1)))
    return normalize(zip(ends[::2], ends[1::2]))
