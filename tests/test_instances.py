import pytest

from circlecolor.bnb import solve_chromatic
from circlecolor.instances import (
    CSV_COLUMNS,
    GeneratorConfig,
    format_certificate,
    generate,
    generate_one,
    intervals_from_sequence,
    rows_to_csv,
    run_experiment,
)
from circlecolor.intervals import build_graph, clique_number, normalize


def test_sequence_example():
    rep = intervals_from_sequence([5, 3, 1, 4, 6, 2])
    assert [rep.interval(v) for v in rep.vertices] == [(3, 5), (1, 4), (2, 6)]


def test_n1_always_single_interval():
    for seed in (0, 7, 123):
        rep = generate_one(1, seed)
        assert rep.interval(1) == (1, 2)


def test_determinism():
    a = generate(GeneratorConfig(n=6, seed=42, count=5))
    b = generate(GeneratorConfig(n=6, seed=42, count=5))
    assert a == b
    c = generate(GeneratorConfig(n=6, seed=43, count=5))
    assert a != c
    with pytest.raises(ValueError):
        generate(GeneratorConfig(n=0, seed=1))


def test_endpoints_are_permutation():
    for k in range(25):
        rep = generate_one(7, 99, k)
        eps = sorted(list(rep.left[1:]) + list(rep.right[1:]))
        assert eps == list(range(1, 15))


def test_mean_edges_near_one_third_of_pairs():
    # crossing probability for a random chord pair is 1/3
    total = 0
    samples = 200
    for k in range(samples):
        total += build_graph(generate_one(5, 11, k)).num_edges
    assert total / samples == pytest.approx(10 / 3, rel=0.2)


def test_max_clique_examples(c5, p3):
    assert clique_number(c5) == 2
    assert clique_number(normalize([(1, 2), (3, 4)])) == 1
    assert clique_number(p3) == 2


def test_run_experiment_shape():
    rows = run_experiment([3, 5], samples=8, seed=5)
    assert [r.n for r in rows] == [3, 5]
    for r in rows:
        assert r.failures == 0
        assert 0 <= r.count_omega_eq_chi <= 8
        assert 0 <= r.count_chi_f_eq_chi <= 8
        assert r.mean_edges >= 0
        assert r.max_chi_minus_chi_f < 1.0


def test_rows_to_csv():
    rows = run_experiment([2], samples=3, seed=6)
    text = rows_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0].split(",") == CSV_COLUMNS
    assert lines[1].startswith("2,")


def test_format_certificate(c5):
    report = solve_chromatic(c5)
    text = format_certificate(report.coloring)
    lines = text.strip().splitlines()
    assert len(lines) == 5
    for ln in lines:
        v, color, parent = (int(x) for x in ln.split())
        assert 1 <= v <= 5
        assert color == report.coloring.colors[v]
        assert 0 <= parent <= 5
