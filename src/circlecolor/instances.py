"""Random instance generation, the experiment harness, and solution IO.

Instances follow the published recipe: shuffle 1..2n, pair off consecutive
numbers, and read each pair as an interval.  The shuffle is a fixed
Fisher-Yates over a counter-based Philox generator keyed by (seed,
instance index), so streams are reproducible forever and independent of
library shuffle internals.
"""

from __future__ import annotations

import csv
import io
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .bnb import solve_chromatic
from .errors import CircleColorError
from .intervals import Coloring, IntervalRep, count_edges, normalize
# max_clique_exact is not called here; perfbench/spans.py wraps it at this name
from .oracle import max_clique_exact  # noqa: F401
from .simplex import SimplexOptions


@dataclass
class ExperimentRow:
    n: int
    mean_edges: float
    mean_solve_time: float
    count_omega_eq_chi: int
    count_chi_f_eq_chi: int
    max_chi_minus_chi_f: float
    failures: int = 0


def _fisher_yates(rng, items: list) -> list:
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        items[i], items[j] = items[j], items[i]
    return items


def intervals_from_sequence(sequence) -> IntervalRep:
    """Pair off consecutive numbers of the sequence as intervals."""
    seq = list(sequence)
    pairs = [(seq[k], seq[k + 1]) for k in range(0, len(seq), 2)]
    return normalize(pairs)


def generate_one(n: int, seed: int, index: int = 0) -> IntervalRep:
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    sequence = _fisher_yates(rng, range(1, 2 * n + 1))
    return intervals_from_sequence(sequence)


def run_experiment(n_values, samples: int, seed: int,
                   options: SimplexOptions | None = None) -> list:
    """Generate and solve `samples` instances per n, aggregating the
    summary statistics of the published experiment table.

    Solver failures (a CircleColorError) are recorded per row and excluded
    from the means; any other exception is a bug and propagates.
    """
    rows = []
    for n in n_values:
        edges = []
        times = []
        omega_eq = 0
        chif_eq = 0
        max_gap = 0.0
        failures = 0
        for k in range(samples):
            rep = generate_one(n, seed, k)
            try:
                t0 = time.perf_counter()
                report = solve_chromatic(rep, options)
                times.append(time.perf_counter() - t0)
            except CircleColorError as exc:
                failures += 1
                warnings.warn(f"instance n={n} index={k} failed: {exc}")
                continue
            edges.append(count_edges(rep))
            if len(report.clique) == report.chromatic_number:
                omega_eq += 1
            if abs(report.chromatic_number - report.fractional_chromatic) <= 1e-6:
                chif_eq += 1
            max_gap = max(max_gap, report.chromatic_number - report.fractional_chromatic)
        rows.append(ExperimentRow(
            n=n,
            mean_edges=sum(edges) / len(edges) if edges else 0.0,
            mean_solve_time=sum(times) / len(times) if times else 0.0,
            count_omega_eq_chi=omega_eq,
            count_chi_f_eq_chi=chif_eq,
            max_chi_minus_chi_f=max_gap,
            failures=failures,
        ))
    return rows


CSV_COLUMNS = ["|V|", "|E|", "Ours", "# ω = χ", "# χ_f = χ", "max. χ - χ_f"]


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([
            row.n,
            f"{row.mean_edges:.2f}",
            f"{row.mean_solve_time:.3f}",
            row.count_omega_eq_chi,
            row.count_chi_f_eq_chi,
            f"{row.max_chi_minus_chi_f:.1f}",
        ])
    return buf.getvalue()


def format_certificate(coloring: Coloring) -> str:
    """Solution certificate: one line per vertex "vertex color parent"."""
    parent = {}
    if coloring.certificate:
        for i, j in coloring.certificate:
            parent[j] = i
    lines = []
    for v in sorted(coloring.colors):
        lines.append(f"{v} {coloring.colors[v]} {parent.get(v, 0)}")
    return "\n".join(lines) + "\n"
