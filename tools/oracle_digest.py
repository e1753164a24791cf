"""Print one sha256 over the answers of every brute-force oracle on a fixed
set of small instances, so that a change meant to keep the oracles'
answers as they are can be checked with one command:

    python3 tools/oracle_digest.py

For k < 120 it takes n = 1 + k % 12 and rep = generate_one(n, 919, k),
with the weights float(rng.integers(-5, 6)) per vertex, drawn from one
np.random.default_rng(7) across all instances.  Per instance it records
the repr of the list [chromatic_exact, max_clique_exact,
all_independent_sets, mwis_exact, fractional_chromatic_exact, the same
with all_sets=True, maximal_independent_sets]; for n <= 8 the list goes
on with admissible_sets, stacks_exact and stacks_lp_exact at each height
H in (1, 2, 3).  The sha256 is taken over these strings, UTF-8 encoded and
concatenated in instance order.  It runs in about 2 s.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from circlecolor import oracle  # noqa: E402
from circlecolor.instances import generate_one  # noqa: E402
from circlecolor.intervals import build_graph  # noqa: E402

SAMPLES = 120


def answers(rep, graph, weights) -> list:
    out = [
        oracle.chromatic_exact(graph),
        oracle.max_clique_exact(graph),
        oracle.all_independent_sets(graph),
        oracle.mwis_exact(graph, weights),
        oracle.fractional_chromatic_exact(graph),
        oracle.fractional_chromatic_exact(graph, all_sets=True),
        oracle.maximal_independent_sets(graph),
    ]
    if rep.n <= 8:
        for height in (1, 2, 3):
            out += [oracle.admissible_sets(rep, graph, height),
                    oracle.stacks_exact(rep, graph, height),
                    oracle.stacks_lp_exact(rep, graph, height)]
    return out


def main() -> None:
    digest = hashlib.sha256()
    rng = np.random.default_rng(7)
    for k in range(SAMPLES):
        rep = generate_one(1 + k % 12, 919, k)
        weights = {v: float(rng.integers(-5, 6)) for v in rep.vertices}
        digest.update(repr(answers(rep, build_graph(rep), weights)).encode())
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
