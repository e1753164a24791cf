"""Print the call count, pivot count and sha256 of every LP solve that a
fixed set of requests makes, so that a change meant to keep the solver's
pivots as they are can be checked with one command:

    python3 tools/same_pivots.py

For k < 600 it runs, in this order, `cg_root` on generate_one(25, 21, k),
`solve_chromatic` on generate_one(22, 21, k) and `solve_stacks` on
generate_one(16, 21, k) with height 2 + k % 2.  Every `solve_lp` call that
`bnb` makes (root LPs and branch-and-bound nodes) is recorded as
repr((status, objective, iterations, sorted(primal.items()),
sorted(dual.items()))), and the sha256 is taken over these strings,
UTF-8 encoded and concatenated in call order.  It runs in about 10 s.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from circlecolor import bnb  # noqa: E402
from circlecolor.instances import generate_one  # noqa: E402

SAMPLES = 600


def main() -> None:
    digest = hashlib.sha256()
    calls = pivots = 0
    solve_lp = bnb.solve_lp

    def record(*args, **kwargs):
        nonlocal calls, pivots
        sol = solve_lp(*args, **kwargs)
        calls += 1
        pivots += sol.iterations
        digest.update(repr((sol.status, sol.objective, sol.iterations, sorted(sol.primal.items()),
                            sorted(sol.dual.items()))).encode())
        return sol

    bnb.solve_lp = record
    try:
        for k in range(SAMPLES):
            bnb.cg_root(generate_one(25, 21, k))
            bnb.solve_chromatic(generate_one(22, 21, k))
            bnb.solve_stacks(generate_one(16, 21, k), 2 + k % 2)
    finally:
        bnb.solve_lp = solve_lp
    print(f"calls {calls}")
    print(f"pivots {pivots}")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
