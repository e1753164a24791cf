"""Print the call count, pivot count and sha256 of every LP solve that a
fixed set of requests makes, so that a change meant to keep the solver's
pivots as they are can be checked with one command:

    python3 tools/same_pivots.py

For k < 600 it runs, in this order, `cg_root` on generate_one(25, 21, k),
`solve_chromatic` on generate_one(22, 21, k) and `solve_stacks` on
generate_one(16, 21, k) with height 2 + k % 2.  Every `solve_lp` call that
`bnb` makes (root LPs and branch-and-bound nodes) is recorded as
repr((status, objective, iterations, primal, dual)), where primal is
the sorted (variable name, value) pairs of the solution's primal array
and dual the sorted (row name, dual) pairs of its dual array, and the
sha256 is taken over these strings, UTF-8 encoded and concatenated in
call order.  The same three lines follow for each program alone, prefixed
`cg_root_`, `solve_chromatic_` and `solve_stacks_`, so that a change to
one program can show the others' solves unchanged.

A second block covers the integer programs, whose LPs pin variables: AS
fixes its structural zeros at [0, 0] and every branch-and-bound node fixes
binaries.  For k < 40 it runs `solve_ip` on `build_as` and `build_cl` (with
the first-fit color count in topological order) of
generate_one(3 + k % 8, 8, k), records their `solve_lp` calls the same
way in a hash of their own, and prints them as the `ip_` lines.  There a
dual of -0.0 is hashed as 0.0: a row whose variables are all pinned has
dual 0, and its sign depends only on whether the row is kept in the
tableau (its unit column basic reads -0.0) or left out (0.0).  Both
blocks run in about 10 s.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from circlecolor import bnb  # noqa: E402
from circlecolor.instances import generate_one  # noqa: E402
from circlecolor.intervals import build_graph, topological_order  # noqa: E402
from circlecolor.lpmodels import build_as, build_cl  # noqa: E402

SAMPLES = 600
IP_SAMPLES = 40
PROGRAMS = ("cg_root", "solve_chromatic", "solve_stacks")


class Recorder:
    """Stands in for bnb.solve_lp and hashes every solve it passes on; with
    unsigned_zeros, a dual of -0.0 is hashed as 0.0.  A Recorder may pass
    the solves on to another, so that both count them."""

    def __init__(self, solve_lp, unsigned_zeros=False):
        self.solve_lp = solve_lp
        self.unsigned_zeros = unsigned_zeros
        self.digest = hashlib.sha256()
        self.calls = self.pivots = 0

    def __call__(self, *args, **kwargs):
        sol = self.solve_lp(*args, **kwargs)
        model = args[0]
        self.calls += 1
        self.pivots += sol.iterations
        primal = sorted(zip(model.var_names, sol.primal.tolist()))
        dual = sorted(zip(model.row_names, sol.dual.tolist()))
        if self.unsigned_zeros:
            dual = [(name, y + 0.0) for name, y in dual]
        self.digest.update(repr((sol.status, sol.objective, sol.iterations,
                                 primal, dual)).encode())
        return sol


def main() -> None:
    solve_lp = bnb.solve_lp
    record = Recorder(solve_lp)
    programs = {name: Recorder(record) for name in PROGRAMS}
    try:
        for k in range(SAMPLES):
            bnb.solve_lp = programs["cg_root"]
            bnb.cg_root(generate_one(25, 21, k))
            bnb.solve_lp = programs["solve_chromatic"]
            bnb.solve_chromatic(generate_one(22, 21, k))
            bnb.solve_lp = programs["solve_stacks"]
            bnb.solve_stacks(generate_one(16, 21, k), 2 + k % 2)
        bnb.solve_lp = ip = Recorder(solve_lp, unsigned_zeros=True)
        for k in range(IP_SAMPLES):
            rep = generate_one(3 + k % 8, 8, k)
            graph = build_graph(rep)
            bnb.solve_ip(build_as(graph))
            bnb.solve_ip(build_cl(graph, bnb.first_fit(graph, topological_order(rep)).num_colors))
    finally:
        bnb.solve_lp = solve_lp
    print(f"calls {record.calls}")
    print(f"pivots {record.pivots}")
    print(f"sha256 {record.digest.hexdigest()}")
    for name, program in programs.items():
        print(f"{name}_calls {program.calls}")
        print(f"{name}_pivots {program.pivots}")
        print(f"{name}_sha256 {program.digest.hexdigest()}")
    print(f"ip_calls {ip.calls}")
    print(f"ip_pivots {ip.pivots}")
    print(f"ip_sha256 {ip.digest.hexdigest()}")


if __name__ == "__main__":
    main()
