"""Print the report count and sha256 of every answer that a fixed set of
requests returns, so that a change meant to keep the solver's answers as
they are can be checked with one command:

    python3 tools/report_digest.py

For k < 600 it runs, in this order, `solve_chromatic` on
generate_one(22, 21, k) and `solve_stacks` on generate_one(16, 21, k) with
height 2 + k % 2.  Every report is recorded as repr((kind,
chromatic_number, fractional_chromatic, root_gap, nodes_explored,
sorted(coloring.colors.items()), sorted(coloring.certificate or ()),
plan.stacks if stacks else None)), where kind is "colors" or "stacks", and
the sha256 is taken over these strings, UTF-8 encoded and concatenated in
call order.  tools/same_pivots.py covers the LP calls; this covers the
node counts, colorings and plans built on them.  It runs in about 10 s.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from circlecolor.bnb import solve_chromatic, solve_stacks  # noqa: E402
from circlecolor.instances import generate_one  # noqa: E402

SAMPLES = 600


def main() -> None:
    digest = hashlib.sha256()
    reports = 0
    for k in range(SAMPLES):
        for kind, report in (("colors", solve_chromatic(generate_one(22, 21, k))),
                             ("stacks", solve_stacks(generate_one(16, 21, k), 2 + k % 2))):
            reports += 1
            digest.update(repr((
                kind, report.chromatic_number, report.fractional_chromatic, report.root_gap,
                report.nodes_explored, sorted(report.coloring.colors.items()),
                sorted(report.coloring.certificate or ()),
                report.plan.stacks if kind == "stacks" else None,
            )).encode())
    print(f"reports {reports}")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
