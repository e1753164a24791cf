"""Print the answer count and sha256 of the answers that a fixed set of
requests returns, so that a change meant to keep every answer as it is,
while it may reach it another way, can be checked with one command:

    python3 tools/answer_digest.py

For k < 600 it takes, in this order, the relax answer
`fractional_chromatic` on generate_one(25, 21, k), `solve_chromatic` on
generate_one(22, 21, k) and `solve_stacks` on generate_one(16, 21, k) with
height 2 + k % 2.  Every answer is recorded as repr(("relax",
round(chi_f, 9))), repr(("colors", chi, round(chi_f, 9))) or
repr(("stacks", stacks, round(relaxation, 9))), and the sha256 is taken
over these strings, UTF-8 encoded and concatenated in call order.  Unlike
tools/report_digest.py it leaves out node counts, colorings and plans,
which depend on the path taken.  It runs in about 2 s.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from circlecolor.bnb import fractional_chromatic, solve_chromatic, solve_stacks  # noqa: E402
from circlecolor.instances import generate_one  # noqa: E402

SAMPLES = 600


def main() -> None:
    digest = hashlib.sha256()
    answers = 0
    for k in range(SAMPLES):
        chi_f = fractional_chromatic(generate_one(25, 21, k))
        colors = solve_chromatic(generate_one(22, 21, k))
        stacks = solve_stacks(generate_one(16, 21, k), 2 + k % 2)
        for answer in (("relax", round(chi_f, 9)),
                       ("colors", colors.chromatic_number,
                        round(colors.fractional_chromatic, 9)),
                       ("stacks", stacks.chromatic_number,
                        round(stacks.fractional_chromatic, 9))):
            answers += 1
            digest.update(repr(answer).encode())
    print(f"answers {answers}")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
