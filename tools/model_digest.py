"""Print the model count and one sha256 over every formulation's exports on
a fixed set of small instances, so that a change meant to keep the models
as they are can be checked with one command:

    python3 tools/model_digest.py

For k < 300 it takes rep = generate_one(1 + k % 14, 311, k), its
containment DAG and its clique matrix, built with full_points=(k % 3 == 0),
its graph, and the weights w[v] = float((7 * v + k) % 11 - 5) per vertex.
It builds, in this order, CG; CG_H at height 1 + k % 3; ISD(w); FCP; CL
with 1 + k % 5 colors; AS; then LC(w) and DLC(w) for the root and for each
branching vertex in ascending order.  Per model it records write_lp_text,
write_mps, metadata_sidecar, repr(implied.tolist()), write_lp_text of
parse_lp_text of the LP text and write_mps of parse_mps of the MPS.  The
sha256 is taken over these strings, UTF-8 encoded and concatenated in model
order.  It runs in about 10 s.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from circlecolor.instances import generate_one  # noqa: E402
from circlecolor.intervals import (  # noqa: E402
    ROOT,
    build_clique_matrix,
    build_dag,
    build_graph,
)
from circlecolor.lpmodels import (  # noqa: E402
    build_as,
    build_cg,
    build_cl,
    build_dlc,
    build_fcp,
    build_isd,
    build_lc,
    metadata_sidecar,
    parse_lp_text,
    parse_mps,
    write_lp_text,
    write_mps,
)
from circlecolor.stowage import build_cgh  # noqa: E402

SAMPLES = 300


def models(k: int) -> list:
    rep = generate_one(1 + k % 14, 311, k)
    dag, matrix = build_dag(rep), build_clique_matrix(rep, full_points=(k % 3 == 0))
    graph = build_graph(rep)
    w = {v: float((7 * v + k) % 11 - 5) for v in rep.vertices}
    out = [build_cg(rep, dag, matrix), build_cgh(rep, dag, matrix, 1 + k % 3),
           build_isd(rep, dag, matrix, w), build_fcp(rep, dag, matrix),
           build_cl(graph, 1 + k % 5), build_as(graph)]
    for i in [ROOT] + sorted(dag.branching):
        out += [build_lc(i, rep, dag, matrix, w), build_dlc(i, rep, dag, matrix, w)]
    return out


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    for k in range(SAMPLES):
        for model in models(k):
            lp, mps = write_lp_text(model), write_mps(model)
            for text in (lp, mps, metadata_sidecar(model), repr(model.implied.tolist()),
                         write_lp_text(parse_lp_text(lp)), write_mps(parse_mps(mps))):
                digest.update(text.encode())
            count += 1
    print(f"models {count}")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
