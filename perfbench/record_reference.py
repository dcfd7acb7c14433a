"""Record the larger fpt-sparse pairs and their optimum into reference.json.

The pairs are too large for ISMAGS, so their MCIS/MCCIS sizes are taken from
``mcis_vc_fpt`` at the seed commit, whose FPT solver agrees with the
brute-force oracle on every pair the acceptance gate checks.  Run it from the
repository root only to extend the pool; later commits are judged against
the sizes recorded here, not against their own output:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

from oracles import witness_problems
from workloads import REFERENCE_FILE, planted_cover_graph

# (n, planted cover sizes, problems); the pairs come from Random(f"pool:{index}")
POOL = (
    (14, 3, 3, ("mcis", "mccis")),
    (18, 3, 3, ("mcis", "mccis")),
    (22, 3, 3, ("mcis", "mccis")),
    (26, 3, 3, ("mcis", "mccis")),
    (30, 3, 3, ("mcis", "mccis")),
    (14, 3, 4, ("mcis", "mccis")),
    (30, 4, 4, ("mcis",)),
)


def main() -> None:
    sys.path.insert(0, str(Path("src").resolve()))
    from mcislab.graphs import Graph as MGraph
    from mcislab.solvers import SolveQuery, mcis_vc_fpt

    pairs = []
    for index, (n, k1, k2, problems) in enumerate(POOL):
        rng = random.Random(f"pool:{index}")
        graphs = [planted_cover_graph(rng, n, k1), planted_cover_graph(rng, n, k2)]
        g1, g2 = (MGraph.from_edges(g.n, g.edges) for g in graphs)
        sizes = {}
        for problem in problems:
            started = time.perf_counter()
            result = mcis_vc_fpt(SolveQuery(g1, g2, connected=problem == "mccis"))
            elapsed = time.perf_counter() - started
            if witness_problems(*graphs, result.witness.pairs, result.size, problem == "mccis"):
                raise SystemExit(f"pool pair {index}: invalid {problem} witness")
            sizes[problem] = result.size
            print(f"pool {index} n={n} covers=({k1},{k2}) {problem} size={result.size} "
                  f"configurations={result.stats.configurations} {elapsed:.2f}s", flush=True)
        pairs.append({"index": index, "n": n, "k1": k1, "k2": k2, "sizes": sizes,
                      "graphs": [g.to_text() for g in graphs]})
    REFERENCE_FILE.write_text(json.dumps({"pairs": pairs}, indent=1) + "\n")


if __name__ == "__main__":
    main()
