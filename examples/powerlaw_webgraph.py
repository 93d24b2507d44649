#!/usr/bin/env python
"""Power-law graph analysis — the other input class of the evaluation.

Builds the synthetic stand-ins for three SuiteSparse graphs (Table 3),
runs ECL-SCC and the two comparison codes on their natural devices, and
prints a bow-tie decomposition of the web-graph-like input (the classic
application of SCC detection to web graphs: the giant SCC plus its IN
and OUT components).

Run:  python examples/powerlaw_webgraph.py
"""

import numpy as np

from repro import ecl_scc, solve
from repro.device import A100, XEON_6226R
from repro.graph import bfs_reach, build_powerlaw


def bowtie(graph, labels) -> None:
    """Print the IN / SCC / OUT bow-tie of the largest component."""
    uniq, counts = np.unique(labels, return_counts=True)
    giant_label = uniq[np.argmax(counts)]
    core = labels == giant_label
    seed = np.flatnonzero(core)[:1]
    everywhere = np.ones(graph.num_vertices, dtype=bool)
    fwd = bfs_reach(graph, seed, mask=everywhere)
    bwd = bfs_reach(graph.transpose(), seed, mask=everywhere)
    out_comp = fwd & ~core
    in_comp = bwd & ~core
    other = ~(core | out_comp | in_comp)
    n = graph.num_vertices
    print(
        f"    bow-tie: SCC {core.sum() / n:6.1%}  IN {in_comp.sum() / n:6.1%}"
        f"  OUT {out_comp.sum() / n:6.1%}  other {other.sum() / n:6.1%}"
    )


def main() -> None:
    for name in ("web-Google", "soc-LiveJournal1", "wiki-Talk"):
        graph, planted = build_powerlaw(name, seed=0)
        print(f"{name}: |V|={graph.num_vertices} |E|={graph.num_edges}")
        result = ecl_scc(graph, device=A100)
        print(
            f"    ECL-SCC (A100 model): {result.num_sccs} SCCs in"
            f" {result.estimated_seconds * 1e3:.3f} ms model time,"
            f" {result.outer_iterations} iterations"
        )
        for algo, spec in (("gpu-scc", A100), ("ispan", XEON_6226R)):
            r = solve(graph, algo, device=spec)
            print(
                f"    {algo:8s} ({spec.name} model): {r.model_seconds * 1e3:.3f} ms"
            )
        bowtie(graph, result.labels)


if __name__ == "__main__":
    main()
