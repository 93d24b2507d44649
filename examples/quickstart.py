#!/usr/bin/env python
"""Quickstart: detect SCCs with ECL-SCC and inspect the result.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import CSRGraph, ecl_scc, tarjan_scc, verify_labels
from repro.core import ALL_ON
from repro.device import A100, TITAN_V


def main() -> None:
    # The paper's Fig. 3 example: 12 vertices, 15 edges, two clusters.
    edges = [
        (0, 3), (3, 5), (5, 7), (7, 9),            # the "linked list" spine
        (9, 2), (2, 9),                            # SCC {2, 9}
        (1, 4), (4, 6), (6, 1),                    # SCC {1, 4, 6}
        (4, 8), (8, 10), (10, 4),                  # ... joined: {1,4,6,8,10}
        (6, 11), (11, 6),                          # and 11 too
        (5, 3),                                    # SCC {3, 5}
    ]
    src, dst = zip(*edges)
    g = CSRGraph.from_edges(src, dst, 12, name="fig3")
    print(f"input: {g}")

    result = ecl_scc(g, options=ALL_ON, device=A100)
    print(f"labels:            {result.labels.tolist()}")
    print(f"SCC count:         {result.num_sccs}")
    print(f"outer iterations:  {result.outer_iterations}")
    print(f"kernel launches:   {result.kernel_launches}")
    print(f"model runtime:     {result.estimated_seconds * 1e6:.2f} us on A100")

    # every vertex's label is the max vertex ID in its SCC
    verify_labels(g, result.labels)  # checks against Tarjan (paper §4)
    assert np.array_equal(result.labels, tarjan_scc(g).labels)
    print("verified against Tarjan's algorithm")

    # compare the virtual devices
    for spec in (TITAN_V, A100):
        r = ecl_scc(g, device=spec)
        print(f"  {spec.name:10s}: {r.estimated_seconds * 1e6:8.2f} us (model)")


if __name__ == "__main__":
    main()
