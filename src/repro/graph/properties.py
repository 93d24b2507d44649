"""Graph property reports: degrees, weak components, reachability BFS.

These feed the Table 1/2/3 property rows and a couple of the baselines
(Hong's method uses weakly connected components; FB uses BFS reach sets).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..types import VERTEX_DTYPE
from .csr import CSRGraph

__all__ = [
    "DegreeStats",
    "degree_stats",
    "bfs_reach",
    "bfs_levels",
    "weakly_connected_components",
    "graph_diameter_estimate",
]


@dataclass(frozen=True)
class DegreeStats:
    """Degree summary matching the columns of Tables 1-3."""

    num_vertices: int
    num_edges: int
    avg_degree: float
    max_in_degree: int
    max_out_degree: int

    def as_row(self) -> "dict[str, float | int]":
        return {
            "vertices": self.num_vertices,
            "edges": self.num_edges,
            "avg_deg": round(self.avg_degree, 2),
            "max_din": self.max_in_degree,
            "max_dout": self.max_out_degree,
        }


def degree_stats(graph: CSRGraph) -> DegreeStats:
    """Compute the degree summary used in the paper's input tables."""
    n, m = graph.num_vertices, graph.num_edges
    return DegreeStats(
        num_vertices=n,
        num_edges=m,
        avg_degree=(m / n) if n else 0.0,
        max_in_degree=int(graph.in_degree().max(initial=0)),
        max_out_degree=int(graph.out_degree().max(initial=0)),
    )


def bfs_reach(graph: CSRGraph, sources: np.ndarray, *, mask: "np.ndarray | None" = None) -> np.ndarray:
    """Boolean reach set of a frontier BFS from *sources*.

    ``mask`` (optional boolean per-vertex array) restricts traversal to a
    subgraph: only vertices with ``mask[v]`` may be visited.  Sources
    outside the mask are ignored.  Runs level-synchronously with NumPy
    frontier expansion — the same data-parallel structure a GPU BFS has.
    """
    n = graph.num_vertices
    visited = np.zeros(n, dtype=bool)
    sources = np.asarray(sources, dtype=VERTEX_DTYPE).ravel()
    if mask is not None:
        sources = sources[mask[sources]]
    visited[sources] = True
    frontier = np.unique(sources)
    while frontier.size:
        nxt, _ = graph.successors(frontier)
        if mask is not None:
            nxt = nxt[mask[nxt]]
        nxt = nxt[~visited[nxt]]
        frontier = np.unique(nxt)
        visited[frontier] = True
    return visited


def bfs_levels(graph: CSRGraph, source: int) -> np.ndarray:
    """Per-vertex BFS distance from *source* (-1 for unreachable)."""
    n = graph.num_vertices
    level = np.full(n, -1, dtype=VERTEX_DTYPE)
    level[source] = 0
    frontier = np.asarray([source], dtype=VERTEX_DTYPE)
    depth = 0
    while frontier.size:
        depth += 1
        nxt, _ = graph.successors(frontier)
        nxt = nxt[level[nxt] < 0]
        frontier = np.unique(nxt)
        level[frontier] = depth
    return level


def weakly_connected_components(graph: CSRGraph) -> np.ndarray:
    """Per-vertex weak-component label via label propagation (min ID).

    Pointer-jumping label propagation on the symmetrized edge set —
    O(E log V) vectorized rounds, no recursion.  Labels are the minimum
    vertex ID in each component (so they are *not* dense; densify with
    :func:`repro.graph.condensation.compact_labels` if needed).
    """
    n = graph.num_vertices
    label = np.arange(n, dtype=VERTEX_DTYPE)
    src, dst = graph.edges()
    if src.size == 0:
        return label
    us = np.concatenate([src, dst])
    vs = np.concatenate([dst, src])
    while True:
        # hook: every vertex adopts the min label among itself + neighbours
        gathered = label[vs]
        new = label.copy()
        np.minimum.at(new, us, gathered)
        # pointer jumping (path compression) until stable
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, label):
            return label
        label = new


def graph_diameter_estimate(graph: CSRGraph, samples: int = 4, seed: int = 0) -> int:
    """Lower-bound estimate of directed diameter via sampled BFS sweeps."""
    n = graph.num_vertices
    if n == 0:
        return 0
    rng = np.random.default_rng(seed)
    best = 0
    for _ in range(samples):
        v = int(rng.integers(n))
        lv = bfs_levels(graph, v)
        best = max(best, int(lv.max(initial=0)))
    return best
