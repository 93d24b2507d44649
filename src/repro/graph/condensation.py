"""SCC condensation and DAG-depth computation.

Contracting each SCC of a digraph to a single vertex yields a DAG (the
*condensation*).  Two quantities from the paper live here:

* the condensation graph itself (used by the sweep scheduler and by the
  Forward-Backward baselines' analyses), and
* the **DAG depth** — the number of vertices on the longest directed path
  of the condensation — reported in Tables 1-3 and central to the paper's
  performance story (ECL-SCC needs ~log(depth) iterations, trim-based
  codes need ~depth).
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphValidationError
from ..types import VERTEX_DTYPE, as_vertex_array
from .csr import CSRGraph

__all__ = ["condense", "compact_labels", "dag_depth", "topological_levels"]


def compact_labels(labels: np.ndarray) -> np.ndarray:
    """Renumber arbitrary SCC labels to dense ``0..k-1``, ranked by label.

    SCC algorithms in this library label each component by an arbitrary
    representative vertex ID (ECL-SCC: the max ID in the component).  Dense
    labels are what the condensation and histogram code wants.
    """
    labels = as_vertex_array(labels, "labels")
    _, dense = np.unique(labels, return_inverse=True)
    return dense.astype(VERTEX_DTYPE, copy=False)


def condense(graph: CSRGraph, labels: np.ndarray) -> "tuple[CSRGraph, np.ndarray]":
    """Contract each SCC to one vertex.

    Parameters
    ----------
    graph:
        the original digraph.
    labels:
        per-vertex component labels (arbitrary integers; densified here).

    Returns
    -------
    (dag, dense_labels):
        *dag* is the condensation with duplicate inter-component edges
        removed and no self-loops; ``dense_labels[v]`` is the condensation
        vertex of original vertex ``v``.
    """
    labels = as_vertex_array(labels, "labels")
    if labels.size != graph.num_vertices:
        raise GraphValidationError(
            f"labels must have one entry per vertex ({graph.num_vertices}),"
            f" got {labels.size}"
        )
    dense = compact_labels(labels)
    k = int(dense.max()) + 1 if dense.size else 0
    src, dst = graph.edges()
    csrc, cdst = dense[src], dense[dst]
    keep = csrc != cdst
    dag = CSRGraph.from_edges(csrc[keep], cdst[keep], k).dedup()
    return dag, dense


def topological_levels(dag: CSRGraph) -> np.ndarray:
    """Longest-path level of every vertex of a DAG (sources are level 0).

    ``level[v]`` is the maximum number of edges on any path ending at ``v``.
    Raises :class:`GraphValidationError` if *dag* contains a cycle.

    Implementation: vectorized Kahn peeling — repeatedly strip the current
    zero-in-degree frontier and bump the levels of its successors.  Each
    round is O(edges out of frontier); total O(V + E).
    """
    n = dag.num_vertices
    level = np.zeros(n, dtype=VERTEX_DTYPE)
    indeg = dag.in_degree().copy()
    frontier = np.flatnonzero(indeg == 0).astype(VERTEX_DTYPE)
    processed = frontier.size
    while frontier.size:
        # gather all out-edges of the frontier
        heads, counts = dag.successors(frontier)
        tails_level = np.repeat(level[frontier], counts)
        # successors' level = max over incoming frontier edges of level+1
        np.maximum.at(level, heads, tails_level + 1)
        # decrement in-degrees (duplicate heads decrement multiple times)
        np.subtract.at(indeg, heads, 1)
        frontier = heads[indeg[heads] == 0]
        frontier = np.unique(frontier)
        processed += frontier.size
    if processed != n:
        raise GraphValidationError(
            "topological_levels called on a graph containing a cycle"
        )
    return level


def dag_depth(graph: CSRGraph, labels: np.ndarray) -> int:
    """DAG depth of the SCC condensation, in *vertices* (paper convention).

    A graph whose condensation is a single vertex (one SCC, or a single
    vertex) has depth 1, matching Tables 2 and 3 (e.g. twist-hex depth 1).
    An empty graph has depth 0.
    """
    dag, _ = condense(graph, labels)
    if dag.num_vertices == 0:
        return 0
    return int(topological_levels(dag).max()) + 1
