"""Iterative Tarjan SCC — the verification oracle.

The paper verifies every ECL-SCC run against Tarjan's algorithm (§4); we
do the same.  This implementation is fully iterative (explicit DFS stack)
so it handles million-vertex deep meshes without touching Python's
recursion limit, and it avoids per-neighbour Python work where possible by
walking CSR slices with integer cursors.

Output convention (shared by every SCC code in this library): a per-vertex
``labels`` array where two vertices have equal labels iff they are in the
same SCC, and each label is the **maximum vertex ID** inside its component.
Normalizing all algorithms to the max-ID convention makes outputs directly
comparable with ``np.array_equal`` — no canonicalization pass needed in
tests or verification.

Like every ``*_scc`` entry point, :func:`tarjan_scc` returns an
:class:`~repro.results.AlgoResult`; the labels are ``result.labels``.
"""

from __future__ import annotations

import numpy as np

from ..engine.primitives import normalize_labels_to_max
from ..graph.csr import CSRGraph
from ..results import AlgoResult, count_sccs
from ..trace import Tracer, ensure_tracer
from ..types import VERTEX_DTYPE

__all__ = ["tarjan_scc", "normalize_labels_to_max"]


def tarjan_scc(
    graph: CSRGraph, *, tracer: "Tracer | None" = None
) -> AlgoResult:
    """Tarjan's algorithm; labels are max-ID-normalized per-vertex.

    O(V + E) time, iterative.  Lowlink bookkeeping follows the classic
    formulation; the DFS stack stores (vertex, next-edge-cursor) pairs.
    Returns an :class:`~repro.results.AlgoResult` with ``device=None``
    (the oracle runs serially, outside the device model).
    """
    tr = ensure_tracer(tracer)
    with tr.span("tarjan-dfs", vertices=graph.num_vertices):
        labels = _tarjan_labels(graph)
    return AlgoResult(
        labels=labels,
        num_sccs=count_sccs(labels),
        trace=tr.trace if tr.enabled else None,
    )


def _tarjan_labels(graph: CSRGraph) -> np.ndarray:
    n = graph.num_vertices
    indptr = graph.indptr
    indices = graph.indices

    UNVISITED = -1
    index = np.full(n, UNVISITED, dtype=VERTEX_DTYPE)
    lowlink = np.zeros(n, dtype=VERTEX_DTYPE)
    on_stack = np.zeros(n, dtype=bool)
    labels = np.full(n, UNVISITED, dtype=VERTEX_DTYPE)

    scc_stack: "list[int]" = []
    next_index = 0

    # Explicit DFS state: parallel lists acting as the call stack.
    dfs_v: "list[int]" = []
    dfs_cursor: "list[int]" = []

    for root in range(n):
        if index[root] != UNVISITED:
            continue
        dfs_v.append(root)
        dfs_cursor.append(int(indptr[root]))
        index[root] = lowlink[root] = next_index
        next_index += 1
        scc_stack.append(root)
        on_stack[root] = True

        while dfs_v:
            v = dfs_v[-1]
            cursor = dfs_cursor[-1]
            end = int(indptr[v + 1])
            advanced = False
            while cursor < end:
                w = int(indices[cursor])
                cursor += 1
                if index[w] == UNVISITED:
                    # descend
                    dfs_cursor[-1] = cursor
                    dfs_v.append(w)
                    dfs_cursor.append(int(indptr[w]))
                    index[w] = lowlink[w] = next_index
                    next_index += 1
                    scc_stack.append(w)
                    on_stack[w] = True
                    advanced = True
                    break
                elif on_stack[w]:
                    if index[w] < lowlink[v]:
                        lowlink[v] = index[w]
            if advanced:
                continue
            # v finished
            dfs_v.pop()
            dfs_cursor.pop()
            if lowlink[v] == index[v]:
                # pop component; label with max member ID
                comp: "list[int]" = []
                while True:
                    w = scc_stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                rep = max(comp)
                for w in comp:
                    labels[w] = rep
            if dfs_v:
                parent = dfs_v[-1]
                if lowlink[v] < lowlink[parent]:
                    lowlink[parent] = lowlink[v]
    return labels
