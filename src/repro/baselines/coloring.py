"""Coloring SCC (Orzan 2004 / the FB-coloring of Barnat et al.).

The other classical parallel SCC scheme the GPU literature builds on:

1. *Forward color propagation*: every vertex starts with its own ID as
   its color; colors propagate along edges taking maxima until a fixed
   point.  Afterwards ``color[v]`` is the largest ID that reaches ``v``,
   so each color class is closed under predecessors within the class and
   the vertex ``r == color[r]`` ("root") reaches every member of its
   class... backwards.  Concretely:
2. *Backward sweep*: the SCC of root ``r`` is exactly the set of
   vertices with color ``r`` that can reach ``r`` within the class
   (equivalently: backward-reachable from ``r`` along same-color edges).
3. Detected SCCs retire; the remainder repeats with fresh colors.

Note the relationship to ECL-SCC: step 1 is *half* of ECL-SCC's Phase 2
(the ``sig_in`` propagation).  ECL-SCC replaces the per-root backward
BFS with the second (out-)signature and an edge-removal step, which is
what removes the BFS's diameter-bound level count — implementing both
side by side makes that lineage measurable.
"""

from __future__ import annotations

import numpy as np

from ..device.executor import VirtualDevice
from ..device.spec import TITAN_V, DeviceSpec
from ..engine import (
    ArrayBackend,
    charge_relaxation_round,
    charge_vertex_scan,
    colored_reach,
    get_backend,
)
from ..errors import ConvergenceError
from ..graph.csr import CSRGraph
from ..profile.ledger import instrument
from ..results import AlgoResult, count_sccs
from ..trace import Tracer
from ..types import NO_VERTEX, VERTEX_DTYPE

__all__ = ["coloring_scc"]


def coloring_scc(
    graph: CSRGraph,
    *,
    device: "VirtualDevice | DeviceSpec | None" = None,
    backend: "ArrayBackend | str | None" = None,
    tracer: "Tracer | None" = None,
) -> AlgoResult:
    """Orzan-style coloring SCC.  Labels use the max-member-ID convention
    like every other code in this library.  Returns an
    :class:`~repro.results.AlgoResult`."""
    be = get_backend(backend)
    device, tr = instrument(device, TITAN_V, tracer)
    n = graph.num_vertices
    labels = np.full(n, NO_VERTEX, dtype=VERTEX_DTYPE)
    if n == 0:
        return AlgoResult(
            labels=labels, num_sccs=0, device=device,
            trace=tr.trace if tr.enabled else None,
        )
    src, dst = graph.edges()
    gt = graph.transpose()
    active = np.ones(n, dtype=bool)
    outer = 0
    while active.any():
        outer += 1
        if outer > n + 2:
            raise ConvergenceError("coloring SCC failed to converge")
        with tr.span("outer-iteration", index=outer):
            # ---- forward max-color propagation over active edges --------
            color = np.arange(n, dtype=VERTEX_DTYPE)
            live = active[src] & active[dst]
            s, d = src[live], dst[live]
            rounds = 0
            with tr.span("color-propagation", edges=int(s.size)) as cp:
                while True:
                    rounds += 1
                    if rounds > n + 2:
                        raise ConvergenceError(
                            "color propagation failed to converge"
                        )
                    before = color[d]
                    np.maximum.at(color, d, color[s])
                    charge_relaxation_round(device, edges=int(s.size))
                    if not np.any(color[d] > before):
                        break
                cp.set(rounds=rounds)
            # ---- backward sweeps from every root within its color -------
            # the SCC of root r is the set of vertices with color r that
            # reach r within the class: a same-color multi-source reverse
            # traversal, i.e. colored_reach on the memoized transpose
            with tr.span("backward-sweep"):
                roots = np.flatnonzero(active & (color == np.arange(n)))
                visited = colored_reach(gt, roots, color, active, device,
                                        backend=be)
            # visited vertices form complete SCCs labelled by their color root
            found = visited & active
            labels[found] = color[found]
            active &= ~found
            charge_vertex_scan(
                device, be, num_vertices=n,
                worklist_size=int(np.count_nonzero(active)),
            )
    # colors are root IDs = max ID reaching the SCC; the root is the max
    # *member* too (it reaches itself), so labels are already normalized
    return AlgoResult(
        labels=labels,
        num_sccs=count_sccs(labels),
        device=device,
        trace=tr.trace if tr.enabled else None,
    )
