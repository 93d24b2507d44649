"""The Forward-Backward algorithm (Fleischer et al. 2000).

The plain divide-and-conquer formulation with an explicit task queue:
pick a pivot, compute forward and backward reach sets, emit their
intersection as an SCC, and recurse on the three remainder sets.  This
is the ancestor of every parallel SCC code the paper compares against,
kept here both as a third correctness oracle and as the textbook
baseline for the benchmark suite.
"""

from __future__ import annotations

import numpy as np

from ..device.executor import VirtualDevice
from ..device.spec import RYZEN_2950X, DeviceSpec
from ..engine import (
    ArrayBackend,
    backward_reach,
    charge_vertex_scan,
    forward_reach,
    get_backend,
    select_pivot,
)
from ..engine.accounting import PAIR_FLAG_BYTES
from ..graph.csr import CSRGraph
from ..profile.ledger import instrument
from ..results import AlgoResult, count_sccs
from ..trace import Tracer
from ..types import NO_VERTEX, VERTEX_DTYPE

__all__ = ["fb_scc"]


def fb_scc(
    graph: CSRGraph,
    *,
    device: "VirtualDevice | DeviceSpec | None" = None,
    backend: "ArrayBackend | str | None" = None,
    tracer: "Tracer | None" = None,
) -> AlgoResult:
    """Forward-Backward SCC decomposition.

    The pivot is the task's highest vertex ID (deterministic, and labels
    come out max-normalized for free).  Returns an
    :class:`~repro.results.AlgoResult` with max-member-ID labels.
    """
    be = get_backend(backend)
    device, tr = instrument(device, RYZEN_2950X, tracer)
    n = graph.num_vertices
    labels = np.full(n, NO_VERTEX, dtype=VERTEX_DTYPE)
    if n == 0:
        return AlgoResult(
            labels=labels, num_sccs=0, device=device,
            trace=tr.trace if tr.enabled else None,
        )
    # task queue of vertex-index arrays (subgraphs); masks are rebuilt per
    # task — the textbook formulation, not the coloring one
    queue: "list[np.ndarray]" = [np.arange(n, dtype=VERTEX_DTYPE)]
    mask = np.zeros(n, dtype=bool)
    while queue:
        task = queue.pop()
        if task.size == 0:
            continue
        if task.size == 1:
            labels[task[0]] = task[0]
            continue
        with tr.span("fb-task", size=int(task.size)):
            mask[:] = False
            mask[task] = True
            p = select_pivot(
                graph, mask, device, strategy="max-id", charge="none"
            )
            fwd, _ = forward_reach(
                graph, np.asarray([p]), mask, device, backend=be, tracer=tr
            )
            bwd, _ = backward_reach(
                graph, np.asarray([p]), mask, device, backend=be, tracer=tr
            )
            scc = fwd & bwd & mask
            scc_idx = np.flatnonzero(scc)
            labels[scc_idx] = scc_idx.max()
            tr.counter("scc-detected", size=int(scc_idx.size))
            # emit the task's SCC labels: a task-sized kernel (the task
            # queue is already worklist-driven under either backend)
            charge_vertex_scan(
                device, be, num_vertices=task.size,
                worklist_size=task.size, bytes_per_vertex=PAIR_FLAG_BYTES,
            )
            fwd_only = np.flatnonzero(fwd & ~scc & mask)
            bwd_only = np.flatnonzero(bwd & ~scc & mask)
            rest = np.flatnonzero(mask & ~fwd & ~bwd)
            for sub in (fwd_only, bwd_only, rest):
                if sub.size:
                    queue.append(sub.astype(VERTEX_DTYPE))
    return AlgoResult(
        labels=labels,
        num_sccs=count_sccs(labels),
        device=device,
        trace=tr.trace if tr.enabled else None,
    )
