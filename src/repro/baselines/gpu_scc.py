"""GPU-SCC (Li et al. 2017) — the paper's fastest prior GPU code.

Phase structure per the publication, reproduced on the virtual GPU:

1. iterated Trim-1 (two kernel launches per round);
2. "large SCC" phase: forward/backward level-synchronous BFS from a
   single high-degree pivot over the whole remaining graph, with
   topology-driven load balancing — detects the giant SCC of power-law
   inputs in one shot;
3. another trim round (Trim-1 + Trim-2);
4. "small SCC" phase: coloring-FB over all remaining partitions
   simultaneously (WCC-style colors, one pivot per color by winning
   write), iterated to completion.

Cost character (and why the paper beats it on meshes): phases 1 and 4
launch kernels proportional to the trim depth and the BFS diameters of
the residual subgraphs, which on mesh inputs scale with the DAG depth —
thousands of nearly-empty launches — while ECL-SCC needs ~log(depth)
rounds of full-width work.
"""

from __future__ import annotations

import numpy as np

from ..device.executor import VirtualDevice
from ..device.spec import TITAN_V, DeviceSpec
from ..engine import (
    ArrayBackend,
    colored_fb_rounds,
    get_backend,
    pivot_fb_step,
    select_pivot,
    trim1,
    trim2,
)
from ..graph.csr import CSRGraph
from ..profile.ledger import attach_ledger
from ..results import AlgoResult, count_sccs
from ..trace import Tracer, ensure_tracer
from ..types import NO_VERTEX, VERTEX_DTYPE

__all__ = ["gpu_scc"]


def gpu_scc(
    graph: CSRGraph,
    *,
    device: "VirtualDevice | DeviceSpec | None" = None,
    backend: "ArrayBackend | str | None" = None,
    tracer: "Tracer | None" = None,
) -> AlgoResult:
    """Li et al.'s GPU SCC algorithm on the virtual device.

    Returns an :class:`~repro.results.AlgoResult` with max-member-ID
    labels.
    """
    if device is None:
        device = VirtualDevice(TITAN_V)
    elif isinstance(device, DeviceSpec):
        device = VirtualDevice(device)
    be = get_backend(backend)
    tr = ensure_tracer(tracer)
    attach_ledger(device, tr)
    n = graph.num_vertices
    labels = np.full(n, NO_VERTEX, dtype=VERTEX_DTYPE)
    active = np.ones(n, dtype=bool)
    if n == 0:
        return AlgoResult(
            labels=labels, num_sccs=0, device=device,
            trace=tr.trace if tr.enabled else None,
        )

    # phase 1: iterated Trim-1
    with tr.span("phase1-trim"):
        trim1(graph, active, labels, device, backend=be, tracer=tr)

    # phase 2: giant-SCC detection from a high-degree pivot
    with tr.span("phase2-giant-scc"):
        if active.any():
            pivot = select_pivot(
                graph, active, device,
                strategy="max-degree", charge="atomic", backend=be,
            )
            pivot_fb_step(
                graph, active, labels, device, pivot, backend=be, tracer=tr
            )

    # phase 3: re-trim (Trim-1 then Trim-2 then Trim-1 again)
    with tr.span("phase3-retrim"):
        if active.any():
            trim1(graph, active, labels, device, backend=be, tracer=tr)
        if active.any():
            if trim2(graph, active, labels, device, backend=be, tracer=tr):
                trim1(graph, active, labels, device, backend=be, tracer=tr)

    # phase 4: coloring-FB over everything that remains
    with tr.span("phase4-coloring-fb", remaining=int(active.sum())):
        if active.any():
            colored_fb_rounds(
                graph, active, labels, device, backend=be, tracer=tr
            )

    assert not np.any(labels == NO_VERTEX)
    return AlgoResult(
        labels=labels,
        num_sccs=count_sccs(labels),
        device=device,
        trace=tr.trace if tr.enabled else None,
    )
