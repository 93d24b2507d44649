"""iSpan (Ji, Liu & Huang, SC '18) — the paper's fastest parallel CPU code.

Phase structure per the publication, reproduced on the virtual CPU:

1. Trim-1 (iterated) before large-SCC detection;
2. large-SCC detection with spanning trees: forward and backward
   traversals from a hub pivot (maximum total degree).  iSpan's Rsync
   relaxes synchronization, which we model as a reduced per-level
   barrier charge, but each traversal level still has a critical-path
   cost — on high-diameter meshes the frontiers hold only a handful of
   vertices, so the traversal is effectively serial;
3. Trim-1, Trim-2 and Trim-3 after the large SCC;
4. residual small-SCC detection: FB over the remaining subgraphs.
   iSpan processes these with *task parallelism*; tasks are tiny and
   data-dependent on meshes, so we charge the per-level critical path to
   serial work exactly as phase 2 does.

Why it collapses on meshes (paper Tables 5-6: minutes-to-hours): mesh
graphs have no giant SCC, so phase 2 does an expensive full traversal
that detects almost nothing, and phases 3-4 peel a DAG whose depth is in
the hundreds-to-thousands, paying the per-level critical path each time
while frontiers are far narrower than the machine's thread count.
"""

from __future__ import annotations

import numpy as np

from ..device.executor import VirtualDevice
from ..device.spec import XEON_6226R, DeviceSpec
from ..engine import (
    ArrayBackend,
    colored_fb_rounds,
    get_backend,
    pivot_fb_step,
    select_pivot,
    trim1,
    trim2,
    trim3,
)
from ..graph.csr import CSRGraph
from ..profile.ledger import attach_ledger
from ..results import AlgoResult, count_sccs
from ..trace import Tracer, ensure_tracer
from ..types import NO_VERTEX, VERTEX_DTYPE

__all__ = ["ispan_scc"]

#: critical-path operations charged per traversal level (loop control,
#: Rsync flag checks, work-stealing) — one constant for all inputs.
_LEVEL_SERIAL_OPS = 400


def ispan_scc(
    graph: CSRGraph,
    *,
    device: "VirtualDevice | DeviceSpec | None" = None,
    backend: "ArrayBackend | str | None" = None,
    tracer: "Tracer | None" = None,
) -> AlgoResult:
    """iSpan on the virtual CPU.  Returns an
    :class:`~repro.results.AlgoResult`."""
    if device is None:
        device = VirtualDevice(XEON_6226R)
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

    # phase 1: Trim-1 before the large-SCC search
    with tr.span("phase1-trim"):
        trim1(graph, active, labels, device, backend=be, tracer=tr)

    # phase 2: spanning-tree forward/backward from the hub vertex
    with tr.span("phase2-giant-scc"):
        if active.any():
            hub = select_pivot(
                graph, active, device,
                strategy="max-degree", charge="serial", backend=be,
            )
            pivot_fb_step(
                graph, active, labels, device, hub,
                serial_level_cost=_LEVEL_SERIAL_OPS, backend=be, tracer=tr,
            )

    # phase 3: Trim-1, Trim-2, Trim-3
    with tr.span("phase3-retrim"):
        if active.any():
            trim1(graph, active, labels, device, backend=be, tracer=tr)
        if active.any():
            if trim2(graph, active, labels, device, backend=be, tracer=tr):
                trim1(graph, active, labels, device, backend=be, tracer=tr)
        if active.any():
            if trim3(graph, active, labels, device, backend=be, tracer=tr):
                trim1(graph, active, labels, device, backend=be, tracer=tr)

    # phase 4: task-parallel FB on the residual subgraphs
    with tr.span("phase4-residual-fb", remaining=int(active.sum())):
        if active.any():
            colored_fb_rounds(
                graph, active, labels, device,
                serial_level_cost=_LEVEL_SERIAL_OPS, backend=be, tracer=tr,
            )

    assert not np.any(labels == NO_VERTEX)
    return AlgoResult(
        labels=labels,
        num_sccs=count_sccs(labels),
        device=device,
        trace=tr.trace if tr.enabled else None,
    )
