"""Hong, Rodia & Olukotun (SC '13): FB-Trim with a WCC task phase.

The first parallel CPU method to handle real-world power-law graphs
well.  Phase structure per the publication:

1. Trim-1 (size-1), one pass of Trim-2 (size-2);
2. the giant SCC via forward/backward reach from a high-degree pivot
   (data-parallel phase);
3. weakly-connected-component decomposition of the remainder; each WCC
   becomes an independent *task* processed by FB recursion (task-parallel
   phase).

Included for completeness of the lineage (the paper discusses it as the
basis of the GPU codes) and as an extra benchmark point on the CPU side.
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
)
from ..graph.csr import CSRGraph
from ..profile.ledger import instrument
from ..graph.properties import weakly_connected_components
from ..results import AlgoResult, count_sccs
from ..trace import Tracer
from ..types import NO_VERTEX, VERTEX_DTYPE

__all__ = ["hong_scc"]


def hong_scc(
    graph: CSRGraph,
    *,
    device: "VirtualDevice | DeviceSpec | None" = None,
    backend: "ArrayBackend | str | None" = None,
    tracer: "Tracer | None" = None,
) -> AlgoResult:
    """Hong et al.'s method on the virtual CPU.  Returns an
    :class:`~repro.results.AlgoResult`."""
    be = get_backend(backend)
    device, tr = instrument(device, XEON_6226R, tracer)
    n = graph.num_vertices
    labels = np.full(n, NO_VERTEX, dtype=VERTEX_DTYPE)
    active = np.ones(n, dtype=bool)
    if n == 0:
        return AlgoResult(
            labels=labels, num_sccs=0, device=device,
            trace=tr.trace if tr.enabled else None,
        )

    with tr.span("phase1-trim"):
        trim1(graph, active, labels, device, backend=be, tracer=tr)
        if active.any():
            trim2(graph, active, labels, device, backend=be, tracer=tr)
            trim1(graph, active, labels, device, backend=be, tracer=tr)

    with tr.span("phase2-giant-scc"):
        if active.any():
            pivot = select_pivot(
                graph, active, device,
                strategy="max-degree", charge="serial", backend=be,
            )
            pivot_fb_step(
                graph, active, labels, device, pivot, backend=be, tracer=tr
            )

    with tr.span("phase3-wcc-fb", remaining=int(active.sum())):
        if active.any():
            # WCC decomposition of the remainder (label propagation), then
            # FB within each WCC.  The colors of colored_fb_rounds start
            # from the WCC labels, so components are processed as
            # independent tasks.
            wcc = weakly_connected_components(graph)
            device.launch(edges=graph.num_edges, vertices=n, bytes_per_edge=24)
            _fb_with_initial_colors(graph, active, labels, device, wcc, be)

    assert not np.any(labels == NO_VERTEX)
    return AlgoResult(
        labels=labels,
        num_sccs=count_sccs(labels),
        device=device,
        trace=tr.trace if tr.enabled else None,
    )


def _fb_with_initial_colors(
    graph: CSRGraph,
    active: np.ndarray,
    labels: np.ndarray,
    dev: VirtualDevice,
    init_colors: np.ndarray,
    backend: ArrayBackend,
) -> None:
    """Coloring-FB seeded with an initial partition (WCC labels)."""
    # The shared engine initializes its own colors; seeding is equivalent
    # to one extra split round, which we emulate by running the engine on
    # each WCC's vertex set via masking.  WCC counts are small for the
    # paper's workloads, but guard against pathological fragmentation by
    # falling back to a single run when there are many components.
    act_idx = np.flatnonzero(active)
    comps = np.unique(init_colors[act_idx])
    if comps.size > 64:
        colored_fb_rounds(graph, active, labels, dev, backend=backend)
        return
    for comp in comps:
        sub_active = active & (init_colors == comp)
        if sub_active.any():
            colored_fb_rounds(graph, sub_active, labels, dev, backend=backend)
            active &= ~(init_colors == comp)
