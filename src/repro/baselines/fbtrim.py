"""FB-Trim (McLendon et al. 2005): Trim-1 peeling + Forward-Backward.

The classic recipe: repeatedly trim trivial SCCs, then run the FB
decomposition on whatever survives.  Kept as the direct ancestor of
GPU-SCC and iSpan and as an additional benchmark point.
"""

from __future__ import annotations

import numpy as np

from ..device.executor import VirtualDevice
from ..device.spec import RYZEN_2950X, DeviceSpec
from ..engine import ArrayBackend, colored_fb_rounds, get_backend, trim1, trim2
from ..graph.csr import CSRGraph
from ..profile.ledger import attach_ledger
from ..results import AlgoResult, count_sccs
from ..trace import Tracer, ensure_tracer
from ..types import NO_VERTEX, VERTEX_DTYPE

__all__ = ["fbtrim_scc"]


def fbtrim_scc(
    graph: CSRGraph,
    *,
    device: "VirtualDevice | DeviceSpec | None" = None,
    use_trim2: bool = True,
    backend: "ArrayBackend | str | None" = None,
    tracer: "Tracer | None" = None,
) -> AlgoResult:
    """Trim-1 (+ optional Trim-2), then coloring-FB on the remainder.

    Returns an :class:`~repro.results.AlgoResult`."""
    if device is None:
        device = VirtualDevice(RYZEN_2950X)
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
    with tr.span("trim"):
        trim1(graph, active, labels, device, backend=be, tracer=tr)
        if use_trim2:
            while trim2(graph, active, labels, device, backend=be, tracer=tr):
                trim1(graph, active, labels, device, backend=be, tracer=tr)
    with tr.span("coloring-fb", remaining=int(active.sum())):
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
