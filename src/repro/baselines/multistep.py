"""The Multistep method (Slota, Rajamanickam & Madduri, IPDPS 2014).

One of the fastest shared-memory SCC frameworks before iSpan, and part
of the prior-work lineage the paper positions against.  The recipe:

1. **Trim**: iterated Trim-1 (optionally Trim-2);
2. **FW-BW**: a single forward/backward reach from a high-degree pivot
   detects the giant SCC of power-law inputs;
3. **Coloring**: the remainder — many small SCCs — is finished with the
   Orzan coloring scheme, which handles high SCC counts better than
   recursive FB.

Reimplemented here on the virtual device so the benchmark suite can
place it between GPU-SCC and iSpan in the comparison tables.
"""

from __future__ import annotations

import numpy as np

from ..device.executor import VirtualDevice
from ..device.spec import XEON_6226R, DeviceSpec
from ..engine import (
    ArrayBackend,
    get_backend,
    pivot_fb_step,
    select_pivot,
    trim1,
    trim2,
)
from ..graph.csr import CSRGraph
from ..profile.ledger import attach_ledger
from ..graph.ops import induced_subgraph
from ..results import AlgoResult, count_sccs
from ..trace import Tracer, ensure_tracer
from ..types import NO_VERTEX, VERTEX_DTYPE
from .coloring import coloring_scc

__all__ = ["multistep_scc"]


def multistep_scc(
    graph: CSRGraph,
    *,
    device: "VirtualDevice | DeviceSpec | None" = None,
    use_trim2: bool = True,
    backend: "ArrayBackend | str | None" = None,
    tracer: "Tracer | None" = None,
) -> AlgoResult:
    """Slota et al.'s Multistep method.  Returns an
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
    if n == 0:
        return AlgoResult(
            labels=labels, num_sccs=0, device=device,
            trace=tr.trace if tr.enabled else None,
        )

    active = np.ones(n, dtype=bool)
    # step 1: trim
    with tr.span("step1-trim"):
        trim1(graph, active, labels, device, backend=be, tracer=tr)
        if use_trim2 and active.any():
            if trim2(graph, active, labels, device, backend=be, tracer=tr):
                trim1(graph, active, labels, device, backend=be, tracer=tr)

    # step 2: one FW-BW from the max-total-degree pivot
    with tr.span("step2-fwbw"):
        if active.any():
            pivot = select_pivot(
                graph, active, device,
                strategy="max-degree", charge="serial", backend=be,
            )
            pivot_fb_step(
                graph, active, labels, device, pivot, backend=be, tracer=tr
            )
            trim1(graph, active, labels, device, backend=be, tracer=tr)

    # step 3: coloring SCC on the remaining induced subgraph
    with tr.span("step3-coloring", remaining=int(active.sum())):
        if active.any():
            sub, original = induced_subgraph(graph, active)
            sub_res = coloring_scc(
                sub, device=device.spec, backend=be, tracer=tr
            )
            device.counters.merge(sub_res.device.counters)
            # `original` is sorted ascending, so the compaction is monotone:
            # the max sub-index of a component maps to its max original ID,
            # and labels stay max-member-normalized through the lookup.
            labels[original] = original[sub_res.labels]
            active[original] = False

    assert not np.any(labels == NO_VERTEX)
    return AlgoResult(
        labels=labels,
        num_sccs=count_sccs(labels),
        device=device,
        trace=tr.trace if tr.enabled else None,
    )
