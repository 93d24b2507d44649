"""The 4-signature (min+max) ECL-SCC variant (paper §3.3, last paragraph).

The paper sketches an alternative that tracks two *minimum* signatures in
addition to the two maximums; each outer iteration then separates at
least two SCCs per cluster (the max-SCC and the min-SCC), halving the
expected iteration count at the price of doubling signature memory.  The
authors measured but did not ship it; we implement it as an extension and
benchmark the trade-off (``benchmarks/test_ext_minmax.py``).

Correctness mirrors the max-only argument symmetrically: at a Phase-2
fixed point ``min_in[v]`` is the smallest ID among ancestors-or-self and
``min_out[v]`` the smallest among descendants-or-self; their equality
forces the common value to lie in v's SCC and equal the SCC minimum, so
completion-by-min identifies components exactly like completion-by-max.

The minimums are stored negated (``neg_in = -min_in``), so
min-propagation is the same scatter-max as max-propagation
(:func:`~repro.engine.relax.push`) and one diff
(:func:`~repro.engine.relax.rose`) finds every change.
"""

from __future__ import annotations

import numpy as np

from ..device.executor import VirtualDevice
from ..device.spec import A100, DeviceSpec
from ..engine import (
    ArrayBackend,
    charge_edge_filter,
    charge_relaxation_round,
    charge_vertex_scan,
    get_backend,
    normalize_labels_to_max,
    scc_edge_filter_mask,
)
from ..engine.accounting import QUAD_SIGNATURE_EDGE_BYTES
from ..engine.relax import push, rose, snapshot
from ..errors import ConvergenceError
from ..graph.csr import CSRGraph
from ..profile.ledger import instrument
from ..results import count_sccs
from ..trace import Tracer
from ..types import NO_VERTEX, VERTEX_DTYPE
from .eclscc import EclResult
from .signatures import Signatures

#: four signature arrays touched per vertex in init/completion scans
_QUAD_VERTEX_BYTES = 32

__all__ = ["minmax_scc"]


def minmax_scc(
    graph: CSRGraph,
    *,
    device: "VirtualDevice | DeviceSpec | None" = None,
    backend: "ArrayBackend | str | None" = None,
    tracer: "Tracer | None" = None,
) -> EclResult:
    """ECL-SCC with 2 max + 2 min signatures.  Same result contract as
    :func:`repro.core.eclscc.ecl_scc` (labels = max ID per component),
    and the same trace shape when *tracer* is passed."""
    be = get_backend(backend)
    device, tr = instrument(device, A100, tracer)
    n = graph.num_vertices
    labels = np.full(n, NO_VERTEX, dtype=VERTEX_DTYPE)
    if n == 0:
        return EclResult(
            labels=labels, num_sccs=0, outer_iterations=0, propagation_rounds=0,
            kernel_launches=0, edges_final=0, device=device,
            trace=tr.trace if tr.enabled else None,
            estimate=device.estimate(0, 0, signatures=4),
        )
    src, dst = (a.copy() for a in graph.edges())
    active = np.ones(n, dtype=bool)
    outer = 0
    total_rounds = 0
    completed_per_iteration: "list[int]" = []
    # interim labels carry completed-by-min components as negative codes so
    # they cannot collide with completed-by-max labels (vertex IDs >= 0)
    while active.any():
        outer += 1
        if outer > n + 2:
            raise ConvergenceError("minmax ECL-SCC failed to converge")
        with tr.span("outer-iteration", index=outer) as outer_span:
            with tr.span("phase1-init"):
                maxs = Signatures.identity(n)
                negs = Signatures(-maxs.sig_in, -maxs.sig_out)
                charge_vertex_scan(
                    device, be, num_vertices=n,
                    worklist_size=int(np.count_nonzero(active)),
                    bytes_per_vertex=_QUAD_VERTEX_BYTES,
                )
            rounds = 0
            with tr.span("phase2-propagate", edges=int(src.size)) as p2:
                if src.size:
                    while True:
                        rounds += 1
                        if rounds > n + 2:
                            raise ConvergenceError(
                                "minmax Phase 2 failed to converge"
                            )
                        tr.counter("relaxation-round", engine="minmax")
                        snap_max, snap_neg = snapshot(maxs), snapshot(negs)
                        push(maxs, src, dst, compress=False)
                        push(negs, src, dst, compress=False)
                        changed = (
                            rose(maxs, snap_max).any() or rose(negs, snap_neg).any()
                        )
                        charge_relaxation_round(
                            device, edges=int(src.size),
                            bytes_per_edge=QUAD_SIGNATURE_EDGE_BYTES,
                            streamed=False,
                        )
                        if not changed:
                            break
                    total_rounds += rounds
                p2.set(rounds=rounds)
            done_max = maxs.completed()
            done = done_max | negs.completed()
            newly = done & active
            # prefer the max label; fall back to the (negated) min label
            lab = np.where(done_max, maxs.sig_in, negs.sig_in - 1)
            labels[newly] = lab[newly]
            completed_per_iteration.append(int(np.count_nonzero(newly)))
            scanned = int(np.count_nonzero(active))
            active &= ~done
            charge_vertex_scan(
                device, be, num_vertices=n, worklist_size=scanned,
                bytes_per_vertex=_QUAD_VERTEX_BYTES,
            )
            outer_span.set(completed=int(np.count_nonzero(newly)))
            with tr.span("phase3-filter"):
                if src.size:
                    keep = (
                        scc_edge_filter_mask(
                            maxs.sig_in, maxs.sig_out, src, dst,
                            drop_completed=False,
                        )
                        & scc_edge_filter_mask(
                            negs.sig_in, negs.sig_out, src, dst,
                            drop_completed=False,
                        )
                        & ~done[src]
                    )
                    kept = int(np.count_nonzero(keep))
                    charge_edge_filter(
                        device, edges=int(src.size), kept=kept,
                        bytes_per_edge=QUAD_SIGNATURE_EDGE_BYTES,
                        streamed=False,
                    )
                    tr.counter("edges-kept", kept)
                    tr.counter("edges-removed", int(src.size - kept))
                    src, dst = src[keep], dst[keep]

    # normalize: negative (min-identified) codes -> max member ID
    labels = normalize_labels_to_max(labels)
    return EclResult(
        labels=labels,
        num_sccs=count_sccs(labels),
        outer_iterations=outer,
        propagation_rounds=total_rounds,
        kernel_launches=device.counters.kernel_launches,
        edges_final=int(src.size),
        completed_per_iteration=completed_per_iteration,
        device=device,
        trace=tr.trace if tr.enabled else None,
        estimate=device.estimate(n, graph.num_edges, signatures=4),
    )
