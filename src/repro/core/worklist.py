"""Phase 3 of ECL-SCC: edge removal via double-buffered worklists.

The implementation never rebuilds a CSR graph (paper §3.3): the graph
lives as an edge worklist, and Phase 3 compacts the surviving edges into
the *other* buffer, after which the buffers swap roles.  In CUDA the
compaction slot is claimed with one atomic add per surviving edge; the
device accounting below records exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..device.executor import VirtualDevice
from ..engine.accounting import charge_edge_filter
from ..errors import AlgorithmError
from ..engine.primitives import scc_edge_filter_mask
from ..trace import NULL_TRACER, Tracer
from .options import EclOptions
from .signatures import Signatures

__all__ = ["DoubleBufferWorklist", "VertexFrontier", "phase3_filter"]


@dataclass
class DoubleBufferWorklist:
    """Front/back edge-buffer pair; ``swap`` exchanges them in O(1).

    ``generation`` counts compaction passes actually executed — it bumps
    exactly once per :meth:`replace` and never for a skipped pass (an
    already-empty worklist has nothing to compact).
    """

    src: np.ndarray
    dst: np.ndarray
    generation: int = 0

    @property
    def num_edges(self) -> int:
        return self.src.size

    def replace(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Install the freshly-compacted back buffer (the pointer swap).

        The back buffer keeps the front buffer's integer dtypes: a naive
        ``np.array([])`` is float64, and letting that through on the
        zero-survivor path would poison every later index operation.
        """
        src = np.asarray(src)
        dst = np.asarray(dst)
        if src.dtype != self.src.dtype:
            src = src.astype(self.src.dtype, copy=False)
        if dst.dtype != self.dst.dtype:
            dst = dst.astype(self.dst.dtype, copy=False)
        self.src = src
        self.dst = dst
        self.generation += 1


@dataclass
class VertexFrontier:
    """Double-buffered *vertex* worklist for the frontier Phase-2 engine.

    The front buffer holds the unique, sorted ids of vertices whose
    signatures changed last round, and ``mask`` is its ``num_vertices``
    membership mask; the round's edge scan reads the mask at both
    endpoints of every worklist edge, so each frontier-incident edge is
    taken exactly once
    (:func:`~repro.engine.primitives.incident_edges`).  :meth:`advance`
    compacts the changed flags into the back buffer and swaps, mirroring
    :class:`DoubleBufferWorklist`'s pointer-swap discipline over
    vertices instead of edges.
    """

    vertices: np.ndarray
    mask: np.ndarray
    generation: int = 0

    @classmethod
    def seeded(cls, seed: np.ndarray, num_vertices: int) -> "VertexFrontier":
        """Initial frontier from the invalidated-vertex seed set.

        The seed is scattered into a zero mask and compacted, which
        sorts and deduplicates it without a sort.
        """
        seed = np.asarray(seed, dtype=np.int64)
        if seed.size and (seed.min() < 0 or seed.max() >= num_vertices):
            raise AlgorithmError("frontier seed contains out-of-range vertex ids")
        mask = np.zeros(num_vertices, dtype=bool)
        mask[seed] = True
        return cls(vertices=np.flatnonzero(mask), mask=mask)

    @property
    def size(self) -> int:
        return self.vertices.size

    def advance(self, changed: np.ndarray) -> None:
        """Compact the changed-vertex flags into the back buffer and swap.

        *changed* becomes the new ``mask`` (kept, not copied).
        """
        self.vertices = np.flatnonzero(changed)
        self.mask = changed
        self.generation += 1


def phase3_filter(
    wl: DoubleBufferWorklist,
    sigs: Signatures,
    dev: VirtualDevice,
    opts: EclOptions,
    *,
    tracer: Tracer = NULL_TRACER,
    invalidate: "np.ndarray | None" = None,
) -> "tuple[int, int]":
    """Remove edges that cannot be intra-SCC (Algorithm 1 lines 15-19).

    An edge (u -> v) survives iff both signature pairs match:
    ``u_in == v_in and u_out == v_out``.  Mismatched signatures prove the
    endpoints are in different SCCs (paper §3.2.1), so dropping the edge
    is always safe; matched signatures may still be a cluster remnant, so
    the edge is kept for the next iteration.

    With ``opts.remove_scc_edges`` the filter additionally drops edges
    whose endpoints are already *completed* (``in == out``): a kept edge
    between completed vertices lies inside a detected SCC and is dead
    weight (the paper's second optimization).

    ``invalidate``, when given, is an ``num_vertices``-sized boolean
    mask the filter ORs the removed edges' endpoints into — the frontier
    engine's cross-iteration invalidation set (a dropped edge is the
    only event that can change a surviving vertex's next fixed point).

    Returns ``(kept, removed)``.  An already-empty worklist is a no-op:
    no kernel is charged and ``generation`` does not bump.
    """
    src, dst = wl.src, wl.dst
    if src.size == 0:
        return 0, 0
    keep = scc_edge_filter_mask(
        sigs.sig_in, sigs.sig_out, src, dst,
        drop_completed=opts.remove_scc_edges,
    )
    kept = int(np.count_nonzero(keep))
    removed = src.size - kept
    # one pass over the worklist; an atomic slot request per kept edge
    charge_edge_filter(dev, edges=src.size, kept=kept)
    tracer.counter("edges-kept", kept)
    tracer.counter("edges-removed", removed)
    if invalidate is not None and removed:
        dropped = ~keep
        invalidate[src[dropped]] = True
        invalidate[dst[dropped]] = True
    wl.replace(src[keep], dst[keep])
    return kept, removed
