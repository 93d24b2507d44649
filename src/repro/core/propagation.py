"""Phase 2 of ECL-SCC: maximum-signature propagation to a fixed point.

The engines implement the modelled kernel organizations:

* :func:`propagate_sync` — one kernel launch per global relaxation round
  (the baseline organization; Fig. 14's "no async" bar).
* :func:`propagate_async` — the asynchronous organization of §3.3/§3.4:
  each thread block iterates the edges assigned to it to a *local* fixed
  point inside a single launch, so one launch covers many relaxation
  rounds.  Blocks see each other's published values opportunistically;
  because max-propagation is monotonic and we re-sweep until a global
  fixed point, any interleaving yields the same result (the paper's
  "resilient to temporary priority inversions" argument).
* :func:`propagate_frontier` — a persistent vertex-worklist kernel in
  the style of iSpan/GPU-SCC worklist codes: only edges incident to
  vertices whose signatures changed are re-relaxed, and the driver seeds
  each outer iteration from the *invalidated* vertices only
  (cross-iteration frontier reuse) instead of re-relaxing every
  surviving edge to quiescence.  The modelled kernel is data-driven (it
  reads the frontier vertices' edge buckets); the host finds the same
  edges with one topology-driven scan of the worklist, which costs
  fewer NumPy calls on narrow rounds.  The ``frontier`` engine runs every
  round as :func:`frontier_round`; the ``adaptive`` engine passes an
  :class:`~repro.engine.scheduler.AdaptiveScheduler` that picks each
  round's shape, :func:`dense_round` or :func:`frontier_round`, from
  frontier density, average frontier degree, and the running
  launch-overhead/bandwidth ratio.  One drain serves both, so the static
  engine and the adaptive engine's frontier rounds can never diverge in
  labels or charges.

The two round shapes differ in *coverage*, the edges a round relaxes:
:func:`dense_round` relaxes every worklist edge (the sync engine's
round) and :func:`frontier_round` only the edges incident to the current
frontier.  How one edge is relaxed is the same for both: each selects
its edges, calls one round body of :mod:`repro.engine.relax`
(``full_round`` or ``push_round``) and charges the device.

Correctness of mixing round shapes: every shape performs a monotone
step of the same max-propagation join semilattice, a round that changes
nothing certifies that no plain relaxation can make progress (edges not
incident to a changed vertex relax to values they already hold), and a
monotone iteration's fixed point is schedule-independent — so any
per-round sequence of shapes converges to the *same* signatures, and
labels stay bit-identical to the dense engines.

All engines converge to the same unique fixed point: max-propagation is
monotone, every engine terminates only when no plain relaxation can make
progress, and the fixed point of a monotone join semilattice iteration
is schedule-independent — which is why labels are bit-identical across
engines.

Vectorization: every engine is a schedule over the round bodies of
:mod:`repro.engine.relax`: ``push`` (``np.maximum.at`` over an edge
subset) and ``compress_paths``.  The engines differ only in which edges
they hand ``push`` and in which vertices they compress.  With NumPy
2.4, ``ufunc.at`` is faster than a segment max by sort-grouped
``np.maximum.reduceat``: one direction of a full relaxation takes 5.6
vs 14.3 us on a beam_hex(4) sweep graph and 1.59 vs 1.73 ms on flickr
at scale 1/32 (best of 15, 2-vCPU x86-64 VM).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..device.executor import VirtualDevice
from ..engine.accounting import (
    charge_dense_round,
    charge_frontier_compaction,
    charge_frontier_launch,
    charge_frontier_round,
    charge_relaxation_round,
)
from ..engine.backend import ArrayBackend
from ..engine.primitives import incident_edges
from ..engine.relax import full_round, push_round
from ..engine.scheduler import AdaptiveScheduler
from ..errors import ConvergenceError
from ..trace import NULL_TRACER, Tracer
from ..types import VERTEX_DTYPE, sorted_unique
from .options import EclOptions
from .signatures import Signatures
from .worklist import VertexFrontier

__all__ = [
    "EdgeGrouping",
    "BlockPartition",
    "propagate_sync",
    "propagate_async",
    "propagate_frontier",
    "dense_round",
    "frontier_round",
]


@dataclass(frozen=True)
class EdgeGrouping:
    """One static edge array pair plus the distinct endpoints.

    ``touched`` holds the distinct endpoints in increasing order, the
    feedback set of a full-width round
    (:func:`~repro.engine.relax.full_round`).  Every engine builds one
    grouping per outer iteration, so ``touched`` comes from an endpoint
    count rather than a sort.
    """

    src: np.ndarray
    dst: np.ndarray
    touched: np.ndarray          # unique endpoint vertices of this edge set

    @classmethod
    def build(cls, src: np.ndarray, dst: np.ndarray) -> "EdgeGrouping":
        touched = np.flatnonzero(np.bincount(np.concatenate([src, dst])))
        return cls(
            src=src,
            dst=dst,
            touched=touched.astype(VERTEX_DTYPE, copy=False),
        )

    @property
    def num_edges(self) -> int:
        return self.src.size


@dataclass(frozen=True)
class BlockPartition:
    """Edge worklist split into contiguous per-thread-block chunks.

    Holds one :class:`EdgeGrouping` over the *whole* worklist plus the
    chunk boundaries; the async engine gathers the running blocks' edges
    from the chunk sizes each round instead of materializing per-block
    groupings.
    """

    grouping: EdgeGrouping
    bounds: np.ndarray          # (blocks+1,) edge offsets, strictly increasing
    chunk_sizes: np.ndarray     # (blocks,)

    @classmethod
    def build(cls, src: np.ndarray, dst: np.ndarray, bounds: np.ndarray) -> "BlockPartition":
        bounds = sorted_unique(np.asarray(bounds, dtype=np.int64))
        if bounds.size < 2:
            bounds = np.asarray([0, src.size], dtype=np.int64)
        return cls(
            grouping=EdgeGrouping.build(src, dst),
            bounds=bounds,
            chunk_sizes=np.diff(bounds),
        )

    @property
    def num_blocks(self) -> int:
        return self.bounds.size - 1

    @property
    def num_edges(self) -> int:
        return self.grouping.num_edges


def _bounds_check(
    rounds: int, bound: int, where: str, sigs: "Signatures | None" = None
) -> None:
    if rounds > bound:
        payload: "dict[str, object]" = {"iterations": rounds - 1}
        if sigs is not None:
            # attach progress so callers can degrade instead of losing the run
            payload.update(
                sig_in=sigs.sig_in.copy(),
                sig_out=sigs.sig_out.copy(),
                active_count=int(np.count_nonzero(sigs.sig_in != sigs.sig_out)),
            )
        raise ConvergenceError(
            f"{where} exceeded its round bound ({bound}); this indicates a bug"
            " in the propagation engine (max-propagation must converge in"
            " <= |V| rounds)",
            **payload,
        )


def propagate_sync(
    sigs: Signatures,
    grouping: EdgeGrouping,
    dev: VirtualDevice,
    opts: EclOptions,
    num_vertices: int,
    *,
    tracer: Tracer = NULL_TRACER,
) -> int:
    """Synchronous Phase 2: one launch per global round.  Returns rounds.

    Every round relaxes all worklist edges once; with path compression it
    additionally pointer-jumps both signature arrays and applies the
    feedback rule over the worklist's endpoint vertices.  The final
    (no-change) round is counted and launched — the real code must also
    run one extra kernel to discover quiescence.
    """
    bound = opts.rounds_bound(num_vertices)
    rounds = 0
    blocks = dev.blocks_for(grouping.num_edges)
    if opts.persistent_threads:
        blocks = min(blocks, dev.grid_blocks(persistent=True))
    while True:
        rounds += 1
        _bounds_check(rounds, bound, "propagate_sync", sigs)
        tracer.counter("relaxation-round", engine="sync")
        changed_v, compress_work = full_round(
            sigs, grouping.src, grouping.dst, grouping.touched, num_vertices,
            compress=opts.path_compression,
        )
        charge_relaxation_round(
            dev,
            edges=grouping.num_edges,
            vertices=compress_work,
            blocks=blocks,
        )
        if not changed_v.any():
            return rounds


def propagate_async(
    sigs: Signatures,
    partition: BlockPartition,
    dev: VirtualDevice,
    opts: EclOptions,
    num_vertices: int,
    *,
    tracer: Tracer = NULL_TRACER,
) -> "tuple[int, int]":
    """Asynchronous Phase 2 (§3.3): block-internal iteration per launch.

    Returns ``(launches, total_rounds)``.

    Model: within one kernel launch, all resident thread blocks iterate
    concurrently over their own edge chunks, observing each other's
    published signature values (max-propagation is monotonic, so any
    interleaving converges to the same fixed point — the paper's
    "priority inversion" resilience).  A block whose round produces no
    visible progress at any of its endpoints terminates *for that
    launch*; its edges stop relaxing until the host relaunches.  A launch
    ends when every block has terminated; launches repeat until a launch
    observes no change at all.

    Simulation: lockstep rounds over the running blocks' edges (every
    edge while all blocks run).  While most edges are active the round
    compresses like a sync round
    (:func:`~repro.engine.relax.full_round`); once the active front
    shrinks, it compresses only the relaxed endpoints
    (:func:`~repro.engine.relax.push_round`), so wall time tracks the
    work the modelled device actually performs.  Work
    accounting is honest about the persistent-thread trade-off: every
    round of a still-running block processes *all* of its edges,
    converged or not, so large persistent-thread chunks buy fewer
    launches with more total edge work.
    """
    # the shared engine-safe bound: a value crossing a block boundary only
    # advances at the next launch, so cross-launch round totals can reach
    # ~|V| + #launches (see EclOptions.max_rounds); max_rounds overrides.
    bound = opts.rounds_bound(num_vertices)
    launches = 0
    total_rounds = 0
    g = partition.grouping
    src, dst = g.src, g.dst
    chunk_sizes = partition.chunk_sizes
    nblocks = partition.num_blocks
    # persistent grids never exceed the resident-block count, regardless of
    # how the caller partitioned the worklist (same clamp as propagate_sync)
    grid = nblocks
    if opts.persistent_threads:
        grid = min(grid, dev.grid_blocks(persistent=True))
    m = g.num_edges
    while True:
        launches += 1
        _bounds_check(launches, bound, "propagate_async launches", sigs)
        running = np.ones(nblocks, dtype=bool)
        launch_changed = False
        launch_edge_work = 0
        launch_vertex_work = 0
        while running.any():
            total_rounds += 1
            _bounds_check(total_rounds, bound, "propagate_async rounds", sigs)
            tracer.counter("relaxation-round", engine="async")
            rb = np.flatnonzero(running)
            sizes = chunk_sizes[rb]
            active_edges = int(sizes.sum())
            launch_edge_work += active_edges
            if rb.size == nblocks:
                s, d = src, dst
            else:
                idx = np.flatnonzero(np.repeat(running, chunk_sizes))
                s, d = src[idx], dst[idx]
            if active_edges > m // 4:
                changed_v, compress_work = full_round(
                    sigs, s, d, g.touched, num_vertices,
                    compress=opts.path_compression,
                )
            else:
                changed_v, compress_work = push_round(
                    sigs, s, d, num_vertices, compress=opts.path_compression
                )
            launch_vertex_work += compress_work
            if changed_v.any():
                launch_changed = True
                # a block exits when no endpoint of its edges moved
                upd = changed_v[s] | changed_v[d]
                starts = np.concatenate([[0], np.cumsum(sizes)])[:-1]
                running[rb[~np.logical_or.reduceat(upd, starts)]] = False
            else:
                running[:] = False
        charge_relaxation_round(
            dev,
            edges=launch_edge_work,
            vertices=launch_vertex_work,
            blocks=grid,
        )
        if not launch_changed:
            return launches, total_rounds


def dense_round(
    sigs: Signatures,
    grouping: EdgeGrouping,
    frontier: VertexFrontier,
    dev: VirtualDevice,
    num_vertices: int,
    compress: bool,
) -> np.ndarray:
    """One dense round of the drain: relax every worklist edge.

    Charged as in-kernel work of the persistent drain
    (:func:`~repro.engine.accounting.charge_dense_round`).  Returns the
    changed-vertex mask.  *frontier* is unused: it keeps the one
    signature the drain calls both round shapes with.
    """
    changed_v, compress_work = full_round(
        sigs, grouping.src, grouping.dst, grouping.touched, num_vertices,
        compress=compress,
    )
    charge_dense_round(
        dev, edges=grouping.num_edges, vertices=compress_work,
        enqueues=int(np.count_nonzero(changed_v)),
    )
    return changed_v


def frontier_round(
    sigs: Signatures,
    grouping: EdgeGrouping,
    frontier: VertexFrontier,
    dev: VirtualDevice,
    num_vertices: int,
    compress: bool,
) -> np.ndarray:
    """One frontier round of the drain: relax the frontier-incident edges.

    The edges come from one scan over the worklist
    (:func:`~repro.engine.primitives.incident_edges`) and are charged as
    the modelled kernel's bucket reads
    (:func:`~repro.engine.accounting.charge_frontier_round`).  Returns
    the changed-vertex mask.
    """
    idx = incident_edges(frontier.mask, grouping.src, grouping.dst)
    changed_v, compress_work = push_round(
        sigs, grouping.src[idx], grouping.dst[idx], num_vertices,
        compress=compress,
    )
    charge_frontier_round(
        dev, edges=idx.size, frontier_size=frontier.size,
        vertices=compress_work, enqueues=int(np.count_nonzero(changed_v)),
    )
    return changed_v


def propagate_frontier(
    sigs: Signatures,
    grouping: EdgeGrouping,
    dev: VirtualDevice,
    opts: EclOptions,
    num_vertices: int,
    *,
    seed: np.ndarray,
    backend: ArrayBackend,
    reinit: int = 0,
    scheduler: "AdaptiveScheduler | None" = None,
    outer: int = 0,
    recovery: bool = False,
    tracer: Tracer = NULL_TRACER,
) -> "tuple[int, int]":
    """Frontier Phase 2: persistent vertex worklist seeded by *seed*.

    Returns ``(launches, rounds)``.  This one drain serves both the
    ``frontier`` engine (no *scheduler*: every round is a
    :func:`frontier_round`) and the ``adaptive`` engine (the *scheduler*
    picks each round's shape, :func:`dense_round` or
    :func:`frontier_round`).

    Model: one kernel compacts the invalidation flags into a vertex
    worklist (one atomic slot claim per seed vertex), then a single
    persistent kernel drains it — each in-kernel round reads the edge
    buckets of the current frontier, takes each incident edge exactly
    once, scatter-maxes both signature
    directions over exactly those edges, applies pointer jumping and
    signature feedback restricted to the touched endpoints, and enqueues
    every vertex whose signature rose into the next frontier
    (double-buffered, :class:`~repro.core.worklist.VertexFrontier`).
    The kernel exits when the frontier drains.

    Correctness: an edge not incident to any changed vertex relaxes to
    the values it already has, so skipping it cannot miss progress; an
    empty frontier therefore certifies plain-relaxation quiescence, and
    monotone max-propagation has a unique, schedule-independent fixed
    point — labels are bit-identical to the dense engines.  ``seed``
    must contain every vertex whose signature differs from its dense
    re-initialized state (the driver passes the invalidated set:
    unfinished vertices plus removed-edge endpoints).  Both round
    shapes are monotone steps of the same semilattice that return the
    exact changed-vertex set, so a scheduler mixing dense and frontier
    rounds keeps that invariant and reaches the same fixed point.

    Accounting: the seed compaction is one backend-swept launch, fused
    with the driver's partial Phase-1 re-init (``reinit`` invalidated
    vertices write their identity pair in the same sweep — both passes
    read the same invalidation flags, so a real kernel does them
    together); the drain is *one* launch whose per-round work
    (active-adjacent edges only, racy scatter-max, next-frontier
    enqueues) is charged as in-kernel traffic without further launches —
    this is what makes the engine win on launch-dominated mesh graphs.
    A dense round picked by the scheduler is in-kernel work of the same
    drain (:func:`~repro.engine.accounting.charge_dense_round`), so the
    launch count does not depend on the mix of round shapes.

    Host work: a round finds its edges with one scan over the worklist
    (:func:`~repro.engine.primitives.incident_edges`), the same set the
    modelled bucket reads take and are charged for, and the scheduler's
    density scan sums one incidence-degree array built per drain.

    The scheduler's inputs are fed here: structural launches via
    ``note_launches`` (the latency side of its ratio) and per-round
    counter deltas via ``account_round`` (the bandwidth side), both
    backend-invariant.  With ``recovery=True`` (re-propagation after a
    fault) the scheduler forces the frontier shape, skips the
    density scan, and its tallies are left untouched, so a fault plan
    cannot perturb the main rounds' decision sequence.
    """
    bound = opts.rounds_bound(num_vertices)
    frontier = VertexFrontier.seeded(seed, num_vertices)
    charge_frontier_compaction(
        dev, backend, num_vertices=num_vertices, frontier_size=frontier.size,
        reinit=reinit,
    )
    tally = scheduler is not None and not recovery
    launches = 1
    if tally:
        scheduler.note_launches(1)
    if frontier.size == 0:
        # the host sees an empty worklist and skips the drain launch
        return launches, 0
    blocks = dev.blocks_for(max(grouping.num_edges, frontier.size))
    if opts.persistent_threads:
        blocks = min(blocks, dev.grid_blocks(persistent=True))
    charge_frontier_launch(dev, blocks=blocks)
    launches += 1
    if tally:
        scheduler.note_launches(1, blocks=blocks)
    if scheduler is not None:
        # out- plus in-degree, a self-loop counted twice
        degree = np.bincount(grouping.src, minlength=num_vertices)
        degree += np.bincount(grouping.dst, minlength=num_vertices)
    rounds = 0
    compress = opts.path_compression
    while frontier.size:
        rounds += 1
        _bounds_check(rounds, bound, "propagate_frontier", sigs)
        if scheduler is None:
            tracer.counter("relaxation-round", engine="frontier")
            changed_v = frontier_round(
                sigs, grouping, frontier, dev, num_vertices, compress
            )
        else:
            policy = scheduler.decide(
                dev,
                frontier=frontier.vertices,
                degree=degree,
                worklist_edges=grouping.num_edges,
                touched=grouping.touched.size,
                num_vertices=num_vertices,
                compress=compress,
                outer=outer,
                round_no=rounds,
                recovery=recovery,
            )
            tracer.counter("relaxation-round", engine="adaptive", policy=policy)
            run_round = dense_round if policy == "dense" else frontier_round
            before = dev.counters.snapshot()
            changed_v = run_round(
                sigs, grouping, frontier, dev, num_vertices, compress
            )
            if tally:
                scheduler.account_round(before, dev.counters.snapshot())
        frontier.advance(changed_v)
    return launches, rounds
