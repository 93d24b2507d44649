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
  surviving edge to quiescence.  The ``frontier`` engine runs every
  round as the registered ``frontier`` policy
  (:class:`~repro.engine.policy.FrontierPushPolicy`); the ``adaptive``
  engine passes an :class:`~repro.engine.scheduler.AdaptiveScheduler`
  that picks each round's
  :class:`~repro.engine.policy.PropagationPolicy` from frontier
  density, average frontier degree, and the running
  launch-overhead/bandwidth ratio.  One drain serves both, so the static
  engine and the adaptive engine's frontier rounds can never diverge in
  labels or charges.

All engines converge to the same unique fixed point: max-propagation is
monotone, every engine terminates only when no plain relaxation can make
progress, and the fixed point of a monotone join semilattice iteration
is schedule-independent — which is why labels are bit-identical across
engines.

Vectorization: a relaxation round is a *segment maximum* — for every
vertex, the max of candidate values over its incident worklist edges.  We
precompute, once per outer iteration (the worklist only changes in Phase
3), a sorted edge permutation and group boundaries per endpoint, and each
round is then a gather + ``np.maximum.reduceat`` + masked store.  This is
the scatter-free formulation recommended by the HPC guide (``ufunc.at`` is
an order of magnitude slower than ``reduceat`` on grouped data).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..device.executor import VirtualDevice
from ..engine.accounting import (
    charge_frontier_compaction,
    charge_frontier_launch,
    charge_relaxation_round,
)
from ..engine.backend import ArrayBackend
from ..engine.policy import RoundState, get_policy
from ..engine.primitives import build_vertex_incidence
from ..engine.scheduler import AdaptiveScheduler
from ..errors import ConvergenceError
from ..trace import NULL_TRACER, Tracer
from ..types import VERTEX_DTYPE
from .options import EclOptions
from .signatures import Signatures
from .worklist import VertexFrontier

__all__ = [
    "EdgeGrouping",
    "BlockPartition",
    "propagate_sync",
    "propagate_async",
    "propagate_frontier",
]


@dataclass(frozen=True)
class EdgeGrouping:
    """Segment-max scaffolding for one static edge array pair.

    ``relax_*`` performs one Jacobi relaxation round over these edges:
    every edge (u -> v) proposes ``sig_out[v]`` to u's out-signature and
    ``sig_in[u]`` to v's in-signature (Algorithm 1 lines 10-11).
    """

    src: np.ndarray
    dst: np.ndarray
    # grouping of edges by source vertex (for out-signature maxima)
    order_by_src: np.ndarray
    group_src: np.ndarray        # unique source vertices
    starts_src: np.ndarray       # reduceat boundaries into order_by_src
    # grouping of edges by destination vertex (for in-signature maxima)
    order_by_dst: np.ndarray
    group_dst: np.ndarray
    starts_dst: np.ndarray
    touched: np.ndarray          # unique endpoint vertices of this edge set

    @classmethod
    def build(cls, src: np.ndarray, dst: np.ndarray) -> "EdgeGrouping":
        order_s = np.argsort(src, kind="stable")
        group_s, starts_s = np.unique(src[order_s], return_index=True)
        order_d = np.argsort(dst, kind="stable")
        group_d, starts_d = np.unique(dst[order_d], return_index=True)
        touched = np.union1d(group_s, group_d)
        return cls(
            src=src,
            dst=dst,
            order_by_src=order_s,
            group_src=group_s.astype(VERTEX_DTYPE, copy=False),
            starts_src=starts_s,
            order_by_dst=order_d,
            group_dst=group_d.astype(VERTEX_DTYPE, copy=False),
            starts_dst=starts_d,
            touched=touched.astype(VERTEX_DTYPE, copy=False),
        )

    @property
    def num_edges(self) -> int:
        return self.src.size

    # ------------------------------------------------------------------
    def relax(self, sigs: Signatures, *, compress: bool) -> bool:
        """One relaxation round; returns True if any signature rose.

        With ``compress`` the candidate read is ``sig[sig[w]]`` instead of
        ``sig[w]`` (the paper's ``out[out[v]]`` read) — never worse because
        signatures are monotone and self-improving.
        """
        changed = False
        sig_out, sig_in = sigs.sig_out, sigs.sig_in
        # u_out <- max over out-edges (u -> v) of v's out-signature
        cand = sig_out[self.dst]
        if compress:
            cand = sig_out[cand]
        grouped = cand[self.order_by_src]
        best = np.maximum.reduceat(grouped, self.starts_src)
        cur = sig_out[self.group_src]
        upd = best > cur
        if upd.any():
            sig_out[self.group_src[upd]] = best[upd]
            changed = True
        # v_in <- max over in-edges (u -> v) of u's in-signature
        cand = sig_in[self.src]
        if compress:
            cand = sig_in[cand]
        grouped = cand[self.order_by_dst]
        best = np.maximum.reduceat(grouped, self.starts_dst)
        cur = sig_in[self.group_dst]
        upd = best > cur
        if upd.any():
            sig_in[self.group_dst[upd]] = best[upd]
            changed = True
        return changed

    def relax_masked(
        self,
        sigs: Signatures,
        edge_active: "np.ndarray | None",
        num_vertices: int,
        *,
        compress: bool,
    ) -> np.ndarray:
        """One relaxation round over a subset of edges.

        ``edge_active`` is a boolean mask parallel to ``src``/``dst``
        (``None`` means all edges).  Inactive edges are neutralized by
        substituting -1 candidates, so the precomputed grouping is reused
        unchanged.  Returns a per-vertex boolean array marking vertices
        whose signature rose this round.
        """
        changed_v = np.zeros(num_vertices, dtype=bool)
        sig_out, sig_in = sigs.sig_out, sigs.sig_in
        # out-signatures
        cand = sig_out[self.dst]
        if compress:
            cand = sig_out[cand]
        if edge_active is not None:
            cand = np.where(edge_active, cand, -1)
        best = np.maximum.reduceat(cand[self.order_by_src], self.starts_src)
        upd = best > sig_out[self.group_src]
        if upd.any():
            winners = self.group_src[upd]
            sig_out[winners] = best[upd]
            changed_v[winners] = True
        # in-signatures
        cand = sig_in[self.src]
        if compress:
            cand = sig_in[cand]
        if edge_active is not None:
            cand = np.where(edge_active, cand, -1)
        best = np.maximum.reduceat(cand[self.order_by_dst], self.starts_dst)
        upd = best > sig_in[self.group_dst]
        if upd.any():
            winners = self.group_dst[upd]
            sig_in[winners] = best[upd]
            changed_v[winners] = True
        return changed_v


@dataclass(frozen=True)
class BlockPartition:
    """Edge worklist split into contiguous per-thread-block chunks.

    Holds one :class:`EdgeGrouping` over the *whole* worklist plus the
    chunk boundaries; the async engine neutralizes the edges of exited
    blocks instead of materializing per-block groupings, which keeps the
    per-round cost a handful of full-array NumPy operations.
    """

    grouping: EdgeGrouping
    bounds: np.ndarray          # (blocks+1,) edge offsets, strictly increasing
    chunk_sizes: np.ndarray     # (blocks,)

    @classmethod
    def build(cls, src: np.ndarray, dst: np.ndarray, bounds: np.ndarray) -> "BlockPartition":
        bounds = np.unique(np.asarray(bounds, dtype=np.int64))
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
        changed = grouping.relax(sigs, compress=opts.path_compression)
        extra_vertex_work = 0
        if opts.path_compression:
            changed |= sigs.pointer_jump()
            changed |= sigs.feedback(grouping.touched)
            extra_vertex_work = num_vertices + grouping.touched.size
        charge_relaxation_round(
            dev,
            edges=grouping.num_edges,
            vertices=extra_vertex_work,
            blocks=blocks,
        )
        if not changed:
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

    Simulation: lockstep rounds with the edges of exited blocks excluded.
    While most blocks are active the round is a full-array segment-max
    with neutralized candidates; once the active front shrinks, rounds
    switch to a scatter-max over just the active blocks' edges, so wall
    time tracks the work the modelled device actually performs.  Work
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
    touched = g.touched
    bounds = partition.bounds
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
            active_edges = int(chunk_sizes[running].sum())
            launch_edge_work += active_edges
            sig_in, sig_out = sigs.sig_in, sigs.sig_out
            changed_v = np.zeros(num_vertices, dtype=bool)
            if active_edges > m // 4:
                # ---- full-width round: neutralized segment max ----------
                edge_active = (
                    None if running.all() else np.repeat(running, chunk_sizes)
                )
                changed_v |= g.relax_masked(
                    sigs, edge_active, num_vertices, compress=opts.path_compression
                )
                sig_in, sig_out = sigs.sig_in, sigs.sig_out
                if opts.path_compression:
                    # pointer doubling (the in[in]/out[out] reads of §3.3)
                    ji = sig_in[sig_in]
                    jo = sig_out[sig_out]
                    changed_v |= ji != sig_in
                    changed_v |= jo != sig_out
                    sigs.sig_in, sigs.sig_out = sig_in, sig_out = ji, jo
                    # signature feedback over the worklist endpoints
                    in_t = sig_in[touched]
                    out_t = sig_out[touched]
                    before = sig_in[out_t]
                    np.maximum.at(sig_in, out_t, in_t)
                    upd = sig_in[out_t] > before
                    changed_v[out_t[upd]] = True
                    before = sig_out[in_t]
                    np.maximum.at(sig_out, in_t, out_t)
                    upd = sig_out[in_t] > before
                    changed_v[in_t[upd]] = True
                    launch_vertex_work += num_vertices + touched.size
                # deactivate: a block exits when no endpoint of its edges moved
                if changed_v.any():
                    launch_changed = True
                    upd_edge = changed_v[src] | changed_v[dst]
                    alive = (
                        np.maximum.reduceat(upd_edge.astype(np.int8), bounds[:-1]) > 0
                    )
                    running &= alive
                else:
                    running[:] = False
            else:
                # ---- narrow front: scatter-max over active edges only ----
                rb = np.flatnonzero(running)
                idx = np.concatenate(
                    [np.arange(bounds[i], bounds[i + 1]) for i in rb]
                )
                s, d = src[idx], dst[idx]
                cand = sig_out[d]
                if opts.path_compression:
                    cand = sig_out[cand]
                before = sig_out[s]
                np.maximum.at(sig_out, s, cand)
                w = s[sig_out[s] > before]
                changed_v[w] = True
                cand = sig_in[s]
                if opts.path_compression:
                    cand = sig_in[cand]
                before = sig_in[d]
                np.maximum.at(sig_in, d, cand)
                w = d[sig_in[d] > before]
                changed_v[w] = True
                if opts.path_compression:
                    e = np.concatenate([s, d])
                    # pointer doubling restricted to the active endpoints
                    ji = sig_in[sig_in[e]]
                    upd = ji > sig_in[e]
                    sig_in[e[upd]] = ji[upd]
                    changed_v[e[upd]] = True
                    jo = sig_out[sig_out[e]]
                    upd = jo > sig_out[e]
                    sig_out[e[upd]] = jo[upd]
                    changed_v[e[upd]] = True
                    # feedback restricted to the active endpoints
                    in_t = sig_in[e]
                    out_t = sig_out[e]
                    before = sig_in[out_t]
                    np.maximum.at(sig_in, out_t, in_t)
                    upd = sig_in[out_t] > before
                    changed_v[out_t[upd]] = True
                    before = sig_out[in_t]
                    np.maximum.at(sig_out, in_t, out_t)
                    upd = sig_out[in_t] > before
                    changed_v[in_t[upd]] = True
                    launch_vertex_work += 2 * e.size
                if changed_v.any():
                    launch_changed = True
                    upd_sub = changed_v[s] | changed_v[d]
                    # per-active-block boundaries within the subset
                    sub_bounds = np.concatenate(
                        [[0], np.cumsum(chunk_sizes[rb])]
                    )[:-1]
                    alive_sub = (
                        np.maximum.reduceat(upd_sub.astype(np.int8), sub_bounds) > 0
                    )
                    running[rb[~alive_sub]] = False
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
    ``frontier`` engine (no *scheduler*: every round runs the
    ``frontier`` policy) and the ``adaptive`` engine (the *scheduler*
    picks each round's policy).

    Model: one kernel compacts the invalidation flags into a vertex
    worklist (one atomic slot claim per seed vertex), then a single
    persistent kernel drains it — each in-kernel round gathers the edges
    incident to the current frontier, scatter-maxes both signature
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
    unfinished vertices plus removed-edge endpoints).  Every policy is a
    monotone step of the same semilattice that returns the exact
    changed-vertex set, so a scheduler mixing dense and frontier rounds
    keeps that invariant and reaches the same fixed point.

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
    launch count does not depend on the policy mix.

    The scheduler's inputs are fed here: structural launches via
    ``note_launches`` (the latency side of its ratio) and per-round
    counter deltas via ``account_round`` (the bandwidth side), both
    backend-invariant.  With ``recovery=True`` (re-propagation after a
    fault) the scheduler forces the ``frontier`` policy, skips the
    density scan, and its tallies are left untouched, so a fault plan
    cannot perturb the main rounds' decision sequence.
    """
    bound = opts.rounds_bound(num_vertices)
    indptr, edge_ids = build_vertex_incidence(grouping.src, grouping.dst, num_vertices)
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
    rounds = 0
    policy = get_policy("frontier")
    state = RoundState(
        sigs=sigs,
        grouping=grouping,
        indptr=indptr,
        edge_ids=edge_ids,
        frontier=frontier.vertices,
        num_vertices=num_vertices,
        compress=opts.path_compression,
    )
    while frontier.size:
        rounds += 1
        _bounds_check(rounds, bound, "propagate_frontier", sigs)
        state.frontier = frontier.vertices
        if scheduler is None:
            tracer.counter("relaxation-round", engine="frontier")
            changed_v = policy.run_round(state, dev)
        else:
            policy = scheduler.decide(
                dev,
                frontier=frontier.vertices,
                indptr=indptr,
                worklist_edges=grouping.num_edges,
                touched=grouping.touched.size,
                num_vertices=num_vertices,
                compress=opts.path_compression,
                outer=outer,
                round_no=rounds,
                recovery=recovery,
            )
            tracer.counter("relaxation-round", engine="adaptive", policy=policy.name)
            before = dev.counters.snapshot()
            changed_v = policy.run_round(state, dev)
            if tally:
                scheduler.account_round(before, dev.counters.snapshot())
        frontier.advance(changed_v)
    return launches, rounds
