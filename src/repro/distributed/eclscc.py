"""Distributed ECL-SCC on the virtual cluster.

An extension beyond the paper: because Phase 2 is plain monotone
max-propagation, ECL-SCC distributes as a textbook BSP computation —
each rank relaxes the edges whose *source* it owns, then sends updated
signatures of boundary vertices (those with cut edges) to the ranks that
read them.  Phase 3 is embarrassingly local (each rank filters its own
edges after one final signature exchange).

The interesting measurable: ECL-SCC's superstep count is the propagation
round count, while the distributed FB of McLendon pays a superstep per
BFS *level* and per residual task — on deep meshes, 10-100x more
synchronization points.  The flip side is halo width: every ECL round
ships updates across the whole edge cut, where FB's frontiers are
narrow.  The scaling benchmark (``benchmarks/test_ext_distributed.py``)
measures both sides of that trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.primitives import scc_edge_filter_mask
from ..engine.scheduler import DENSITY_THRESHOLD
from ..errors import AlgorithmError, ConvergenceError, RankLossError
from ..faults.inject import FaultInjector
from ..faults.plan import FaultPlan
from ..faults.recovery import backoff_seconds
from ..graph.csr import CSRGraph
from ..results import AlgoResult, Status
from ..trace import Tracer, ensure_tracer
from ..types import NO_VERTEX, VERTEX_DTYPE
from .cluster import ClusterSpec, VirtualCluster
from .partition import Partition

__all__ = ["DistributedResult", "distributed_ecl_scc"]


@dataclass(eq=False)
class DistributedResult(AlgoResult):
    """Labels plus the cluster's accounting for one distributed run.

    Extends :class:`~repro.results.AlgoResult`; ``device`` stays None
    (the run is accounted by ``cluster``, not a single device).
    """

    # base fields (labels, num_sccs, device, trace) come from AlgoResult;
    # the defaulted base fields force defaults here — construct by keyword
    outer_iterations: int = 0
    supersteps: int = 0
    cluster: "VirtualCluster | None" = None

    @property
    def estimated_seconds(self) -> float:
        return self.cluster.estimated_seconds


def distributed_ecl_scc(
    graph: CSRGraph,
    partition: Partition,
    spec: "ClusterSpec | None" = None,
    *,
    engine: str = "dense",
    tracer: "Tracer | None" = None,
    faults: "FaultPlan | None" = None,
) -> DistributedResult:
    """Run ECL-SCC as a BSP computation over *partition*.

    The result is bit-identical to the shared-memory algorithm (the
    fixed point does not depend on the schedule); the cluster object
    carries the communication accounting.  With *tracer*, every BSP
    superstep is one ``superstep`` span (attrs: ``index``, ``kind``)
    nested in its ``outer-iteration``, and halo traffic is recorded as
    per-rank ``halo-messages`` counters (attr ``rank``).

    ``engine`` names the per-rank round organization: ``"dense"`` (the
    default), ``"frontier"`` or ``"adaptive"``.  With ``"frontier"``,
    each rank applies the shared-memory frontier engine's
    cross-iteration reuse: Phase 1 re-initializes only
    still-active vertices (completed vertices keep their converged
    ``(label:label)`` pairs, which surviving edges never read — the
    Phase-3 filter drops every edge incident to a completed vertex), and
    each Phase-2 round relaxes only the edges adjacent to the previous
    round's changed vertices (plus any fault-regressed victims, which
    re-enter the frontier).  An edge with quiescent endpoints relaxes to
    the values it already holds, so the per-round iterates — and hence
    rounds, supersteps, halo messages, and labels — are *identical* to
    the dense sweep; only the per-rank compute charge (active edges
    instead of all local edges) and the Phase-1 init charge shrink.

    ``"adaptive"`` is the distributed analogue of the shared-memory
    adaptive engine.  It keeps the frontier iterates (identical
    labels, rounds, supersteps, messages) but every rank picks its own
    round organization *per superstep* from its local frontier density:
    a rank whose selected-edge mass exceeds
    :data:`~repro.engine.scheduler.DENSITY_THRESHOLD` of its local edges
    is charged the dense sweep (cheaper per edge — no worklist
    indirection), others the frontier relaxation, plus one op per local
    frontier flag for the density scan itself.  Each rank's choice is a
    ``scheduler:pick`` counter event (attrs ``rank``, ``round``) under
    the tracer.

    With *faults*, the plan's cluster-layer faults perturb the exchange
    supersteps: dropped/delayed boundary updates are regressed and
    re-propagated in later rounds (monotone — labels unchanged; drops
    charge re-sent messages), duplicated messages charge extra traffic,
    and a rank crash triggers bounded superstep retry with exponential
    backoff (charged to the alpha-beta model via
    :meth:`~repro.distributed.cluster.VirtualCluster.charge_retry`).  A
    permanent rank loss either fails over — survivors absorb the dead
    rank's work, ``result.status is Status.DEGRADED`` — or raises
    :class:`~repro.errors.RankLossError` with a structured payload when
    ``plan.failover`` is off.
    """
    if engine not in ("dense", "frontier", "adaptive"):
        raise AlgorithmError(
            f"unknown distributed engine {engine!r}; valid choices:"
            " dense, frontier, adaptive"
        )
    # frontier and adaptive share the reuse iterates; adaptive only
    # changes the per-rank *charge* (and records its picks)
    frontier = engine != "dense"
    adaptive = engine == "adaptive"
    if spec is None:
        spec = ClusterSpec(num_ranks=partition.num_ranks)
    if spec.num_ranks != partition.num_ranks:
        raise ConvergenceError("partition and cluster rank counts differ")
    cluster = VirtualCluster(spec)
    tr = ensure_tracer(tracer)
    injector = FaultInjector(faults, tracer=tr) if faults is not None else None
    n = graph.num_vertices
    labels = np.full(n, NO_VERTEX, dtype=VERTEX_DTYPE)
    if n == 0:
        return DistributedResult(
            labels=labels, num_sccs=0, cluster=cluster,
            trace=tr.trace if tr.enabled else None,
            fault_report=injector.report if injector else None,
        )

    src, dst = (a.copy() for a in graph.edges())
    owner = partition.owner
    if injector is not None:
        owner = owner.copy()  # failover may reassign the dead rank's work
    r = spec.num_ranks
    # boundary vertices: endpoints of cut edges, grouped by owner; a
    # signature update of a boundary vertex must be shipped to every rank
    # holding an edge that reads it.  We approximate the fan-out as 1
    # message per (boundary vertex, reading rank) pair via the cut-edge
    # counts per rank — the standard halo-exchange volume.
    ident = np.arange(n, dtype=VERTEX_DTYPE)
    sig_in = ident.copy()
    sig_out = ident.copy()
    active = np.ones(n, dtype=bool)
    outer = 0
    supersteps = 0

    while active.any():
        outer += 1
        if outer > n + 2:
            raise ConvergenceError("distributed ECL-SCC failed to converge")
        outer_span = tr.span("outer-iteration", index=outer)
        if frontier:
            # partial re-init: completed vertices keep (label:label);
            # no surviving edge reads them (see scc_edge_filter_mask)
            seeds = np.flatnonzero(active)
            sig_in[seeds] = seeds
            sig_out[seeds] = seeds
            init_ops = np.bincount(owner[seeds], minlength=r) * 2.0
        else:
            sig_in[:] = ident
            sig_out[:] = ident
            init_ops = np.bincount(owner, minlength=r) * 2.0
        # per-rank local edge counts for this iteration's worklist
        edges_per_rank = np.bincount(owner[src], minlength=r) if src.size else np.zeros(r)
        cut = owner[src] != owner[dst]
        # Phase 1 superstep (init is local)
        with tr.span("superstep", index=supersteps, kind="phase1-init"):
            cluster.superstep(init_ops, label="phase1-init")
        supersteps += 1
        # Phase 2: BSP rounds to the fixed point.  Injected message
        # faults regress updates and so add recovery rounds; the safety
        # bound grows by the plan's cluster fault budget to match.
        rounds_bound = (n + 2) * (
            1 + (faults.max_cluster_faults if faults is not None else 0)
        )
        rounds = 0
        # frontier mode: the vertices whose signature moved last round
        # (seeded with the re-initialized active set); only their
        # incident edges can make progress this round
        frontier_v = active.copy() if frontier else None
        while True:
            rounds += 1
            if rounds > rounds_bound:
                raise ConvergenceError(
                    "distributed Phase 2 failed to converge",
                    iterations=rounds - 1,
                    labels=labels.copy(),
                    sig_in=sig_in.copy(),
                    sig_out=sig_out.copy(),
                    active_count=int(np.count_nonzero(active)),
                )
            # local relax (Jacobi; sources' ranks do the work).  The
            # frontier mode relaxes only changed-adjacent edges — the
            # skipped edges relax to values they already hold, so the
            # iterates (and the round count) match the dense sweep.
            if frontier:
                sel = frontier_v[src] | frontier_v[dst]
                rs, rd = src[sel], dst[sel]
            else:
                rs, rd = src, dst
            prev_in, prev_out = sig_in, sig_out
            new_out = sig_out.copy()
            np.maximum.at(new_out, rs, sig_out[rd])
            new_in = sig_in.copy()
            np.maximum.at(new_in, rd, sig_in[rs])
            changed_v = (new_out != sig_out) | (new_in != sig_in)
            sig_out, sig_in = new_out, new_in
            # BSP pointer jumping (one request/reply gather superstep):
            # signatures are vertex IDs, so in[in[v]] / out[out[v]] are
            # remote lookups when the pointed-to vertex lives elsewhere —
            # the standard distributed pointer-doubling of BSP
            # connectivity algorithms, giving O(log) rounds.
            ji = sig_in[sig_in]
            jo = sig_out[sig_out]
            jump_changed = (ji != sig_in) | (jo != sig_out)
            # each rank requests every *distinct* remote pointer target
            # once (batched gather), then receives one reply per request
            jump_msgs = np.zeros(r, dtype=np.int64)
            for sig in (sig_in, sig_out):
                rem = owner[sig] != owner
                if frontier:
                    # completed vertices do not participate in jumps;
                    # dense counts them as local self-pointers, so the
                    # message totals stay identical
                    rem &= active
                if rem.any():
                    pair = owner[rem] * np.int64(n) + sig[rem]
                    uniq_pairs = np.unique(pair)
                    jump_msgs += 2 * np.bincount(
                        (uniq_pairs // n).astype(np.int64), minlength=r
                    )
            sig_in, sig_out = ji, jo
            changed_v |= jump_changed
            changed = bool(changed_v.any())
            # halo exchange: updated boundary vertices ship one message
            # per cut edge that reads them (16 bytes: two signatures)
            upd_cut = cut & (changed_v[src] | changed_v[dst])
            msgs = np.bincount(owner[src[upd_cut]], minlength=r) + jump_msgs
            extra_msgs = 0
            if injector is not None:
                # message faults perturb this exchange: drops/delays
                # regress the victims' published updates (the receivers
                # never see them this round — monotone, recomputed
                # later), dups and drop re-sends charge extra traffic
                boundary = np.zeros(n, dtype=bool)
                boundary[src[cut]] = True
                boundary[dst[cut]] = True
                perturb = injector.perturb_exchange(
                    supersteps, np.flatnonzero(changed_v & boundary)
                )
                if perturb.injected:
                    v = perturb.regress
                    if v.size:
                        sig_in[v] = prev_in[v]
                        sig_out[v] = prev_out[v]
                        if frontier:
                            # regressed victims re-enter the frontier so
                            # their incident edges re-relax next round
                            # (msgs above are already counted — dense
                            # does not re-announce rollbacks either)
                            changed_v[v] = True
                    extra_msgs = perturb.extra_messages
                    changed = True  # regressed updates must re-propagate
                if injector.rank_crash_due(supersteps):
                    recovered = _retry_crashed_rank(
                        injector, cluster, faults, supersteps
                    )
                    if not recovered:
                        owner, edges_per_rank, cut = _fail_over(
                            injector, faults, owner, src, dst, r,
                            supersteps=supersteps, labels=labels,
                            outer=outer,
                        )
            if extra_msgs:
                spread = np.full(r, extra_msgs // r, dtype=msgs.dtype)
                spread[: extra_msgs % r] += 1
                msgs = msgs + spread
            if frontier:
                # charge only the edges this round actually relaxed and
                # the vertices that still participate in jumps
                sel_ops = (
                    np.bincount(owner[rs], minlength=r) * spec.ops_per_edge
                )
                jump_ops = np.bincount(owner[active], minlength=r) * 4.0
                if adaptive:
                    # per-rank per-superstep selection: the worklist
                    # indirection inflates the frontier relaxation's
                    # per-edge cost by 1/DENSITY_THRESHOLD (the same
                    # byte-level derivation as the shared-memory
                    # scheduler, docs/performance_model.md), so a rank
                    # whose selected mass crosses the threshold of its
                    # local edges is charged the dense sweep instead.
                    # Iterates, messages and supersteps are untouched —
                    # a dense relaxation of the skipped edges returns
                    # the values they already hold.
                    dense_ops = edges_per_rank * spec.ops_per_edge
                    frontier_ops = sel_ops / DENSITY_THRESHOLD
                    pick_frontier = frontier_ops <= dense_ops
                    # the density scan itself: one op per local frontier
                    # flag (charged whether or not frontier wins)
                    scan_ops = np.bincount(
                        owner[np.flatnonzero(frontier_v)], minlength=r
                    ).astype(np.float64)
                    round_ops = (
                        np.where(pick_frontier, frontier_ops, dense_ops)
                        + jump_ops
                        + scan_ops
                    )
                    if tr.enabled:
                        for rk in range(r):
                            tr.counter(
                                "scheduler:pick",
                                policy=(
                                    "frontier" if pick_frontier[rk] else "dense"
                                ),
                                rank=rk,
                                round=rounds,
                            )
                else:
                    round_ops = sel_ops + jump_ops
            else:
                round_ops = (
                    edges_per_rank * spec.ops_per_edge
                    + np.bincount(owner, minlength=r) * 4.0
                )
            with tr.span(
                "superstep", index=supersteps, kind="phase2-exchange", round=rounds
            ):
                cluster.superstep(
                    round_ops,
                    messages=msgs,
                    bytes_out=msgs * 16,
                    label="phase2-exchange",
                )
                if tr.enabled:
                    for rk in np.flatnonzero(msgs):
                        tr.counter("halo-messages", int(msgs[rk]), rank=int(rk))
            supersteps += 1
            if frontier:
                frontier_v = changed_v
            if not changed:
                break
        # completion + Phase 3 (local filtering after the final exchange)
        done = sig_in == sig_out
        newly = done & active
        labels[newly] = sig_in[newly]
        active &= ~done
        keep = scc_edge_filter_mask(sig_in, sig_out, src, dst)
        with tr.span("superstep", index=supersteps, kind="phase3-filter"):
            cluster.superstep(
                edges_per_rank * spec.ops_per_edge, label="phase3-filter"
            )
        supersteps += 1
        src, dst = src[keep], dst[keep]
        outer_span.close()

    return DistributedResult(
        labels=labels,
        num_sccs=int(np.unique(labels).size),
        outer_iterations=outer,
        supersteps=supersteps,
        cluster=cluster,
        trace=tr.trace if tr.enabled else None,
        status=injector.status() if injector is not None else Status.CLEAN,
        fault_report=injector.report if injector is not None else None,
    )


def _retry_crashed_rank(
    injector: FaultInjector,
    cluster: VirtualCluster,
    plan: FaultPlan,
    superstep: int,
) -> bool:
    """Bounded retry of a crashed rank's superstep.  True once recovered.

    Attempt *k* waits ``backoff_base_us * 2**k``, floored by the
    straggler-adjusted duration of the last superstep; each wait stalls
    the whole BSP machine and is charged to the alpha-beta model.
    """
    dead = plan.rank_crash_rank % cluster.spec.num_ranks
    for attempt in range(plan.max_retries):
        wait = backoff_seconds(
            plan, attempt, floor_s=cluster.last_superstep_seconds
        )
        cluster.charge_retry(wait)
        injector.record_retry(superstep, dead, attempt, wait)
        if attempt + 1 >= plan.rank_recover_after:
            return True
    return False


def _fail_over(
    injector: FaultInjector,
    plan: FaultPlan,
    owner: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    r: int,
    *,
    supersteps: int,
    labels: np.ndarray,
    outer: int,
):
    """Redistribute a permanently-lost rank's vertices across survivors.

    Raises :class:`~repro.errors.RankLossError` (with the partial state
    attached) when failover is disabled or no survivor exists.  Returns
    the updated ``(owner, edges_per_rank, cut)``.
    """
    dead = plan.rank_crash_rank % r
    if not plan.failover or r <= 1:
        raise RankLossError(
            f"rank {dead} lost permanently after {plan.max_retries}"
            " failed retries and failover is disabled",
            rank=dead,
            superstep=supersteps,
            retries=plan.max_retries,
            labels=labels.copy(),
            iterations=outer,
            fault_report=injector.report,
        )
    survivors = np.array([k for k in range(r) if k != dead], dtype=owner.dtype)
    victims = np.flatnonzero(owner == dead)
    owner[victims] = survivors[np.arange(victims.size) % survivors.size]
    injector.record_failover(supersteps, dead)
    edges_per_rank = (
        np.bincount(owner[src], minlength=r).astype(np.float64)
        if src.size
        else np.zeros(r)
    )
    cut = owner[src] != owner[dst]
    return owner, edges_per_rank, cut
