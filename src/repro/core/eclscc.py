"""The ECL-SCC driver: Algorithm 1 with the paper's optimizations.

``ecl_scc(graph)`` returns an :class:`EclResult` whose ``labels`` array
maps every vertex to the maximum vertex ID of its strongly connected
component — the paper's output convention ("the final signature of each
vertex will be the highest ID among all vertices in the same SCC").

The run is always instrumented: ``device`` defaults to a
:class:`~repro.device.VirtualDevice` modelling an NVIDIA A100, so every
call collects kernel-launch / traffic counts and an estimated device
runtime.  Pass a different :class:`~repro.device.VirtualDevice` (or a
bare :class:`~repro.device.DeviceSpec`, wrapped automatically) to model
other hardware; there is no un-instrumented mode.  Pass a
:class:`~repro.trace.Tracer` to additionally record per-phase spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..device.costmodel import CostBreakdown
from ..device.executor import VirtualDevice
from ..device.spec import A100, DeviceSpec
from ..engine import (
    ArrayBackend,
    charge_vertex_scan,
    get_backend,
    normalize_labels_to_max,
)
from ..engine.accounting import SIGNATURE_PAIR_BYTES
from ..engine.scheduler import AdaptiveScheduler, PolicyDecision
from ..errors import ConvergenceError
from ..faults.inject import FaultInjector
from ..faults.plan import FaultPlan
from ..faults.recovery import CheckpointStore, heal_labels
from ..graph.csr import CSRGraph
from ..profile.ledger import instrument
from ..results import AlgoResult, Status, count_sccs
from ..trace import Tracer
from ..types import NO_VERTEX, VERTEX_DTYPE
from .options import ALL_ON, EclOptions
from .propagation import (
    BlockPartition,
    EdgeGrouping,
    propagate_async,
    propagate_frontier,
    propagate_sync,
)
from .signatures import Signatures
from .worklist import DoubleBufferWorklist, phase3_filter

__all__ = ["EclResult", "ecl_scc"]


@dataclass(eq=False)
class EclResult(AlgoResult):
    """Outcome of one ECL-SCC run (extends :class:`~repro.results.AlgoResult`).

    Attributes
    ----------
    labels:
        per-vertex SCC label = max vertex ID in the component.
    num_sccs:
        number of distinct components.
    outer_iterations:
        iterations of Algorithm 1's outer loop.
    propagation_rounds:
        total Phase-2 relaxation rounds across all outer iterations.
    kernel_launches:
        total kernels launched (the async optimization's target metric).
    edges_final:
        worklist size at termination (0 when SCC-edge removal is on and
        the graph decomposed fully).
    completed_per_iteration:
        vertices finishing in each outer iteration (diagnostic; the paper
        argues >= 1 SCC per cluster completes per iteration).
    permutation_seed:
        the RNG seed of the internal vertex relabelling when the run used
        ``randomize_ids=True`` (None otherwise) — enough to reproduce the
        exact permutation via :func:`repro.graph.ops.permute_random`.
    decision_log:
        the adaptive scheduler's per-round
        :class:`~repro.engine.scheduler.PolicyDecision` records, in order
        (None for every other engine).  Fault-recovery rounds appear
        flagged ``recovery=True``.
    device:
        the virtual device used, with its counters.
    trace:
        the recorded :class:`~repro.trace.Trace` (None without a tracer).
    estimate:
        cost-model runtime breakdown on that device (None without device).
    """

    # base fields (labels, num_sccs, device, trace) come from AlgoResult;
    # the defaulted base fields force defaults here — construct by keyword
    outer_iterations: int = 0
    propagation_rounds: int = 0
    kernel_launches: int = 0
    edges_final: int = 0
    completed_per_iteration: "list[int]" = field(default_factory=list)
    permutation_seed: "int | None" = None
    estimate: "CostBreakdown | None" = None
    decision_log: "list[PolicyDecision] | None" = None

    @property
    def estimated_seconds(self) -> float:
        return self.estimate.total if self.estimate else float("nan")


def ecl_scc(
    graph: CSRGraph,
    *,
    options: "EclOptions | None" = None,
    device: "VirtualDevice | DeviceSpec | None" = None,
    backend: "ArrayBackend | str | None" = None,
    randomize_ids: bool = False,
    seed: int = 0,
    tracer: "Tracer | None" = None,
    faults: "FaultPlan | None" = None,
) -> EclResult:
    """Detect all SCCs of *graph* with the ECL-SCC algorithm.

    Parameters
    ----------
    graph:
        any directed graph (duplicate edges and self-loops tolerated).
    options:
        optimization toggles; defaults to all optimizations on.
    device:
        virtual device to instrument against; a bare
        :class:`~repro.device.DeviceSpec` is wrapped automatically.
        Defaults to an A100 model.
    backend:
        :class:`~repro.engine.ArrayBackend` (or its name) the vertex-scan
        accounting sweeps against.  The default (``None``) is the dense
        backend, which reproduces the historical full-array launch costs
        bit-for-bit.
    tracer:
        optional :class:`~repro.trace.Tracer`; records one
        ``outer-iteration`` span per loop iteration with nested
        ``phase1-init`` / ``phase2-propagate`` / ``phase3-filter``
        spans, and a ``relaxation-round`` counter per Phase-2 round.
        The recorded trace is attached as ``result.trace``.
    randomize_ids:
        run the algorithm under a random internal vertex relabelling and
        map the labels back.  ECL-SCC's expected O(log) round counts
        assume randomly distributed IDs (§3); structured numberings (mesh
        row-major order, sequential cycles) can otherwise degrade
        propagation to one hop per round — see
        ``benchmarks/test_ext_id_ordering.py``.  Costs one O(V+E)
        shuffle; labels returned refer to the *original* IDs (still
        max-member normalized).
    faults:
        optional :class:`~repro.faults.FaultPlan`; ``None`` (the
        default) is a fault-free run.  The run injects the plan's seeded
        faults (signature regressions during Phase 2, crash/restart of
        the outer loop, bit-flips in the harvested labels) and recovers via
        checkpoints and verification-guarded self-healing.  The outcome
        is summarized in ``result.status`` / ``result.fault_report``;
        every fault and recovery action is also a trace event and is
        charged to the device cost model.

    Notes
    -----
    Algorithm 1's loop structure is preserved exactly: Phase 1
    re-initializes *all* signatures each iteration; Phase 2 propagates
    maxima to a fixed point; Phase 3 filters the edge worklist; the loop
    exits once every vertex satisfies ``v_in == v_out``.  Labels are
    frozen the first time a vertex completes — later iterations
    re-derive the same value for still-listed vertices but never touch
    recorded labels.
    """
    opts = options or ALL_ON
    be = get_backend(backend)
    device, tr = instrument(device, A100, tracer)

    if randomize_ids and graph.num_vertices > 1:
        from ..graph.ops import permute_random

        permuted, mapping = permute_random(graph, seed)
        inner = ecl_scc(
            permuted, options=opts, device=device, backend=be,
            seed=seed, tracer=tracer, faults=faults,
        )
        # map back: original vertex v ran as mapping[v]; its component
        # label is a permuted ID, so normalize over original IDs
        inner.labels = normalize_labels_to_max(inner.labels[mapping])
        inner.permutation_seed = seed
        return inner

    n = graph.num_vertices
    labels = np.full(n, NO_VERTEX, dtype=VERTEX_DTYPE)
    completed_per_iteration: "list[int]" = []
    if n == 0:
        return EclResult(
            labels=labels,
            num_sccs=0,
            outer_iterations=0,
            propagation_rounds=0,
            kernel_launches=0,
            edges_final=0,
            device=device,
            trace=tr.trace if tr.enabled else None,
            estimate=device.estimate(0, 0),
        )

    src, dst = graph.edges()
    wl = DoubleBufferWorklist(src.copy(), dst.copy())
    sigs = Signatures.identity(n)
    active = np.ones(n, dtype=bool)
    outer = 0
    total_rounds = 0
    outer_bound = opts.outer_bound(n)
    engine = opts.phase2_engine
    # the frontier and adaptive engines share the reuse driver shape:
    # persistent worklist drain, partial Phase-1 re-init, cross-iteration
    # invalidation seeding — adaptive additionally routes each in-kernel
    # round through a scheduler-picked propagation policy
    use_reuse = engine in ("frontier", "adaptive")
    scheduler = (
        AdaptiveScheduler(
            device.spec, num_vertices=n, num_edges=graph.num_edges, tracer=tr
        )
        if engine == "adaptive"
        else None
    )
    # cross-iteration invalidation set of the reuse engines: vertices
    # whose signatures must be re-initialized and re-propagated this
    # iteration (everything on iteration 1; afterwards the still-active
    # vertices plus the endpoints of the edges Phase 3 removed)
    invalidated = np.ones(n, dtype=bool) if use_reuse else None

    injector: "FaultInjector | None" = None
    store: "CheckpointStore | None" = None
    if faults is not None:
        injector = FaultInjector(faults, tracer=tr)
        store = CheckpointStore(faults.checkpoint_every, injector=injector)

    while active.any():
        # checkpoint at the top of the iteration (0 = genesis), so the
        # counter copy predates this iteration's charges — restoring and
        # re-executing then recharges the exact same sequence
        if store is not None and store.due(outer):
            store.save(
                outer=outer, labels=labels, active=active, wl=wl,
                total_rounds=total_rounds,
                completed_per_iteration=completed_per_iteration,
                device=device,
                sigs=sigs if use_reuse else None,
                invalidated=invalidated,
                scheduler=scheduler,
            )
        outer += 1
        if outer > outer_bound:
            raise ConvergenceError(
                f"ECL-SCC exceeded {outer_bound} outer iterations; each"
                " iteration must complete at least one SCC per cluster",
                iterations=outer - 1,
                labels=labels.copy(),
                sig_in=sigs.sig_in.copy(),
                sig_out=sigs.sig_out.copy(),
                active_count=int(np.count_nonzero(active)),
            )
        if injector is not None and injector.crash_due(outer):
            ckpt = store.restore(
                labels=labels, active=active, wl=wl, device=device,
                crashed_at=outer,
                sigs=sigs if use_reuse else None,
                invalidated=invalidated,
                scheduler=scheduler,
            )
            outer = ckpt.outer
            total_rounds = ckpt.total_rounds
            completed_per_iteration[:] = ckpt.completed_per_iteration
            continue
        with tr.span("outer-iteration", index=outer) as outer_span:
            # ---- Phase 1: (re)initialize signatures ----------------------
            with tr.span("phase1-init"):
                if use_reuse:
                    # partial re-init: completed vertices keep their
                    # (label:label) fixed-point pairs — they are never
                    # read again (all their worklist edges are gone or
                    # already quiescent), so re-deriving them is waste
                    inv_ids = np.flatnonzero(invalidated)
                    sigs.reinit(inv_ids)
                    if not wl.num_edges:
                        # no Phase-2 compaction launch to fuse into
                        charge_vertex_scan(
                            device, be, num_vertices=n,
                            worklist_size=int(inv_ids.size),
                            bytes_per_vertex=SIGNATURE_PAIR_BYTES,
                        )
                    # else: the re-init write is charged inside the
                    # Phase-2 seed-compaction launch (same flag sweep)
                else:
                    sigs.reinit()
                    charge_vertex_scan(
                        device, be, num_vertices=n,
                        worklist_size=int(np.count_nonzero(active)),
                        bytes_per_vertex=SIGNATURE_PAIR_BYTES,
                    )

            # ---- Phase 2: propagate maxima to a fixed point ---------------
            rounds = 0
            dlen = len(scheduler.decisions) if scheduler is not None else 0
            with tr.span("phase2-propagate", edges=wl.num_edges) as p2:
                if wl.num_edges:
                    if use_reuse:
                        grouping = EdgeGrouping.build(wl.src, wl.dst)
                        in_wl = np.zeros(n, dtype=bool)
                        in_wl[grouping.touched] = True

                        def run_reuse(
                            seed_ids: np.ndarray,
                            reinit: int = 0,
                            recovery: bool = False,
                        ) -> int:
                            _, r = propagate_frontier(
                                sigs, grouping, device, opts, n,
                                seed=seed_ids, backend=be, reinit=reinit,
                                scheduler=scheduler, outer=outer,
                                recovery=recovery, tracer=tr,
                            )
                            return r

                        rounds = run_reuse(
                            np.flatnonzero(invalidated & in_wl),
                            reinit=int(inv_ids.size),
                        )
                        if injector is not None:
                            # regressed vertices are the only ones below
                            # their fixed point, so they alone re-seed
                            # the worklist (diffed against a pre-perturb
                            # snapshot; monotone re-convergence).  The
                            # adaptive scheduler treats these re-drains as
                            # recovery: forced frontier policy, no scan,
                            # tallies untouched — a fault plan cannot
                            # perturb the main rounds' decision sequence
                            while True:
                                snap_in = sigs.sig_in.copy()
                                snap_out = sigs.sig_out.copy()
                                if not injector.perturb_propagation(sigs, outer):
                                    break
                                regressed = np.flatnonzero(
                                    (sigs.sig_in != snap_in)
                                    | (sigs.sig_out != snap_out)
                                )
                                rounds += run_reuse(regressed, recovery=True)
                        total_rounds += rounds
                    elif engine == "atomic":
                        from .atomic import propagate_atomic

                        def run_phase2() -> int:
                            return propagate_atomic(
                                sigs, wl.src, wl.dst, device, opts, n,
                                tracer=tr,
                            )
                    elif engine == "async":
                        bounds = device.partition_edges(
                            wl.num_edges, persistent=opts.persistent_threads
                        )
                        partition = BlockPartition.build(wl.src, wl.dst, bounds)

                        def run_phase2() -> int:
                            _, r = propagate_async(
                                sigs, partition, device, opts, n, tracer=tr
                            )
                            return r
                    else:
                        grouping = EdgeGrouping.build(wl.src, wl.dst)

                        def run_phase2() -> int:
                            return propagate_sync(
                                sigs, grouping, device, opts, n, tracer=tr
                            )

                    if not use_reuse:
                        rounds = run_phase2()
                        if injector is not None:
                            # stale reads / lost updates regress signatures
                            # toward the phase-start snapshot; monotone
                            # max-propagation re-converges to the same fixed
                            # point, charged as real extra rounds
                            while injector.perturb_propagation(sigs, outer):
                                rounds += run_phase2()
                        total_rounds += rounds
                p2.set(rounds=rounds)
                if scheduler is not None:
                    picked = scheduler.decisions[dlen:]
                    counts: "dict[str, int]" = {}
                    for d in picked:
                        counts[d.policy] = counts.get(d.policy, 0) + 1
                    p2.set(
                        **{
                            "rounds_" + name.replace("-", "_"): count
                            for name, count in counts.items()
                        }
                    )

            # ---- completion detection -------------------------------------
            done = sigs.completed()
            newly = done & active
            labels[newly] = sigs.sig_in[newly]
            completed_per_iteration.append(int(np.count_nonzero(newly)))
            scanned = int(np.count_nonzero(active))
            active &= ~done
            charge_vertex_scan(
                device, be, num_vertices=n, worklist_size=scanned,
                bytes_per_vertex=SIGNATURE_PAIR_BYTES,
            )
            outer_span.set(completed=int(np.count_nonzero(newly)))

            # ---- Phase 3: remove edges that span SCCs ---------------------
            with tr.span("phase3-filter"):
                if use_reuse:
                    # next iteration re-initializes the still-unfinished
                    # vertices plus every endpoint of a removed edge (a
                    # dropped edge is the only event that can lower a
                    # vertex's next fixed point)
                    invalidated = active.copy()
                    if wl.num_edges:
                        phase3_filter(
                            wl, sigs, device, opts, tracer=tr,
                            invalidate=invalidated,
                        )
                elif wl.num_edges:
                    phase3_filter(wl, sigs, device, opts, tracer=tr)
        if not opts.remove_scc_edges and not active.any():
            # baseline termination: all signatures matched (Alg. 1 line 20)
            break

    assert not np.any(labels == NO_VERTEX), "every vertex must be labelled"
    status = Status.CLEAN
    report = None
    if injector is not None:
        if faults.bitflips:
            flipped = injector.flip_label_bits(labels, n)
            if flipped.size:
                # verification-guarded self-healing: find the vertex set
                # violating the max-propagation fixed-point invariant and
                # re-solve it as an induced subgraph (charged to `device`)
                with tr.span("self-heal", flipped=int(flipped.size)):
                    heal_labels(
                        graph, labels, device=device,
                        options=opts, backend=be,
                        injector=injector, tracer=tr,
                    )
        status = injector.status()
        report = injector.report
    return EclResult(
        labels=labels,
        num_sccs=count_sccs(labels),
        outer_iterations=outer,
        propagation_rounds=total_rounds,
        kernel_launches=device.counters.kernel_launches,
        edges_final=wl.num_edges,
        completed_per_iteration=completed_per_iteration,
        device=device,
        trace=tr.trace if tr.enabled else None,
        estimate=device.estimate(n, graph.num_edges),
        status=status,
        fault_report=report,
        decision_log=scheduler.decisions if scheduler is not None else None,
    )
