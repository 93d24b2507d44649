"""The control plane: :class:`SccService`.

A deterministic, simulated-time request layer over the repro data
plane.  Tenants submit :class:`~repro.serve.jobs.JobSpec`s against
named persistent graphs; the service

1. **admits** through per-tenant budget checks
   (:mod:`repro.serve.budget` — hard limits, structured
   ``BudgetExceeded`` rejections) and a bounded run queue
   (:mod:`repro.serve.queues` — explicit shed policy, never silent
   growth),
2. **short-circuits redundant work** between admission and dispatch:
   a generation-keyed :class:`~repro.serve.cache.SolveCache` completes
   repeat ``SOLVE``/``QUERY`` jobs from memoized labels at zero device
   cost, queued reads against the same ``(graph, generation)`` as an
   in-flight read **coalesce** onto that leader and complete from its
   single result, and consecutive small ``UPDATE`` batches against one
   graph **merge** into a single incremental
   :meth:`~repro.dynamic.DynamicGraph.apply` (the one execution's
   charges split evenly across the coalition — the share rule in
   ``docs/serve.md`` §6),
3. **schedules** across a WIP-limited pool of
   :class:`~repro.device.VirtualDevice` workers
   (:mod:`repro.serve.workers`), serializing update/query jobs per
   graph handle,
4. **survives failure**: per-job deadlines, FaultPlan-injected worker
   crashes and completion delays, bounded retry with the
   :func:`repro.faults.backoff_seconds` exponential backoff (plan-
   seeded jitter de-synchronizes concurrent retries), a dead-letter
   lane for jobs that exhaust retries or blow their deadline, and
   per-workload circuit breakers (:mod:`repro.serve.breaker`) that
   fast-fail doomed workloads instead of letting their retries starve
   healthy tenants.

**Simulated time.** There is no wall clock anywhere: the service is a
discrete-event loop over a heap of ``(time, seq, event)`` entries, and
every random decision (crash, delay, backoff jitter) is drawn from one
plan-seeded generator — the same plan and the same submissions replay
the same schedule, decision for decision.  Job execution is host-side
*at dispatch*: the data-plane call runs immediately (so its labels and
counters are exact), its modelled cost becomes the service interval,
and the completion event fires after that interval on the simulated
clock.

**Crash safety.** A crashed ``UPDATE`` attempt must not leave partial
state: the handle is checkpointed before the attempt and rolled back
(:meth:`~repro.dynamic.DynamicGraph.restore`) on a crash, so a retry
recomputes from exactly the pre-attempt graph, and committed
generations advance once per *successful* attempt.  Crashed attempts
still charge their tenant for the wasted work.

**One write per decision.** :meth:`SccService._decide` is the only
place a job decision is written: it appends the decision to the job's
history (:meth:`~repro.serve.jobs.Job.artifact`) and bumps the
:class:`~repro.serve.metrics.ServiceMetrics` counters that
:data:`~repro.serve.metrics.DECISION_COUNTERS` maps it to, so the
counters are a fold of the histories by construction
(``docs/observability.md`` §9).  See ``docs/serve.md``.

**Change log.** The state changes an observer cannot poll in O(1) also
append one ``(kind, key)`` entry to the append-only
:attr:`SccService.log`: a job reaching its terminal state, a breaker's
creation or transition, and a tenant's charge or budget.  An observer
keeps its own cursor into the log and reads only what was appended
since its last call (``docs/observability.md`` §10.1).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.options import EclOptions
from ..device.spec import A100, DeviceSpec
from ..dynamic.graph import DynamicGraph
from ..errors import GraphFormatError
from ..faults.plan import FaultPlan
from ..faults.recovery import backoff_seconds
from ..graph.csr import CSRGraph
from ..profile.report import profile_run
from ..results import AlgoResult
from ..trace import Tracer
from .breaker import CircuitBreaker
from .budget import Budget, BudgetLedger
from .cache import DEFAULT_CACHE_BYTES, CacheEntry, SolveCache
from .jobs import Job, JobKind, JobSpec, JobState
from .metrics import DECISION_COUNTERS, ServiceMetrics
from .queues import BoundedQueue, ShedPolicy
from .workers import WorkerPool

__all__ = ["SccService", "ServiceReport"]

#: fallback breaker cooldown when the plan gives no backoff basis.
_DEFAULT_COOLDOWN_S = 0.002


def _edge_pairs(batch) -> "set[tuple[int, int]]":
    """The ``(src, dst)`` pair set of one update batch (empty for None)."""
    if batch is None:
        return set()
    src, dst = batch
    return {(int(s), int(d)) for s, d in zip(src, dst)}


def _merge_batches(batches) -> "tuple[list, list] | None":
    """Concatenate ``(src, dst)`` batches in order; None if all are None.

    The merged-update fast path: constituent batches become one
    combined batch per phase, so a merged ``apply`` runs exactly one
    delete pass and one insert pass.
    """
    src: "list" = []
    dst: "list" = []
    any_batch = False
    for batch in batches:
        if batch is None:
            continue
        any_batch = True
        s, d = batch
        src.extend(s)
        dst.extend(d)
    return (src, dst) if any_batch else None


@dataclass
class ServiceReport:
    """Everything one service run decided and measured."""

    jobs: "list[Job]"
    metrics: ServiceMetrics
    makespan_s: float
    breakers: "list[dict]" = field(default_factory=list)
    workers: "dict | None" = None
    budgets: "dict | None" = None
    queue_peak_depth: int = 0
    #: :meth:`SolveCache.as_dict` snapshot (None when caching is off)
    cache: "dict | None" = None

    def by_state(self) -> "dict[str, int]":
        counts: "dict[str, int]" = {}
        for job in self.jobs:
            counts[str(job.state)] = counts.get(str(job.state), 0) + 1
        return counts

    def done_latencies(self) -> "list[float]":
        return sorted(
            job.latency_s for job in self.jobs
            if job.state is JobState.DONE
        )

    def artifacts(self) -> "list[dict]":
        """The replayable per-job records, in submission order."""
        return [job.artifact() for job in self.jobs]

    def to_dict(self) -> "dict[str, Any]":
        return {
            "makespan_s": self.makespan_s,
            "by_state": self.by_state(),
            "metrics": self.metrics.as_dict(),
            "queue_peak_depth": self.queue_peak_depth,
            "breakers": list(self.breakers),
            "workers": self.workers,
            "budgets": self.budgets,
            "cache": self.cache,
            "jobs": self.artifacts(),
        }


class SccService:
    """Multi-tenant SCC-as-a-service over named persistent graphs."""

    def __init__(
        self,
        *,
        workers: int = 2,
        wip_limit: "int | None" = None,
        queue_capacity: int = 16,
        shed_policy: ShedPolicy = ShedPolicy.REJECT_NEW,
        device: "DeviceSpec | None" = None,
        engine: "str | None" = None,
        backend: "str | None" = None,
        options: "EclOptions | None" = None,
        faults: "FaultPlan | None" = None,
        breakers_enabled: bool = True,
        breaker_threshold: int = 3,
        cache_enabled: bool = True,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        coalesce_enabled: bool = True,
        merge_updates: int = 4,
        observer: Any = None,
        seed: int = 0,
    ) -> None:
        self.spec = device or A100
        self.engine = engine
        self.backend = backend
        self.options = options
        self.plan = faults
        # one service RNG drives every stochastic decision (crashes,
        # delays, backoff jitter); plan-seeded so chaos runs replay
        self._rng = faults.rng() if faults is not None else np.random.default_rng(seed)
        self.pool = WorkerPool(workers, spec=self.spec, wip_limit=wip_limit)
        self.queue = BoundedQueue(queue_capacity, policy=shed_policy)
        self.ledger = BudgetLedger()
        self.breakers_enabled = bool(breakers_enabled)
        if breaker_threshold < 1:
            raise ValueError(f"breaker_threshold must be >= 1, got {breaker_threshold}")
        self.breaker_threshold = int(breaker_threshold)
        # the worst-case retry wait of one job, so an open breaker
        # outlives the retries that opened it
        self.breaker_cooldown_s = float(
            backoff_seconds(faults, faults.max_retries)
            if faults is not None else _DEFAULT_COOLDOWN_S
        )
        self.cache = SolveCache(max_bytes=cache_bytes) if cache_enabled else None
        self.coalesce_enabled = bool(coalesce_enabled)
        if merge_updates < 1:
            raise ValueError(f"merge_updates must be >= 1, got {merge_updates}")
        self.merge_updates = int(merge_updates)
        #: append-only change log, one ``(kind, key)`` entry per change:
        #: ``("terminal", job)``, ``("breaker", workload)`` and
        #: ``("budget", tenant)``
        self.log: "list[tuple[str, Any]]" = []
        self.metrics = ServiceMetrics()
        #: duck-typed observability hook (e.g. ``repro.obs.ObsRecorder``):
        #: any object with ``on_event(service)`` — called after every
        #: simulated event the run loop processes, with :attr:`log`
        #: holding what changed.  Kept duck-typed so this package never
        #: imports ``repro.obs``.
        self.observer = observer
        self._graphs: "dict[str, DynamicGraph]" = {}
        self._breakers: "dict[str, CircuitBreaker]" = {}
        self._busy_graphs: "set[str]" = set()
        #: leader job id -> coalesced followers completing from its result
        self._followers: "dict[int, list[Job]]" = {}
        #: graph name -> (in-flight read leader, generation it
        #: observed, simulated time its completion event fires)
        self._inflight_reads: "dict[str, tuple[Job, int, float]]" = {}
        self._shed_wait_s = 0.0
        self.jobs: "list[Job]" = []
        self.now = 0.0
        self._heap: "list[tuple[float, int, str, Any]]" = []
        self._seq = 0
        self._job_seq = 0
        self._ran = False

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def register_graph(
        self,
        name: str,
        graph: CSRGraph,
        *,
        labels: "np.ndarray | None" = None,
    ) -> DynamicGraph:
        """Create the named persistent :class:`DynamicGraph` handle.

        Registration's cold solve is service-owned (charged to the
        handle's device, not to any tenant).
        """
        if name in self._graphs:
            raise GraphFormatError(f"graph {name!r} is already registered")
        handle = DynamicGraph(
            graph,
            options=self.options,
            engine=self.engine,
            backend=self.backend,
            device=self.spec,
            labels=labels,
        )
        self._graphs[name] = handle
        return handle

    def graph_handle(self, name: str) -> DynamicGraph:
        try:
            return self._graphs[name]
        except KeyError:
            raise GraphFormatError(
                f"unknown graph {name!r}; registered: {sorted(self._graphs)}"
            ) from None

    def set_budget(self, tenant: str, budget: Budget) -> None:
        self.ledger.set_budget(tenant, budget)
        self.log.append(("budget", tenant))

    def breaker_for(self, workload: str) -> CircuitBreaker:
        br = self._breakers.get(workload)
        if br is None:
            br = CircuitBreaker(
                workload,
                failure_threshold=self.breaker_threshold,
                cooldown_s=self.breaker_cooldown_s,
                log=self.log,
            )
            self._breakers[workload] = br
            self.log.append(("breaker", workload))
        return br

    # ------------------------------------------------------------------
    # submission + event loop
    # ------------------------------------------------------------------
    def _schedule(self, at: float, kind: str, payload: Any) -> None:
        heapq.heappush(self._heap, (float(at), self._seq, kind, payload))
        self._seq += 1

    def submit(self, spec: JobSpec, *, at: float = 0.0) -> Job:
        """Enqueue one job arrival at simulated time *at*."""
        if spec.graph not in self._graphs:
            raise GraphFormatError(
                f"unknown graph {spec.graph!r}; registered:"
                f" {sorted(self._graphs)}"
            )
        if at < 0:
            raise ValueError(f"arrival time must be >= 0, got {at}")
        job = Job(id=self._job_seq, spec=spec, submit_s=float(at))
        self._job_seq += 1
        self.jobs.append(job)
        self._schedule(at, "arrival", job)
        return job

    def run(self) -> ServiceReport:
        """Drain every event; returns when all jobs are terminal."""
        while self._heap:
            at, _, kind, payload = heapq.heappop(self._heap)
            self.now = max(self.now, at)
            if kind == "arrival":
                self._on_arrival(payload)
            elif kind == "retry":
                self._on_retry(payload)
            elif kind == "complete":
                self._on_complete(*payload)
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown event kind {kind!r}")
            if self.observer is not None:
                self.observer.on_event(self)
        self._ran = True
        self.metrics.gauge("queue_peak_depth", self.queue.peak_depth)
        self.metrics.gauge("makespan_s", self.now)
        self.metrics.gauge("shed_wait_s_total", self._shed_wait_s)
        if self.cache is not None:
            self.metrics.gauge("cache_bytes", self.cache.bytes)
            self.metrics.gauge("cache_entries", len(self.cache))
        return self.report()

    def report(self) -> ServiceReport:
        return ServiceReport(
            jobs=list(self.jobs),
            metrics=self.metrics,
            makespan_s=self.now,
            breakers=[b.as_dict() for b in self._breakers.values()],
            workers=self.pool.as_dict(),
            budgets=self.ledger.snapshot(),
            queue_peak_depth=self.queue.peak_depth,
            cache=self.cache.as_dict() if self.cache is not None else None,
        )

    # ------------------------------------------------------------------
    # decision recording
    # ------------------------------------------------------------------
    def _decide(self, job: Job, decision: str, **detail: Any) -> None:
        """The one write of a job decision: its history and its counters."""
        job.record(self.now, decision, **detail)
        reason = detail.get("reason")
        for name in DECISION_COUNTERS[decision if reason is None else (decision, reason)]:
            self.metrics.incr(name)

    def _finish(self, job: Job, state: JobState, reason: "str | None" = None) -> None:
        job.finish(self.now, state, reason)
        self.log.append(("terminal", job))

    def _complete(self, job: Job, **detail: Any) -> None:
        self._decide(job, "complete", **detail)
        self._finish(job, JobState.DONE)

    def _expired(self, job: Job, at: "float | None" = None) -> bool:
        """Whether *job*'s deadline has passed at *at* (default: now).

        ``>=``: a job exactly at its deadline is expired, the same
        boundary on every path (dispatch, attach, merge, retry).
        """
        deadline = job.deadline
        return deadline is not None and (self.now if at is None else at) >= deadline

    def _charge(self, tenant: str, *, model_seconds: float, bytes: float) -> None:
        self.ledger.charge(tenant, model_seconds=model_seconds, bytes=bytes)
        self.log.append(("budget", tenant))

    def _shed(self, job: Job, reason: str) -> None:
        # the victim's queue-wait rides its SHED record — shed work is
        # work the service made wait and then threw away
        waited_s = (
            max(self.now - job.queued_at, 0.0)
            if job.queued_at is not None else 0.0
        )
        self._shed_wait_s += waited_s
        self._decide(job, "shed", reason=reason, waited_s=waited_s)
        self._finish(job, JobState.SHED, reason)

    def _dead_letter(self, job: Job, reason: str) -> None:
        self._decide(job, "dead-letter", reason=reason)
        self._finish(job, JobState.DEAD_LETTER, reason)

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, job: Job) -> None:
        self._decide(job, "submit", tenant=job.spec.tenant,
                     kind=str(job.spec.kind), graph=job.spec.graph)
        self._admit(job)

    def _admit(self, job: Job) -> None:
        """Budget gate, then the bounded queue (breakers gate dispatch)."""
        exceeded = self.ledger.check(job.spec.tenant)
        if exceeded is not None:
            job.error = exceeded.as_dict()
            self._decide(job, "reject-budget", resource=exceeded.resource,
                         limit=exceeded.limit, spent=exceeded.spent)
            self._finish(job, JobState.REJECTED, "budget")
            return
        victim = self.queue.offer(
            job, now=self.now, busy_graphs=self._busy_graphs
        )
        if victim is not None:
            self._shed(victim, "backpressure")
            if victim is job:
                return
        job.state = JobState.QUEUED
        self._decide(job, "admit", depth=len(self.queue))
        self._dispatch()

    def _on_retry(self, job: Job) -> None:
        """A backoff wait elapsed: re-admit through the same gates."""
        self._decide(job, "retry", attempt=job.attempts)
        self._admit(job)

    def _dispatch(self) -> None:
        """Drain the queue: serve reads worker-free, then dispatch.

        Each pass first **sweeps** the queue for reads that need no
        worker — cache hits at the current generation and reads that
        coalesce onto an in-flight leader — then moves one eligible
        job onto an idle worker.  Dispatching a read leader makes new
        coalesce attaches possible, so the loop re-sweeps after every
        dispatch and exits only when neither path makes progress.
        """
        while True:
            self._sweep_reads()
            if not self.pool.has_capacity:
                return
            job = self.queue.pop_eligible(self._busy_graphs)
            if job is None:
                return
            if self._expired(job):
                self._dead_letter(job, "deadline")
                continue
            if self.breakers_enabled:
                breaker = self.breaker_for(job.spec.workload)
                if not breaker.allow(self.now):
                    self._shed(job, "breaker-open")
                    continue
            merge_followers: "list[Job]" = []
            if (
                self.coalesce_enabled
                and job.spec.kind is JobKind.UPDATE
                and self.merge_updates > 1
            ):
                merge_followers = self._collect_update_merge(job)
            worker = self.pool.acquire()
            assert worker is not None  # has_capacity guaranteed a slot
            self._execute(job, worker, merge_followers)

    # ------------------------------------------------------------------
    # the fast paths: cache hits, read coalescing, update merging
    # ------------------------------------------------------------------
    def _sweep_reads(self) -> int:
        """Complete queued reads that need no worker; returns the count.

        A queued ``SOLVE``/``QUERY`` is served worker-free when either
        (a) an in-flight read leader on the same graph observed the
        same generation — the job attaches to it and will complete
        from the leader's single result at the leader's completion
        time — or (b) the solve cache holds an entry for
        ``(graph, generation, engine, backend)`` — the job completes
        immediately at zero device cost.  ``QUERY`` jobs keep their
        per-graph serialization: a graph made busy by an *update*
        blocks its queries here exactly as it does at dispatch (the
        generation check makes leader-attach safe: a busy read leader
        matches, a busy update never does).
        """
        if self.cache is None and not self.coalesce_enabled:
            return 0
        # per-graph program order: a QUERY never overtakes an UPDATE
        # queued ahead of it on the same graph (SOLVE reads committed
        # snapshots and may overtake, exactly as at dispatch)
        update_blocked: "set[str]" = set()

        def fastpath(job: Job) -> bool:
            kind, graph = job.spec.kind, job.spec.graph
            if kind is JobKind.UPDATE:
                update_blocked.add(graph)
                return False
            if kind is JobKind.QUERY and graph in update_blocked:
                return False
            generation = self._graphs[graph].generation
            if self.coalesce_enabled:
                inflight = self._inflight_reads.get(graph)
                if inflight is not None and inflight[1] == generation:
                    leader, _, leader_done_at = inflight
                    if not self._expired(job, at=leader_done_at):
                        job._fastpath = ("attach", leader)
                        return True
                    # the leader completes at or past this job's
                    # deadline: attaching would knowingly serve a dead
                    # result — stay queued; the dispatch deadline
                    # check rules on it (and the cache below may still
                    # serve it instantly)
            if kind is JobKind.QUERY and graph in self._busy_graphs:
                return False  # an in-flight update: queries stay ordered
            if self.cache is not None:
                # probe only: _serve_cache_hit counts the hit if the job is served
                key = self.cache.key(graph, generation, self.engine, self.backend)
                if key in self.cache:
                    job._fastpath = ("cache", key)
                    return True
            return False

        served = 0
        for job in self.queue.extract(fastpath):
            if self._expired(job):
                self._dead_letter(job, "deadline")
                continue
            plan, leader_or_key = job._fastpath  # set by the predicate
            del job._fastpath
            if plan == "attach":
                self._attach_follower(leader_or_key, job)
            else:
                self._serve_cache_hit(job, leader_or_key)
            served += 1
        return served

    def _serve_cache_hit(self, job: Job, key: tuple) -> None:
        """Complete *job* from the cache: zero device cost, no worker."""
        entry = self.cache.get(key)
        self._decide(job, "cache_hit", graph=job.spec.graph,
                     generation=entry.generation)
        job.attempts_detail.append({
            "cache_hit": True,
            "t_complete": self.now,
            "generation": entry.generation,
            "service_s": 0.0,
        })
        job.result = AlgoResult(
            labels=entry.labels.copy(), num_sccs=entry.num_sccs
        )
        self._complete(job, attempt=job.attempts, service_s=0.0)

    def _attach_follower(self, leader: Job, job: Job) -> None:
        """Coalesce *job* onto the in-flight read *leader*."""
        self._decide(job, "coalesce_attach", leader=leader.id)
        job.state = JobState.RUNNING
        self._followers[leader.id].append(job)

    def _collect_update_merge(self, leader: Job) -> "list[Job]":
        """Pull queued updates that merge into *leader*'s single apply.

        Merge partners are taken in queue order, same graph only, and
        the scan **stops at the first same-graph job that cannot
        merge** (a query, a solve, an over-cap update, or one whose
        deletions overlap the batch's pending insertions) so per-graph
        ordering is never reordered around an incompatible job.  The
        overlap rule keeps merged semantics exact: ``apply`` deletes
        before it inserts, so a constituent may not delete an edge an
        earlier constituent inserts.
        """
        graph = leader.spec.graph
        pending_inserts = _edge_pairs(leader.spec.insert_edges)
        taken = [leader]
        stopped = False

        def mergeable(job: Job) -> bool:
            nonlocal stopped
            if stopped or job.spec.graph != graph:
                return False
            if job.spec.kind is not JobKind.UPDATE or len(taken) >= self.merge_updates:
                stopped = True
                return False
            if self._expired(job):
                # already expired: never commit its batch — it stays
                # queued and dead-letters at its own dispatch
                return False
            deletes = _edge_pairs(job.spec.delete_edges)
            if deletes & pending_inserts:
                stopped = True
                return False
            pending_inserts.update(_edge_pairs(job.spec.insert_edges))
            taken.append(job)
            return True

        followers = self.queue.extract(mergeable)
        for i, job in enumerate(followers, start=1):
            self._decide(job, "coalesce_merge", leader=leader.id,
                         merge_index=i)
            job.state = JobState.RUNNING
        return followers

    # ------------------------------------------------------------------
    # execution (host-side at dispatch; completion on the simulated clock)
    # ------------------------------------------------------------------
    def _execute(
        self, job: Job, worker, merge_followers: "list[Job] | None" = None
    ) -> None:
        job.state = JobState.RUNNING
        job.attempts += 1
        self._decide(job, "dispatch", worker=worker.id, attempt=job.attempts)
        kind = job.spec.kind
        merge_followers = merge_followers or []
        self._followers[job.id] = merge_followers
        if kind in (JobKind.UPDATE, JobKind.QUERY):
            self._busy_graphs.add(job.spec.graph)
        try:
            payload, service_s, charges = self._run_attempt(job, merge_followers)
        except Exception:
            self._busy_graphs.discard(job.spec.graph)
            self._followers.pop(job.id, None)
            self.pool.release(worker)
            raise
        # seeded fault draws: a crash truncates the attempt mid-service
        # (partial work still charged); a delay stretches the completion
        crashed = False
        delay_s = 0.0
        if self.plan is not None and self.plan.worker_crash_rate > 0:
            if float(self._rng.random()) < self.plan.worker_crash_rate:
                crashed = True
                frac = 0.1 + 0.8 * float(self._rng.random())
                service_s *= frac
                charges = {k: v * frac for k, v in charges.items()}
        if (
            not crashed
            and self.plan is not None
            and self.plan.message_delay_rate > 0
        ):
            if float(self._rng.random()) < self.plan.message_delay_rate:
                delay_s = service_s * (0.5 + 1.5 * float(self._rng.random()))
                self.metrics.incr("delayed")
        if crashed and kind is JobKind.UPDATE:
            # roll the handle back: a crashed update commits nothing —
            # merged constituents included, the checkpoint predates the
            # whole merged apply
            handle, ckpt = payload["handle"], payload["checkpoint"]
            handle.restore(ckpt)
            payload = None
        done_at = self.now + service_s + delay_s
        if not crashed:
            if kind in (JobKind.SOLVE, JobKind.QUERY) and self.coalesce_enabled:
                # later-queued reads at this generation may attach
                # until the completion event fires at done_at (the
                # sweep rejects attaches whose deadline lands earlier)
                self._inflight_reads[job.spec.graph] = (
                    job, payload["generation"], done_at
                )
            elif kind is JobKind.UPDATE and self.cache is not None:
                # the commit happened host-side just now: entries from
                # older generations never survive the advance
                handle = self._graphs[job.spec.graph]
                dropped = self.cache.invalidate(
                    job.spec.graph, handle.generation
                )
                if dropped:
                    self.metrics.incr("cache_invalidations", dropped)
        detail = {
            "attempt": job.attempts,
            "t_dispatch": self.now,
            "worker": worker.id,
            "service_s": service_s,
            "delay_s": delay_s,
            "crashed": crashed,
            "charges": dict(charges),
        }
        # only updates collect merge followers
        if merge_followers:
            detail["merged"] = len(merge_followers)
        if payload:
            detail["generation"] = payload["generation"]
            if merge_followers:
                detail["merge_index"] = 0
        job.attempts_detail.append(detail)
        self._schedule(
            done_at, "complete",
            (job, worker, payload, charges, crashed, self.now),
        )

    def _run_attempt(self, job: Job, merge_followers: "list[Job]"):
        """Execute the data-plane call; returns (payload, seconds, charges).

        *merge_followers* are the coalesced update constituents riding
        *job*'s single :meth:`~repro.dynamic.DynamicGraph.apply` (empty
        for reads and unmerged updates).
        """
        kind = job.spec.kind
        handle = self._graphs[job.spec.graph]
        if kind is not JobKind.UPDATE and self.cache is not None:
            # the dispatch sweep already proved there is no usable
            # entry: one miss per actual read execution, not per probe
            self.cache.count_miss()
            self.metrics.incr("cache_misses")
        if kind is JobKind.SOLVE:
            from ..bench.runners import run_algorithm

            tracer = Tracer()
            snapshot = handle.graph()
            result = run_algorithm(
                snapshot, "ecl-scc", device=self.spec,
                options=self.options, backend=self.backend,
                engine=self.engine, tracer=tracer,
            )
            service_s = float(result.model_seconds)
            counters = result.counters
            charges = {
                "model_seconds": service_s,
                "bytes": float(
                    counters.get("bytes_moved", 0)
                    + counters.get("bytes_streamed", 0)
                ),
            }
            payload = {
                "result": result,
                "generation": handle.generation,
                "profile": profile_run(result).to_dict(),
            }
            return payload, service_s, charges

        seconds_before = handle.model_seconds()
        bytes_before = (
            handle.device.counters.bytes_moved
            + handle.device.counters.bytes_streamed
        )
        if kind is JobKind.UPDATE:
            ckpt = handle.checkpoint()
            specs = [job.spec] + [f.spec for f in merge_followers]
            reports = handle.apply(
                deletions=_merge_batches(s.delete_edges for s in specs),
                insertions=_merge_batches(s.insert_edges for s in specs),
            )
            payload = {
                "reports": reports,
                "handle": handle,
                "checkpoint": ckpt,
                "generation": handle.generation,
            }
        else:  # QUERY
            result = handle.query()
            payload = {"result": result, "generation": handle.generation}
        service_s = max(handle.model_seconds() - seconds_before, 0.0)
        bytes_delta = (
            handle.device.counters.bytes_moved
            + handle.device.counters.bytes_streamed
            - bytes_before
        )
        charges = {
            "model_seconds": service_s,
            "bytes": float(max(bytes_delta, 0)),
        }
        return payload, service_s, charges

    def _on_complete(
        self, job: Job, worker, payload, charges, crashed: bool,
        dispatched_at: float,
    ) -> None:
        self.pool.release(worker, busy_s=self.now - dispatched_at)
        self._busy_graphs.discard(job.spec.graph)
        followers = self._followers.pop(job.id, [])
        if self._inflight_reads.get(job.spec.graph, (None,))[0] is job:
            # identity-guarded: a newer read leader at an advanced
            # generation may already have overwritten the slot
            del self._inflight_reads[job.spec.graph]
        kind = job.spec.kind
        breaker = (
            self.breaker_for(job.spec.workload)
            if self.breakers_enabled else None
        )
        if not crashed:
            # the share rule (docs/serve.md §6): the one execution's
            # charges split evenly across the coalition; a lone job is
            # charged whole
            share = 1.0 / (1 + len(followers))
            for member in (job, *followers):
                self._charge(
                    member.spec.tenant,
                    model_seconds=charges["model_seconds"] * share,
                    bytes=charges["bytes"] * share,
                )
            worker.jobs_done += 1
            if breaker is not None:
                transition = breaker.record_success(self.now)
                if transition:
                    self.metrics.incr(transition)
            if kind is JobKind.UPDATE:
                job.result = payload["reports"]
            else:
                job.result = payload["result"]
            self._complete(job, attempt=job.attempts,
                           service_s=charges["model_seconds"],
                           **({"coalesced": len(followers)} if followers else {}))
            for i, follower in enumerate(followers, start=1):
                self._complete_follower(job, follower, payload, charges,
                                        share, i)
            if self.cache is not None and kind is not JobKind.UPDATE:
                self._cache_put(job, payload)
            self._dispatch()
            return
        # crashed attempt: the leader's tenant owns the whole
        # partial-work charge; followers ride back to the queue head
        # for free (nothing of theirs executed — the rollback restored
        # the pre-attempt graph)
        self._charge(
            job.spec.tenant,
            model_seconds=charges["model_seconds"],
            bytes=charges["bytes"],
        )
        if followers:
            for follower in followers:
                follower.state = JobState.QUEUED
                self._decide(follower, "coalesce_requeue", leader=job.id)
            self.queue.requeue(followers)
        worker.crashes += 1
        self._decide(job, "crash", attempt=job.attempts, worker=worker.id)
        if breaker is not None:
            transition = breaker.record_failure(self.now)
            if transition:
                self.metrics.incr(transition)
        retries_so_far = job.attempts - 1
        max_retries = self.plan.max_retries if self.plan is not None else 0
        if retries_so_far >= max_retries:
            self._dead_letter(job, "retries-exhausted")
            self._dispatch()
            return
        wait_s = backoff_seconds(self.plan, retries_so_far, rng=self._rng)
        retry_at = self.now + wait_s
        if self._expired(job, at=retry_at):
            self._dead_letter(job, "deadline")
            self._dispatch()
            return
        job.state = JobState.RETRY_WAIT
        self._decide(job, "retry-scheduled", attempt=job.attempts,
                     wait_s=wait_s)
        self._schedule(retry_at, "retry", job)
        self._dispatch()

    def _complete_follower(
        self, leader: Job, job: Job, payload, charges, share: float,
        index: int,
    ) -> None:
        """Finish one coalesced follower from its leader's single result."""
        detail = {
            "coalesced_with": leader.id,
            "t_complete": self.now,
            "generation": payload["generation"],
            "service_s": 0.0,
            "charges": {k: v * share for k, v in charges.items()},
        }
        if job.spec.kind is JobKind.UPDATE:
            detail["merge_index"] = index
            job.result = list(payload["reports"])
        else:
            result = payload["result"]
            job.result = AlgoResult(
                labels=result.labels.copy(), num_sccs=result.num_sccs
            )
        job.attempts_detail.append(detail)
        self._complete(job, leader=leader.id, service_s=0.0)

    def _cache_put(self, job: Job, payload) -> None:
        """Memoize a completed read (skipped if the generation moved on)."""
        graph = job.spec.graph
        generation = payload["generation"]
        if self._graphs[graph].generation != generation:
            # a concurrent update committed mid-flight (SOLVE reads a
            # snapshot, so this can happen): nothing current to cache
            self.cache.stats.stale_puts += 1
            return
        result = payload["result"]
        entry = CacheEntry(
            labels=result.labels.copy(),
            num_sccs=int(result.num_sccs),
            generation=generation,
            profile=payload.get("profile"),
        )
        evicted = self.cache.put(
            self.cache.key(graph, generation, self.engine, self.backend),
            entry,
        )
        if evicted:
            self.metrics.incr("cache_evictions", len(evicted))
