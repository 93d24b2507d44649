"""The ``repro serve`` load generator and chaos harness.

**Workload.**  A seeded Zipf world: ``num_graphs`` named graphs whose
popularity follows ``1/i^zipf_s`` (graph 0 is hot, the tail is cold),
a solve/update/query job mix, and **open-loop** arrivals — exponential
inter-arrival times in simulated seconds whose rate is calibrated from
the cold-solve cost of the hot graph to a target utilization, so
``utilization > 1`` genuinely overloads the service (arrivals do not
slow down when the service backs up; that is what makes backpressure
and shedding observable).  Everything is drawn from one
``numpy`` generator seeded by ``seed``: the same config produces the
same workload, byte for byte.

**Update safety.**  Deletion batches draw from *disjoint slices of the
initial edge set* (insertions only ever add), so every committed
deletion is valid both live and in replay, regardless of which update
jobs crash, shed, or dead-letter.

**Verification (chaos mode).**  :func:`verify_report` replays the
committed updates (DONE update jobs, in generation order; coalesced
constituents regrouped into their one merged apply) against a fresh
handle and checks, at every generation a DONE solve/query job
observed — whether it executed cold, hit the solve cache, or coalesced
onto a leader — that the job's labels are **bit-identical** to an
unserved ``repro.solve`` of the reconstructed snapshot — the service
adds scheduling, not semantics.  It also checks the terminal-state
invariant: every submitted job ends in exactly one of
done / rejected / shed / dead-letter.

**The breaker win.**  :func:`breaker_comparison` runs the same crash
workload with breakers enabled and disabled; with them disabled,
doomed workloads occupy workers through their full retry ladders, the
queue backs up, and both p99 latency and the backpressure shed rate
measurably degrade — the CI gate (:mod:`repro.bench.gates`) requires
this to stay true.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from ..faults.plan import FaultPlan
from ..graph.generators import random_gnm
from ..bench.runners import run_algorithm
from .budget import Budget
from .cache import DEFAULT_CACHE_BYTES
from .jobs import JobKind, JobSpec, JobState
from .queues import ShedPolicy
from .service import SccService, ServiceReport, _merge_batches

__all__ = [
    "ServeBenchConfig",
    "run_serve_bench",
    "verify_report",
    "breaker_comparison",
]


@dataclass(frozen=True)
class ServeBenchConfig:
    """One serve-bench scenario (fully determined by its fields)."""

    scenario: str = "zipf-clean"
    num_graphs: int = 4
    graph_vertices: int = 160
    graph_edges: int = 640
    num_jobs: int = 60
    zipf_s: float = 1.1
    #: (solve, update, query) job mix, summing to 1
    mix: "tuple[float, float, float]" = (0.4, 0.3, 0.3)
    #: open-loop arrival rate as a multiple of modelled service capacity
    utilization: float = 1.5
    update_batch: int = 4
    tenants: int = 3
    #: model-seconds budget for tenant-0 (None = unlimited); exercises
    #: the rejection path deterministically
    tenant0_budget_s: "float | None" = None
    workers: int = 2
    wip_limit: "int | None" = None
    queue_capacity: int = 8
    shed_policy: ShedPolicy = ShedPolicy.REJECT_NEW
    #: per-job deadline as a multiple of the calibrated mean service
    #: time (None = no deadline)
    deadline_factor: "float | None" = None
    breakers_enabled: bool = True
    breaker_threshold: int = 3
    #: the PR9 short-circuit layer (docs/serve.md §6); both default on,
    #: and the bench emits a cache-off twin row so the win is gated
    cache_enabled: bool = True
    cache_bytes: int = DEFAULT_CACHE_BYTES
    coalesce_enabled: bool = True
    merge_updates: int = 4
    plan: "FaultPlan | None" = None
    engine: "str | None" = None
    backend: "str | None" = None
    seed: int = 0


def _build_graphs(cfg: ServeBenchConfig) -> "dict[str, Any]":
    return {
        f"g{i}": random_gnm(
            cfg.graph_vertices, cfg.graph_edges, seed=cfg.seed + i
        )
        for i in range(cfg.num_graphs)
    }


def _zipf_weights(k: int, s: float) -> np.ndarray:
    w = 1.0 / np.arange(1, k + 1, dtype=np.float64) ** s
    return w / w.sum()


def build_workload(
    cfg: ServeBenchConfig, *, mean_service_s: float
) -> "list[tuple[float, JobSpec]]":
    """The seeded open-loop job stream: ``[(arrival_s, spec), ...]``."""
    rng = np.random.default_rng(cfg.seed)
    weights = _zipf_weights(cfg.num_graphs, cfg.zipf_s)
    mix = np.asarray(cfg.mix, dtype=np.float64)
    if mix.size != 3 or mix.min() < 0 or not np.isclose(mix.sum(), 1.0):
        raise ValueError(f"mix must be 3 non-negative fractions summing to 1, got {cfg.mix}")
    rate = cfg.utilization * cfg.workers / mean_service_s
    deadline_s = (
        None if cfg.deadline_factor is None
        else cfg.deadline_factor * mean_service_s
    )
    # disjoint per-graph deletion cursors into the initial edge sets:
    # a committed deletion is always of a resident edge (see module doc)
    delete_cursor = {i: 0 for i in range(cfg.num_graphs)}
    kinds = (JobKind.SOLVE, JobKind.UPDATE, JobKind.QUERY)
    jobs: "list[tuple[float, JobSpec]]" = []
    now = 0.0
    for _ in range(cfg.num_jobs):
        now += float(rng.exponential(1.0 / rate))
        gi = int(rng.choice(cfg.num_graphs, p=weights))
        kind = kinds[int(rng.choice(3, p=mix))]
        tenant = f"tenant-{int(rng.integers(cfg.tenants))}"
        insert_edges = delete_edges = None
        if kind is JobKind.UPDATE:
            n = cfg.graph_vertices
            ins_src = rng.integers(0, n, size=cfg.update_batch)
            ins_dst = rng.integers(0, n, size=cfg.update_batch)
            insert_edges = (ins_src.tolist(), ins_dst.tolist())
            start = delete_cursor[gi]
            stop = start + max(cfg.update_batch // 2, 1)
            if stop <= cfg.graph_edges:
                delete_cursor[gi] = stop
                delete_edges = ("initial", start, stop)
        jobs.append((
            now,
            JobSpec(
                tenant=tenant, kind=kind, graph=f"g{gi}",
                insert_edges=insert_edges, delete_edges=delete_edges,
                deadline_s=deadline_s,
            ),
        ))
    return jobs


def _resolve_deletions(spec: JobSpec, initial_edges) -> JobSpec:
    """Materialize an ``("initial", start, stop)`` deletion slice."""
    if spec.delete_edges is None or spec.delete_edges[0] != "initial":
        return spec
    _, start, stop = spec.delete_edges
    src, dst = initial_edges[spec.graph]
    return replace(
        spec,
        delete_edges=(src[start:stop].tolist(), dst[start:stop].tolist()),
    )


def run_serve_bench(
    cfg: ServeBenchConfig, *, verify: bool = False, obs: Any = None
) -> "dict[str, Any]":
    """Run one scenario end to end; returns the JSON-safe result row.

    With ``verify=True`` the row additionally carries the
    :func:`verify_report` outcome (terminal-state invariant + label
    bit-identity against unserved solves) and raises ``AssertionError``
    on any violation — chaos mode's contract.

    *obs* is an optional :class:`repro.obs.ObsRecorder`; one is created
    internally when omitted (the latency quantiles in the row come from
    its streaming histogram either way).  Pass your own to keep the
    time series, timelines, and the finished report for export.
    """
    if obs is None:
        from ..obs import ObsRecorder  # serve->obs is one-way; obs never imports serve

        obs = ObsRecorder()
    graphs = _build_graphs(cfg)
    initial_edges = {name: g.edges() for name, g in graphs.items()}
    # calibrate the arrival rate against the hot graph's cold-solve cost
    mean_service_s = float(
        run_algorithm(graphs["g0"], engine=cfg.engine, backend=cfg.backend).model_seconds
    )
    service = SccService(
        workers=cfg.workers,
        wip_limit=cfg.wip_limit,
        queue_capacity=cfg.queue_capacity,
        shed_policy=cfg.shed_policy,
        engine=cfg.engine,
        backend=cfg.backend,
        faults=cfg.plan,
        breakers_enabled=cfg.breakers_enabled,
        breaker_threshold=cfg.breaker_threshold,
        cache_enabled=cfg.cache_enabled,
        cache_bytes=cfg.cache_bytes,
        coalesce_enabled=cfg.coalesce_enabled,
        merge_updates=cfg.merge_updates,
        observer=obs,
        seed=cfg.seed,
    )
    for name, g in graphs.items():
        service.register_graph(name, g)
    if cfg.tenant0_budget_s is not None:
        service.set_budget("tenant-0", Budget(model_seconds=cfg.tenant0_budget_s))
    for at, spec in build_workload(cfg, mean_service_s=mean_service_s):
        service.submit(_resolve_deletions(spec, initial_edges), at=at)
    report = service.run()
    obs.finalize(report)

    by_state = report.by_state()
    submitted = len(report.jobs)
    done = by_state.get("done", 0)
    hist = obs.latency_hist
    quantiles = obs.quantiles_ms(0.5, 0.99, 0.999)
    m = report.metrics
    row: "dict[str, Any]" = {
        "algorithm": "serve-bench",
        "graph": cfg.scenario,
        "engine": cfg.engine,
        "backend": cfg.backend,
        "plan": cfg.plan.to_dict() if cfg.plan is not None else None,
        "breakers_enabled": cfg.breakers_enabled,
        "workers": cfg.workers,
        "queue_capacity": cfg.queue_capacity,
        "utilization_target": cfg.utilization,
        "jobs": submitted,
        "by_state": by_state,
        "done": done,
        "makespan_s": report.makespan_s,
        "throughput_jps": (
            done / report.makespan_s if report.makespan_s > 0 else 0.0
        ),
        # bounded-error streaming-histogram quantiles (repro.obs); the
        # sketch guarantees each is within one log-bucket width of the
        # nearest-rank sorted-list value
        "p50_ms": quantiles["p50"],
        "p99_ms": quantiles["p99"],
        "p999_ms": quantiles["p999"],
        "quantile_error": hist.quantile_error,
        "shed_rate": m["shed_backpressure"] / submitted if submitted else 0.0,
        "breaker_shed_rate": m["shed_breaker"] / submitted if submitted else 0.0,
        "reject_rate": m["rejected_budget"] / submitted if submitted else 0.0,
        "dead_letter_rate": m["dead_letter"] / submitted if submitted else 0.0,
        "retries": m["retries"],
        "crashes": m["crashed"],
        "breaker_opened": m["breaker_opened"],
        "cache_enabled": cfg.cache_enabled,
        "coalesce_enabled": cfg.coalesce_enabled,
        "cache_hits": m["cache_hits"],
        "coalesced_reads": m["coalesced_reads"],
        "coalesced_updates": m["coalesced_updates"],
        "cache": report.cache,
        "worker_utilization": service.pool.utilization(report.makespan_s),
        "metrics": m.as_dict(),
    }
    if verify:
        outcome = verify_report(report, graphs, engine=cfg.engine,
                                backend=cfg.backend)
        row["verified"] = outcome
        if not outcome["ok"]:
            raise AssertionError(
                f"serve chaos verification failed: {outcome['failures']}"
            )
    return row


# ----------------------------------------------------------------------
# chaos verification
# ----------------------------------------------------------------------

def _final_detail(job) -> "dict | None":
    """The attempt detail of the job's committed execution, if any."""
    for detail in reversed(job.attempts_detail):
        if "generation" in detail:
            return detail
    return None


def _final_generation(job) -> int:
    detail = _final_detail(job)
    return int(detail["generation"]) if detail is not None else 0


def _merge_index(job) -> int:
    """Position inside a merged update's single apply (0 = the leader)."""
    detail = _final_detail(job)
    return int(detail.get("merge_index", 0)) if detail is not None else 0


def verify_report(
    report: ServiceReport,
    graphs: "dict[str, Any]",
    *,
    engine: "str | None" = None,
    backend: "str | None" = None,
) -> "dict[str, Any]":
    """Prove the service added scheduling, not semantics.

    Checks (returned under ``"failures"`` when violated):

    1. **terminal** — every job is in exactly one terminal state and
       carries a decision history ending in it;
    2. **retry bound** — no job exceeded ``plan.max_retries`` retries;
    3. **bit-identity** — replaying the committed updates, every DONE
       solve/query job's labels equal an unserved ``repro.solve`` of
       the snapshot at the generation the job observed.
    """
    from ..dynamic.graph import DynamicGraph

    failures: "list[str]" = []
    checked = 0
    for job in report.jobs:
        if not job.terminal:
            failures.append(f"job {job.id} not terminal: {job.state}")
        if not job.decisions or job.decisions[-1]["decision"] != str(job.state):
            failures.append(f"job {job.id} decision history does not end in"
                            f" its terminal state")
    jobs_by_graph: "dict[str, list]" = {name: [] for name in graphs}
    for job in report.jobs:
        if job.state is JobState.DONE:
            jobs_by_graph[job.spec.graph].append(job)
    for name, initial in graphs.items():
        done_jobs = jobs_by_graph[name]
        # coalesced update constituents committed through one merged
        # apply and share its final generation — replay groups them
        # back into that single apply, in merge order (two *distinct*
        # committed applies can never share a final generation, so the
        # grouping is unambiguous)
        update_groups: "dict[int, list]" = {}
        for j in done_jobs:
            if j.spec.kind is JobKind.UPDATE:
                update_groups.setdefault(_final_generation(j), []).append(j)
        updates = [
            sorted(update_groups[gen], key=_merge_index)
            for gen in sorted(update_groups)
        ]
        checks: "dict[int, list]" = {}
        for job in done_jobs:
            if job.spec.kind is JobKind.UPDATE:
                continue
            labels = np.asarray(job.result.labels)
            checks.setdefault(_final_generation(job), []).append((job, labels))

        replay = DynamicGraph(initial, engine=engine, backend=backend)

        def run_checks() -> None:
            nonlocal checked
            for job, labels in checks.pop(replay.generation, []):
                cold = np.asarray(
                    run_algorithm(replay.graph(), engine=engine, backend=backend).labels
                )
                if not np.array_equal(labels, cold):
                    failures.append(
                        f"job {job.id} ({job.spec.kind}) labels differ from"
                        f" unserved solve of {name} at generation"
                        f" {replay.generation}"
                    )
                checked += 1

        run_checks()
        for group in updates:
            specs = [j.spec for j in group]
            replay.apply(
                deletions=_merge_batches(s.delete_edges for s in specs),
                insertions=_merge_batches(s.insert_edges for s in specs),
            )
            expect = _final_generation(group[0])
            if replay.generation != expect:
                ids = [j.id for j in group]
                failures.append(
                    f"replay of {name} reached generation"
                    f" {replay.generation}, update job(s) {ids} committed at"
                    f" {expect}"
                )
            run_checks()
        for gen in sorted(checks):
            failures.append(
                f"{name}: {len(checks[gen])} DONE job(s) observed"
                f" generation {gen}, never reached in replay"
            )
    return {"ok": not failures, "checked": checked, "failures": failures}


# ----------------------------------------------------------------------
# the breaker win
# ----------------------------------------------------------------------

def breaker_comparison(cfg: ServeBenchConfig) -> "dict[str, Any]":
    """Same crash workload, breakers on vs off; measures the win.

    Returns both rows plus the degradation factors.
    ``breaker_win["ok"]`` is true when disabling breakers measurably
    degrades **both** p99 latency and the backpressure shed rate — the
    service's core resilience claim, gated in CI at the committed
    baseline's load.  The win is load-dependent: a queue that never
    fills sheds nothing either way.
    """
    if cfg.plan is None or not cfg.plan.has_serve_faults:
        raise ValueError("breaker_comparison needs a serve-fault plan")
    enabled = run_serve_bench(
        replace(cfg, breakers_enabled=True,
                scenario=cfg.scenario + "+breakers"),
    )
    disabled = run_serve_bench(
        replace(cfg, breakers_enabled=False,
                scenario=cfg.scenario + "-nobreakers"),
    )
    p99_on, p99_off = enabled["p99_ms"], disabled["p99_ms"]
    p99_ratio = (
        p99_off / p99_on if p99_on and p99_off else float("inf")
    )
    shed_delta = disabled["shed_rate"] - enabled["shed_rate"]
    win = {
        "p99_degradation": p99_ratio,
        "shed_rate_delta": shed_delta,
        "ok": p99_ratio > 1.0 and shed_delta > 0.0,
    }
    return {"enabled": enabled, "disabled": disabled, "breaker_win": win}
