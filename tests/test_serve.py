"""Tests for :mod:`repro.serve` — the SCC-as-a-service control plane.

The contract (docs/serve.md):

* every submitted job reaches **exactly one** terminal state — done,
  rejected, shed, or dead-letter — with its decision history attached;
* budgets are hard limits on starting work, backpressure sheds are
  explicit and counted, retries are bounded by the fault plan, and
  circuit breakers measurably protect tail latency under crash storms;
* the whole service runs in seeded simulated time: two runs of the
  same config are byte-identical, and every completed solve/query is
  bit-identical to an unserved ``repro.solve`` of the same graph
  generation — even under chaos plans.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import solve
from repro.errors import FaultPlanError, GraphFormatError
from repro.faults import preset_plan
from repro.graph import cycle_graph, scc_ladder
from repro.graph.generators import random_gnm
from repro.serve import (
    TERMINAL_STATES,
    BoundedQueue,
    BreakerState,
    Budget,
    BudgetLedger,
    CacheEntry,
    CircuitBreaker,
    Job,
    JobKind,
    JobSpec,
    JobState,
    SccService,
    ServeBenchConfig,
    ShedPolicy,
    SolveCache,
    WorkerPool,
    run_serve_bench,
    to_prometheus,
)
from repro.serve.bench import (
    _build_graphs,
    _resolve_deletions,
    breaker_comparison,
    build_workload,
    verify_report,
)


def _job(jid=0, kind=JobKind.SOLVE, graph="g0", tenant="t0"):
    return Job(id=jid, spec=JobSpec(tenant=tenant, kind=kind, graph=graph),
               submit_s=0.0)


# ---------------------------------------------------------------------------
# unit: budgets
# ---------------------------------------------------------------------------

class TestBudget:
    def test_default_is_unlimited(self):
        ledger = BudgetLedger()
        assert ledger.check("anyone") is None
        ledger.charge("anyone", model_seconds=1e9, bytes=1e15)
        assert ledger.check("anyone") is None

    def test_hard_limit_rejects_at_limit(self):
        ledger = BudgetLedger()
        ledger.set_budget("alice", Budget(model_seconds=1.0))
        assert ledger.check("alice") is None
        ledger.charge("alice", model_seconds=1.0, bytes=0.0)
        exceeded = ledger.check("alice")
        assert exceeded is not None
        assert exceeded.tenant == "alice"
        assert exceeded.resource == "model_seconds"
        assert exceeded.limit == 1.0 and exceeded.spent >= 1.0
        # the rejection payload is structured + JSON-safe
        assert json.dumps(exceeded.as_dict())

    def test_bytes_limit(self):
        ledger = BudgetLedger()
        ledger.set_budget("bob", Budget(bytes=100.0))
        ledger.charge("bob", model_seconds=0.0, bytes=100.0)
        assert ledger.check("bob").resource == "bytes"

    def test_charges_accumulate_per_tenant(self):
        ledger = BudgetLedger()
        ledger.charge("a", model_seconds=1.0, bytes=10.0)
        ledger.charge("a", model_seconds=2.0, bytes=5.0)
        ledger.charge("b", model_seconds=0.5, bytes=1.0)
        assert ledger.spent_of("a") == {"model_seconds": 3.0, "bytes": 15.0}
        assert ledger.snapshot()["b"]["model_seconds"] == 0.5

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            Budget(model_seconds=-1.0)


# ---------------------------------------------------------------------------
# unit: bounded queue + shed policy
# ---------------------------------------------------------------------------

class TestBoundedQueue:
    def test_reject_new_sheds_arrival(self):
        q = BoundedQueue(2, policy=ShedPolicy.REJECT_NEW)
        a, b, c = (_job(i) for i in range(3))
        assert q.offer(a) is None and q.offer(b) is None
        assert q.offer(c) is c          # the arrival is the victim
        assert list(q) == [a, b]

    def test_drop_oldest_sheds_head(self):
        q = BoundedQueue(2, policy=ShedPolicy.DROP_OLDEST)
        a, b, c = (_job(i) for i in range(3))
        q.offer(a), q.offer(b)
        assert q.offer(c) is a          # the head is the victim
        assert list(q) == [b, c]

    def test_per_graph_head_of_line_blocking(self):
        q = BoundedQueue(8)
        upd_g0 = _job(0, JobKind.UPDATE, "g0")
        qry_g0 = _job(1, JobKind.QUERY, "g0")
        upd_g1 = _job(2, JobKind.UPDATE, "g1")
        for j in (upd_g0, qry_g0, upd_g1):
            q.offer(j)
        # g0 busy: its update/query stay queued, g1's update overtakes
        assert q.pop_eligible({"g0"}) is upd_g1
        assert q.pop_eligible({"g0", "g1"}) is None
        assert q.pop_eligible(set()) is upd_g0

    def test_solve_is_always_eligible(self):
        q = BoundedQueue(4)
        s = _job(0, JobKind.SOLVE, "g0")
        q.offer(_job(1, JobKind.UPDATE, "g0"))
        q.offer(s)
        assert q.pop_eligible({"g0"}) is s

    def test_peak_depth_and_validation(self):
        q = BoundedQueue(4)
        for i in range(3):
            q.offer(_job(i))
        q.pop_eligible(set())
        assert q.peak_depth == 3
        with pytest.raises(ValueError):
            BoundedQueue(0)


# ---------------------------------------------------------------------------
# unit: circuit breaker
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def test_opens_at_threshold(self):
        br = CircuitBreaker("g0:solve", failure_threshold=3, cooldown_s=1.0)
        assert not br.record_failure(0.0) and not br.record_failure(0.1)
        assert br.state is BreakerState.CLOSED and br.allow(0.2)
        assert br.record_failure(0.2)          # third failure opens
        assert br.state is BreakerState.OPEN and br.opened == 1
        assert not br.allow(0.5)               # still cooling down

    def test_half_open_admits_one_probe(self):
        br = CircuitBreaker("w", failure_threshold=1, cooldown_s=1.0)
        br.record_failure(0.0)
        assert br.allow(1.5)                   # past cooldown -> probe
        assert br.state is BreakerState.HALF_OPEN
        assert not br.allow(1.6)               # only one probe at a time

    def test_probe_success_closes(self):
        br = CircuitBreaker("w", failure_threshold=1, cooldown_s=1.0)
        br.record_failure(0.0)
        assert br.allow(1.5)
        br.record_success(2.0)
        assert br.state is BreakerState.CLOSED
        assert br.closed_after_probe == 1
        assert br.allow(2.1)

    def test_probe_failure_reopens(self):
        br = CircuitBreaker("w", failure_threshold=1, cooldown_s=1.0)
        br.record_failure(0.0)
        assert br.allow(1.5)
        assert br.record_failure(2.0)
        assert br.state is BreakerState.OPEN and br.reopened == 1
        assert not br.allow(2.5)               # new cooldown from reopen

    def test_success_resets_failure_streak(self):
        br = CircuitBreaker("w", failure_threshold=3, cooldown_s=1.0)
        br.record_failure(0.0), br.record_failure(0.1)
        br.record_success(0.2)
        assert not br.record_failure(0.3)      # streak restarted
        assert br.state is BreakerState.CLOSED

    def test_as_dict_and_transitions(self):
        br = CircuitBreaker("w", failure_threshold=1, cooldown_s=1.0)
        br.record_failure(0.0)
        d = br.as_dict()
        assert d["workload"] == "w" and d["state"] == "open"
        assert br.transitions[0]["state"] == "open"
        assert json.dumps(d)


# ---------------------------------------------------------------------------
# unit: jobs + workers + metrics
# ---------------------------------------------------------------------------

class TestJobs:
    def test_exactly_one_terminal_transition(self):
        job = _job()
        job.finish(1.0, JobState.DONE)
        assert job.terminal and job.latency_s == 1.0
        with pytest.raises(RuntimeError):
            job.finish(2.0, JobState.SHED)

    def test_terminal_states_are_exactly_four(self):
        assert TERMINAL_STATES == {
            JobState.DONE, JobState.REJECTED, JobState.SHED,
            JobState.DEAD_LETTER,
        }
        assert not JobState.RUNNING.terminal

    def test_workload_key(self):
        assert _job(kind=JobKind.QUERY, graph="g3").spec.workload == "g3:query"

    def test_artifact_is_json_safe(self):
        job = _job()
        job.record(0.0, "admit")
        job.finish(0.5, JobState.SHED, reason="backpressure")
        art = job.artifact()
        assert art["state"] == "shed" and art["reason"] == "backpressure"
        assert json.dumps(art)


class TestWorkerPool:
    def test_acquire_is_deterministic_and_wip_limited(self):
        pool = WorkerPool(3, wip_limit=2)
        a, b = pool.acquire(), pool.acquire()
        assert (a.id, b.id) == (0, 1)
        assert pool.acquire() is None          # WIP limit, not pool size
        pool.release(a, busy_s=2.0)
        assert pool.acquire().id == 0          # lowest idle id again
        assert pool.utilization(10.0) == pytest.approx(2.0 / 30.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


def test_prometheus_exposition_format():
    svc = SccService(workers=1, queue_capacity=2)
    svc.register_graph("g0", cycle_graph(8))
    svc.submit(JobSpec("t0", JobKind.SOLVE, "g0"))
    svc.run()
    text = svc.to_prometheus()
    assert "# HELP repro_serve_submitted_total" in text
    assert "# TYPE repro_serve_submitted_total counter" in text
    assert "repro_serve_submitted_total 1" in text
    assert "repro_serve_completed_total 1" in text
    assert to_prometheus(svc.metrics) == text


def test_gauge_help_mirrors_counter_help():
    from repro.serve.metrics import (
        COUNTER_HELP,
        GAUGE_HELP,
        ServiceMetrics,
    )

    svc = SccService(workers=1, queue_capacity=2)
    svc.register_graph("g0", cycle_graph(8))
    svc.submit(JobSpec("t0", JobKind.SOLVE, "g0"))
    svc.run()
    text = svc.to_prometheus()
    # every emitted gauge has a curated HELP line, same contract as
    # counters — nothing falls through to the generic text
    for name, help_text in GAUGE_HELP.items():
        if f"repro_serve_{name} " in text:
            assert f"# HELP repro_serve_{name} {help_text}" in text
    assert "# HELP repro_serve_queue_peak_depth" in text
    assert "# TYPE repro_serve_queue_peak_depth gauge" in text
    assert not set(GAUGE_HELP) & set(COUNTER_HELP)

    # unknown names fall back to the generic line instead of dropping
    m = ServiceMetrics()
    m.gauge("bespoke_depth", 3.5)
    m.incr("bespoke_events")
    custom = to_prometheus(m)
    assert "# HELP repro_serve_bespoke_depth service gauge bespoke_depth" \
        in custom
    assert ("# HELP repro_serve_bespoke_events_total"
            " service counter bespoke_events") in custom


# ---------------------------------------------------------------------------
# end to end: the control plane
# ---------------------------------------------------------------------------

class TestServiceEndToEnd:
    def test_clean_run_all_done_and_bit_identical(self):
        g = scc_ladder(8)
        svc = SccService(workers=2, queue_capacity=8)
        svc.register_graph("main", g)
        for i in range(4):
            svc.submit(JobSpec(f"tenant-{i % 2}", JobKind.SOLVE, "main"),
                       at=0.001 * i)
        report = svc.run()
        assert report.by_state() == {"done": 4}
        expected = solve(g).labels
        for job in report.jobs:
            assert np.array_equal(job.result.labels, expected)
            assert job.decisions[-1]["decision"] == "done"
        # the first solve pays; the repeats ride the short-circuit layer
        # (cache hit or coalesced onto the in-flight leader) for free
        spent = svc.ledger.snapshot()
        assert spent["tenant-0"]["model_seconds"] > 0
        m = report.metrics
        assert m["dispatched"] < 4
        assert m["cache_hits"] + m["coalesced_reads"] == 4 - m["dispatched"]

    def test_budget_rejection_is_structured(self):
        svc = SccService(workers=1, queue_capacity=8)
        svc.register_graph("g0", cycle_graph(16))
        svc.set_budget("cheap", Budget(model_seconds=0.0))  # nothing starts
        job = svc.submit(JobSpec("cheap", JobKind.SOLVE, "g0"))
        rich = svc.submit(JobSpec("rich", JobKind.SOLVE, "g0"), at=0.001)
        report = svc.run()
        assert job.state is JobState.REJECTED
        assert job.error["resource"] == "model_seconds"
        assert rich.state is JobState.DONE
        assert report.metrics["rejected_budget"] == 1

    def test_backpressure_shed_is_explicit(self):
        # short-circuit layer off: identical solves would otherwise
        # coalesce onto one leader and the queue would never fill
        svc = SccService(workers=1, wip_limit=1, queue_capacity=1,
                         cache_enabled=False, coalesce_enabled=False)
        svc.register_graph("g0", cycle_graph(32))
        jobs = [
            svc.submit(JobSpec("t", JobKind.SOLVE, "g0")) for _ in range(6)
        ]
        report = svc.run()
        states = report.by_state()
        assert states["shed"] >= 1 and states["done"] >= 1
        assert states["shed"] == report.metrics["shed_backpressure"]
        for job in jobs:
            if job.state is JobState.SHED:
                assert job.reason == "backpressure"

    def test_deadline_dead_letters_before_burning_a_worker(self):
        svc = SccService(workers=1, queue_capacity=8)
        svc.register_graph("g0", cycle_graph(64))
        first = svc.submit(JobSpec("t", JobKind.SOLVE, "g0"))
        late = svc.submit(
            JobSpec("t", JobKind.SOLVE, "g0", deadline_s=1e-12)
        )
        svc.run()
        assert first.state is JobState.DONE
        assert late.state is JobState.DEAD_LETTER
        assert late.reason == "deadline"
        assert late.attempts == 0              # never dispatched

    def test_update_then_query_sees_new_generation(self):
        g = cycle_graph(10)
        svc = SccService(workers=1, queue_capacity=8)
        svc.register_graph("g0", g)
        # deleting one cycle edge splits the single SCC into 10
        upd = svc.submit(
            JobSpec("t", JobKind.UPDATE, "g0", delete_edges=([0], [1]))
        )
        qry = svc.submit(JobSpec("t", JobKind.QUERY, "g0"), at=1.0)
        svc.run()
        assert upd.state is JobState.DONE and qry.state is JobState.DONE
        assert len(np.unique(qry.result.labels)) == 10

    def test_crash_plan_retries_are_bounded(self):
        plan = preset_plan("serve-crash", seed=5)
        # short-circuit layer off: identical solves would coalesce
        # down to a couple of dispatches and starve the crash draws
        svc = SccService(workers=2, queue_capacity=16, faults=plan,
                         cache_enabled=False, coalesce_enabled=False)
        svc.register_graph("g0", scc_ladder(6))
        for i in range(10):
            svc.submit(JobSpec("t", JobKind.SOLVE, "g0"), at=0.0005 * i)
        report = svc.run()
        assert report.metrics["crashed"] > 0
        assert report.metrics["retries"] > 0
        for job in report.jobs:
            assert job.state in TERMINAL_STATES
            assert job.attempts <= plan.max_retries + 1
        # crashed attempts are still charged
        assert svc.ledger.spent_of("t")["model_seconds"] > 0

    def test_unknown_graph_rejected_at_submit(self):
        svc = SccService()
        with pytest.raises(GraphFormatError):
            svc.submit(JobSpec("t", JobKind.SOLVE, "nope"))
        svc.register_graph("g0", cycle_graph(4))
        with pytest.raises(GraphFormatError):
            svc.register_graph("g0", cycle_graph(4))


# ---------------------------------------------------------------------------
# bench + chaos harness
# ---------------------------------------------------------------------------

SMALL = ServeBenchConfig(
    scenario="test", num_graphs=2, graph_vertices=40, graph_edges=120,
    num_jobs=14, workers=2, queue_capacity=4, seed=0,
)


class TestBench:
    def test_clean_bench_row_shape(self):
        row = run_serve_bench(SMALL, verify=True)
        assert row["algorithm"] == "serve-bench" and row["graph"] == "test"
        assert row["jobs"] == 14
        assert sum(row["by_state"].values()) == 14
        assert row["throughput_jps"] > 0 and row["p99_ms"] >= row["p50_ms"]
        assert row["verified"]["ok"]
        assert json.dumps(row, default=str)

    def test_bench_is_deterministic(self):
        a = run_serve_bench(SMALL)
        b = run_serve_bench(SMALL)
        assert json.dumps(a, sort_keys=True, default=str) == \
            json.dumps(b, sort_keys=True, default=str)

    def test_chaos_crash_verifies(self):
        cfg = ServeBenchConfig(
            **{**SMALL.__dict__, "scenario": "crash",
               "plan": preset_plan("serve-crash", 0)}
        )
        row = run_serve_bench(cfg, verify=True)
        assert row["verified"]["ok"] and row["crashes"] > 0

    def test_chaos_delay_verifies(self):
        cfg = ServeBenchConfig(
            **{**SMALL.__dict__, "scenario": "delay",
               "plan": preset_plan("serve-delay", 0)}
        )
        row = run_serve_bench(cfg, verify=True)
        assert row["verified"]["ok"]

    def test_tenant_budget_exercises_rejection(self):
        cfg = ServeBenchConfig(
            **{**SMALL.__dict__, "scenario": "budget",
               "tenant0_budget_s": 0.0}
        )
        row = run_serve_bench(cfg, verify=True)
        assert row["reject_rate"] > 0 and row["verified"]["ok"]

    def test_breaker_win_under_crash_storm(self):
        # cache/coalescing off: the breaker win is measured on the
        # raw dispatch path (the short-circuit layer absorbs so much
        # load the nobreakers queue never backs up)
        cfg = ServeBenchConfig(
            scenario="zipf-crash", plan=preset_plan("serve-crash", 0),
            cache_enabled=False, coalesce_enabled=False,
        )
        cmp = breaker_comparison(cfg)          # raises if the win is lost
        win = cmp["breaker_win"]
        assert win["ok"]
        assert cmp["disabled"]["p99_ms"] > cmp["enabled"]["p99_ms"]
        assert cmp["disabled"]["shed_rate"] > cmp["enabled"]["shed_rate"]

    def test_breaker_comparison_needs_serve_plan(self):
        with pytest.raises(ValueError):
            breaker_comparison(SMALL)

    def test_preset_plan_unknown_name(self):
        with pytest.raises(FaultPlanError):
            preset_plan("definitely-not-a-preset", 0)


# ---------------------------------------------------------------------------
# the chaos property, across engine x backend
# ---------------------------------------------------------------------------

@given(
    seed=st.integers(0, 2**16),
    engine=st.sampled_from([None, "frontier", "adaptive"]),
    backend=st.sampled_from([None, "dense", "frontier"]),
    plan_name=st.sampled_from(["serve-crash", "serve-delay"]),
    cache_on=st.booleans(),
    merge=st.integers(1, 4),
)
@settings(max_examples=12, deadline=None)
def test_chaos_every_job_terminal_and_bit_identical(
    seed, engine, backend, plan_name, cache_on, merge
):
    """The service's safety contract, property-style.

    Under a seeded fault plan, on any engine x backend x short-circuit
    configuration: every job reaches exactly one terminal state with a
    consistent decision history, no attempt count exceeds the plan's
    retry bound, every completed solve/query — cold, cached, or
    coalesced — is bit-identical to an unserved ``repro.solve`` of the
    replayed graph at the same generation, and no cache entry outlives
    its graph's committed generation.
    """
    plan = preset_plan(plan_name, seed)
    cfg = ServeBenchConfig(
        scenario="prop", num_graphs=2, graph_vertices=40, graph_edges=120,
        num_jobs=12, workers=2, queue_capacity=4, plan=plan,
        engine=engine, backend=backend, seed=seed,
    )
    graphs = _build_graphs(cfg)
    initial_edges = {name: g.edges() for name, g in graphs.items()}
    mean = float(
        solve(graphs["g0"], engine=engine, backend=backend).model_seconds
    )
    svc = SccService(
        workers=cfg.workers, queue_capacity=cfg.queue_capacity,
        engine=engine, backend=backend, faults=plan, seed=seed,
        cache_enabled=cache_on, coalesce_enabled=cache_on,
        merge_updates=merge,
    )
    for name, g in graphs.items():
        svc.register_graph(name, g)
    for at, spec in build_workload(cfg, mean_service_s=mean):
        svc.submit(_resolve_deletions(spec, initial_edges), at=at)
    report = svc.run()

    assert len(report.jobs) == cfg.num_jobs          # no job lost
    for job in report.jobs:
        assert job.state in TERMINAL_STATES          # exactly one terminal
        assert job.finish_s is not None
        assert job.attempts <= plan.max_retries + 1  # bounded retry
    assert sum(report.by_state().values()) == cfg.num_jobs

    outcome = verify_report(report, graphs, engine=engine, backend=backend)
    assert outcome["ok"], outcome["failures"]

    if svc.cache is not None:
        # entries never survive a generation advance: whatever is left
        # in the cache is keyed at its graph's final committed
        # generation (older generations were invalidated on commit)
        for key, entry in svc.cache.entries():
            final = svc.graph_handle(key[0]).generation
            assert entry.generation == key[1] == final


@given(seed=st.integers(0, 2**16))
@settings(max_examples=8, deadline=None)
def test_service_replays_bit_for_bit(seed):
    """Same config, same seed -> byte-identical artifact streams."""
    cfg = ServeBenchConfig(
        scenario="replay", num_graphs=2, graph_vertices=30, graph_edges=90,
        num_jobs=10, workers=2, queue_capacity=3,
        plan=preset_plan("serve-crash", seed), seed=seed,
    )
    a = run_serve_bench(cfg)
    b = run_serve_bench(cfg)
    assert json.dumps(a, sort_keys=True, default=str) == \
        json.dumps(b, sort_keys=True, default=str)


def test_random_gnm_edges_support_deletion_slices():
    """The bench's disjoint-slice deletion scheme rests on edges()
    returning the construction edge list deterministically."""
    g = random_gnm(20, 60, seed=1)
    src, dst = g.edges()
    assert len(src) == 60
    src2, dst2 = random_gnm(20, 60, seed=1).edges()
    assert np.array_equal(src, src2) and np.array_equal(dst, dst2)


# ---------------------------------------------------------------------------
# unit: the generation-keyed solve cache
# ---------------------------------------------------------------------------

class TestSolveCache:
    def _entry(self, gen=0, n=8):
        return CacheEntry(
            labels=np.zeros(n, dtype=np.int64), num_sccs=1, generation=gen
        )

    def test_get_put_and_lru_eviction_by_bytes(self):
        one = self._entry().nbytes
        cache = SolveCache(max_bytes=2 * one)       # room for two entries
        ka = SolveCache.key("a", 0, None, None)
        kb = SolveCache.key("b", 0, None, None)
        kc = SolveCache.key("c", 0, None, None)
        assert cache.put(ka, self._entry()) == []
        assert cache.put(kb, self._entry()) == []
        assert cache.get(ka) is not None            # bumps a to MRU
        assert cache.put(kc, self._entry()) == [kb]  # b was LRU
        assert kb not in cache and ka in cache and kc in cache
        assert cache.stats.evictions == 1 and cache.stats.hits == 1
        assert cache.bytes == 2 * one and len(cache) == 2

    def test_oversized_entry_refused_not_evicting_everything(self):
        cache = SolveCache(max_bytes=64)            # smaller than any entry
        k = SolveCache.key("a", 0, None, None)
        assert cache.put(k, self._entry(n=64)) == []
        assert k not in cache and cache.stats.stale_puts == 1

    def test_invalidate_drops_stale_generations_only(self):
        cache = SolveCache()
        cache.put(SolveCache.key("a", 0, None, None), self._entry(gen=0))
        cache.put(SolveCache.key("a", 2, None, None), self._entry(gen=2))
        cache.put(SolveCache.key("b", 0, None, None), self._entry(gen=0))
        assert cache.invalidate("a", current_generation=2) == 1
        assert SolveCache.key("a", 0, None, None) not in cache
        assert SolveCache.key("a", 2, None, None) in cache      # current kept
        assert SolveCache.key("b", 0, None, None) in cache      # other graph
        assert cache.stats.invalidations == 1

    def test_replace_same_key_does_not_leak_bytes(self):
        cache = SolveCache()
        k = SolveCache.key("a", 0, None, None)
        cache.put(k, self._entry())
        cache.put(k, self._entry())
        assert cache.bytes == self._entry().nbytes and len(cache) == 1

    def test_as_dict_and_validation(self):
        cache = SolveCache(max_bytes=1024)
        d = cache.as_dict()
        assert d["max_bytes"] == 1024 and d["entries"] == 0
        for field in ("hits", "misses", "evictions", "invalidations"):
            assert d[field] == 0
        with pytest.raises(ValueError):
            SolveCache(max_bytes=0)


# ---------------------------------------------------------------------------
# unit: eligible-aware eviction, queued_at, requeue/extract
# ---------------------------------------------------------------------------

class TestQueueEligibleAwareEviction:
    def test_drop_oldest_prefers_blocked_victim(self):
        q = BoundedQueue(2, policy=ShedPolicy.DROP_OLDEST)
        upd_g0 = _job(0, JobKind.UPDATE, "g0")      # eligible (g0 free)
        qry_g1 = _job(1, JobKind.QUERY, "g1")       # blocked (g1 busy)
        q.offer(upd_g0), q.offer(qry_g1)
        c = _job(2)
        # the oldest job *blocked* behind a busy graph sheds first,
        # not the plain head
        assert q.offer(c, busy_graphs={"g1"}) is qry_g1
        assert list(q) == [upd_g0, c]

    def test_drop_oldest_falls_back_to_head_when_all_eligible(self):
        q = BoundedQueue(2, policy=ShedPolicy.DROP_OLDEST)
        a, b = _job(0, JobKind.UPDATE, "g0"), _job(1, JobKind.QUERY, "g1")
        q.offer(a), q.offer(b)
        assert q.offer(_job(2), busy_graphs=set()) is a

    def test_solve_never_picked_as_blocked_victim(self):
        q = BoundedQueue(2, policy=ShedPolicy.DROP_OLDEST)
        s = _job(0, JobKind.SOLVE, "g0")            # always eligible
        upd = _job(1, JobKind.UPDATE, "g0")
        q.offer(s), q.offer(upd)
        assert q.offer(_job(2), busy_graphs={"g0"}) is upd

    def test_offer_stamps_queued_at(self):
        q = BoundedQueue(1, policy=ShedPolicy.REJECT_NEW)
        a, b = _job(0), _job(1)
        q.offer(a, now=1.5)
        assert a.queued_at == 1.5
        assert q.offer(b, now=2.5) is b             # rejected arrival...
        assert b.queued_at == 2.5                   # ...still stamped

    def test_requeue_prepends_in_order_and_may_overfill(self):
        q = BoundedQueue(2)
        a, b = _job(0), _job(1)
        q.offer(a), q.offer(b)
        x, y = _job(2), _job(3)
        q.requeue([x, y])
        assert list(q) == [x, y, a, b]              # transient overfill ok
        assert len(q) == 4 and q.peak_depth == 4

    def test_extract_preserves_order_and_calls_pred_once(self):
        q = BoundedQueue(8)
        jobs = [_job(i) for i in range(5)]
        for j in jobs:
            q.offer(j)
        seen = []
        out = q.extract(lambda j: (seen.append(j.id), j.id % 2 == 0)[1])
        assert [j.id for j in out] == [0, 2, 4]
        assert [j.id for j in q] == [1, 3]
        assert seen == [0, 1, 2, 3, 4]              # exactly once, in order


# ---------------------------------------------------------------------------
# regression: the deadline expiry boundary (>= in dispatch AND retry)
# ---------------------------------------------------------------------------

class TestDeadlineBoundary:
    def _completion_time(self, g):
        """When one cold solve of *g* completes on a fresh service."""
        probe = SccService(workers=1, cache_enabled=False,
                           coalesce_enabled=False)
        probe.register_graph("g0", g)
        job = probe.submit(JobSpec("t", JobKind.SOLVE, "g0"))
        probe.run()
        return job.finish_s

    def test_dispatch_at_exact_deadline_expires(self):
        g = cycle_graph(32)
        t1 = self._completion_time(g)
        svc = SccService(workers=1, queue_capacity=8,
                         cache_enabled=False, coalesce_enabled=False)
        svc.register_graph("g0", g)
        svc.submit(JobSpec("t", JobKind.SOLVE, "g0"))
        # dequeued exactly when the worker frees at t1 == its deadline:
        # a job at its deadline is expired, not dispatched
        late = svc.submit(JobSpec("t", JobKind.SOLVE, "g0", deadline_s=t1))
        svc.run()
        assert late.state is JobState.DEAD_LETTER
        assert late.reason == "deadline"
        assert svc.metrics["deadline_expired"] == 1

    def test_retry_landing_at_exact_deadline_expires(self, monkeypatch):
        from repro.faults.plan import FaultPlan
        from repro.serve import service as service_mod

        g = cycle_graph(32)
        plan = FaultPlan(worker_crash_rate=1.0, max_retries=3)
        # pin the backoff so retry_at is exactly computable
        wait = 1e-4
        monkeypatch.setattr(service_mod, "backoff_seconds",
                            lambda *a, **k: wait)
        # probe run: when does the (always-crashing) first attempt end?
        probe = SccService(workers=1, faults=plan, cache_enabled=False,
                           coalesce_enabled=False)
        probe.register_graph("g0", g)
        pj = probe.submit(JobSpec("t", JobKind.SOLVE, "g0"))
        probe.run()
        d = pj.attempts_detail[0]
        t_crash = d["t_dispatch"] + d["service_s"] + d["delay_s"]
        # same seed => same crash draw; deadline exactly at retry_at
        svc = SccService(workers=1, faults=plan, cache_enabled=False,
                         coalesce_enabled=False)
        svc.register_graph("g0", g)
        job = svc.submit(JobSpec("t", JobKind.SOLVE, "g0",
                                 deadline_s=t_crash + wait))
        svc.run()
        # a retry landing exactly at the deadline is dead on arrival:
        # it must be dead-lettered *now*, not scheduled and re-judged
        assert job.state is JobState.DEAD_LETTER
        assert job.reason == "deadline"
        assert svc.metrics["retries"] == 0
        assert not any(dec["decision"] == "retry-scheduled"
                       for dec in job.decisions)


# ---------------------------------------------------------------------------
# end to end: the short-circuit layer (cache + coalescing)
# ---------------------------------------------------------------------------

class TestShortCircuitLayer:
    def test_cache_hit_serves_repeat_solve_free(self):
        g = scc_ladder(8)
        svc = SccService(workers=1, queue_capacity=8)
        svc.register_graph("main", g)
        first = svc.submit(JobSpec("alice", JobKind.SOLVE, "main"), at=0.0)
        svc.run()                                   # first completes, cached
        hit = svc.submit(JobSpec("bob", JobKind.SOLVE, "main"),
                         at=first.finish_s + 1.0)
        svc.run()
        assert hit.state is JobState.DONE
        assert np.array_equal(hit.result.labels, first.result.labels)
        assert svc.metrics["cache_hits"] == 1
        assert svc.metrics["dispatched"] == 1       # the hit used no worker
        # zero device cost: bob was never charged
        assert "bob" not in svc.ledger.snapshot()
        # the artifact records the hit
        assert hit.attempts_detail[-1]["cache_hit"] is True
        assert any(d["decision"] == "cache_hit" for d in hit.decisions)

    def test_coalesced_reads_split_the_charge_evenly(self):
        g = scc_ladder(8)
        svc = SccService(workers=1, queue_capacity=8)
        svc.register_graph("main", g)
        tenants = ["a", "b", "c"]
        jobs = [svc.submit(JobSpec(t, JobKind.SOLVE, "main"), at=0.0)
                for t in tenants]
        svc.run()
        assert all(j.state is JobState.DONE for j in jobs)
        assert svc.metrics["dispatched"] == 1
        assert svc.metrics["coalesced_reads"] == 2
        expected = solve(g).labels
        for j in jobs:
            assert np.array_equal(j.result.labels, expected)
        spent = svc.ledger.snapshot()
        # the one execution's charge split three ways, evenly
        assert spent["a"]["model_seconds"] == pytest.approx(
            spent["b"]["model_seconds"]) and spent["b"]["model_seconds"] == \
            pytest.approx(spent["c"]["model_seconds"])
        assert spent["a"]["model_seconds"] > 0

    def test_update_commit_invalidates_cache(self):
        g = cycle_graph(16)
        svc = SccService(workers=1, queue_capacity=8)
        svc.register_graph("g0", g)
        s1 = svc.submit(JobSpec("t", JobKind.SOLVE, "g0"), at=0.0)
        svc.run()
        assert len(svc.cache) == 1
        # break the cycle: the committed update must drop the entry
        svc.submit(JobSpec("t", JobKind.UPDATE, "g0",
                           delete_edges=([0], [1])), at=s1.finish_s + 1.0)
        svc.run()
        assert svc.cache.stats.invalidations == 1
        q = svc.submit(JobSpec("t", JobKind.QUERY, "g0"), at=1.0)
        svc.run()
        cold = solve(svc.graph_handle("g0").graph())
        assert np.array_equal(q.result.labels, cold.labels)
        assert q.result.num_sccs == 16              # cycle fully split

    def test_consecutive_updates_merge_into_one_apply(self):
        svc = SccService(workers=1, queue_capacity=16, merge_updates=4)
        svc.register_graph("big", cycle_graph(64))   # occupies the worker
        svc.register_graph("g1", cycle_graph(8))
        svc.submit(JobSpec("t", JobKind.SOLVE, "big"), at=0.0)
        ups = [
            svc.submit(JobSpec("t", JobKind.UPDATE, "g1",
                               insert_edges=([i], [(i + 3) % 8])),
                       at=1e-9 * (i + 1))
            for i in range(3)
        ]
        svc.run()
        assert all(u.state is JobState.DONE for u in ups)
        assert svc.metrics["coalesced_updates"] == 2
        # one merged apply: insertions only => generation advanced once
        assert svc.graph_handle("g1").generation == 1
        gens = [u.attempts_detail[-1]["generation"] for u in ups]
        assert gens == [1, 1, 1]                     # shared final generation
        idx = [u.attempts_detail[-1].get("merge_index") for u in ups]
        assert idx == [0, 1, 2]                      # leader first, in order
        cold = solve(svc.graph_handle("g1").graph())
        q = svc.submit(JobSpec("t", JobKind.QUERY, "g1"), at=1.0)
        svc.run()
        assert np.array_equal(q.result.labels, cold.labels)

    def test_merge_stops_at_interleaved_read(self):
        svc = SccService(workers=1, queue_capacity=16)
        svc.register_graph("big", cycle_graph(64))
        svc.register_graph("g1", cycle_graph(8))
        svc.submit(JobSpec("t", JobKind.SOLVE, "big"), at=0.0)
        u1 = svc.submit(JobSpec("t", JobKind.UPDATE, "g1",
                                insert_edges=([0], [3])), at=1e-9)
        q = svc.submit(JobSpec("t", JobKind.QUERY, "g1"), at=2e-9)
        u2 = svc.submit(JobSpec("t", JobKind.UPDATE, "g1",
                                insert_edges=([1], [4])), at=3e-9)
        svc.run()
        # program order per graph: u2 may not commit past the query
        assert svc.metrics["coalesced_updates"] == 0
        assert all(j.state is JobState.DONE for j in (u1, q, u2))
        gen_q = q.attempts_detail[-1]["generation"]
        assert _fg(u1) <= gen_q < _fg(u2)

    def test_merge_respects_delete_insert_overlap(self):
        svc = SccService(workers=1, queue_capacity=16)
        svc.register_graph("big", cycle_graph(64))
        svc.register_graph("g1", cycle_graph(8))
        svc.submit(JobSpec("t", JobKind.SOLVE, "big"), at=0.0)
        u1 = svc.submit(JobSpec("t", JobKind.UPDATE, "g1",
                                insert_edges=([0], [3])), at=1e-9)
        # u2 deletes the edge u1 inserts: merging would break apply's
        # delete-before-insert phase order, so it must not merge
        u2 = svc.submit(JobSpec("t", JobKind.UPDATE, "g1",
                                delete_edges=([0], [3])), at=2e-9)
        svc.run()
        assert svc.metrics["coalesced_updates"] == 0
        assert u1.state is JobState.DONE and u2.state is JobState.DONE
        assert _fg(u1) < _fg(u2)                    # committed sequentially
        cold = solve(svc.graph_handle("g1").graph())
        assert cold.num_sccs == 1                   # net effect: ring intact

    def test_leader_crash_requeues_followers_without_partial_commit(self):
        from repro.faults.plan import FaultPlan

        plan = FaultPlan(worker_crash_rate=1.0, max_retries=1)
        svc = SccService(workers=1, queue_capacity=16, faults=plan,
                         breakers_enabled=False)
        svc.register_graph("big", cycle_graph(64))
        svc.register_graph("g1", cycle_graph(8))
        svc.submit(JobSpec("t", JobKind.SOLVE, "big"), at=0.0)
        ups = [
            svc.submit(JobSpec("t", JobKind.UPDATE, "g1",
                               insert_edges=([i], [(i + 3) % 8])),
                       at=1e-9 * (i + 1))
            for i in range(3)
        ]
        svc.run()
        # every dispatch crashes: followers were requeued (at least
        # once), every job still reached exactly one terminal state
        assert svc.metrics["coalesce_requeued"] >= 1
        assert all(u.terminal for u in ups)
        assert all(u.state is JobState.DEAD_LETTER for u in ups)
        # crash-restore left no partial commit behind
        assert svc.graph_handle("g1").generation == 0
        assert solve(svc.graph_handle("g1").graph()).num_sccs == 1

    def test_follower_past_leader_deadline_is_not_attached(self):
        g = cycle_graph(64)
        svc = SccService(workers=1, queue_capacity=8)
        svc.register_graph("g0", g)
        first = svc.submit(JobSpec("t", JobKind.SOLVE, "g0"))
        # its deadline expires long before the in-flight leader
        # completes: attaching would knowingly deliver a dead result
        late = svc.submit(JobSpec("t", JobKind.SOLVE, "g0",
                                  deadline_s=1e-12))
        svc.run()
        assert first.state is JobState.DONE
        assert late.state is JobState.DEAD_LETTER
        assert late.reason == "deadline"
        assert svc.metrics["coalesced_reads"] == 0

    def test_shed_record_carries_queue_wait(self):
        svc = SccService(workers=1, wip_limit=1, queue_capacity=1,
                         shed_policy=ShedPolicy.DROP_OLDEST,
                         cache_enabled=False, coalesce_enabled=False)
        svc.register_graph("g0", cycle_graph(32))
        for i in range(4):
            svc.submit(JobSpec("t", JobKind.SOLVE, "g0"), at=1e-7 * i)
        report = svc.run()
        shed = [j for j in report.jobs if j.state is JobState.SHED]
        assert shed
        for j in shed:
            d = next(dec for dec in j.decisions if dec["decision"] == "shed")
            assert d["waited_s"] >= 0.0
            assert d["waited_s"] == pytest.approx(j.finish_s - j.queued_at)
        assert report.metrics.gauges["shed_wait_s_total"] >= 0.0

    def test_disabled_layer_is_inert(self):
        g = scc_ladder(8)
        svc = SccService(workers=2, queue_capacity=8,
                         cache_enabled=False, coalesce_enabled=False)
        svc.register_graph("main", g)
        for i in range(4):
            svc.submit(JobSpec("t", JobKind.SOLVE, "main"), at=0.001 * i)
        report = svc.run()
        assert report.by_state() == {"done": 4}
        assert svc.metrics["dispatched"] == 4       # nothing short-circuited
        assert svc.metrics["cache_hits"] == 0
        assert svc.metrics["coalesced_reads"] == 0
        assert report.cache is None


def _fg(job):
    """Final committed generation of a DONE job (test helper)."""
    for d in reversed(job.attempts_detail):
        if "generation" in d:
            return d["generation"]
    return 0
