"""Tests for :mod:`repro.obs` — the unified observability pipeline.

The contract (docs/observability.md §10):

* streaming log-bucket histograms answer any quantile within one bucket
  width of the nearest-rank sorted-list value, on any input stream;
* every terminal job's decision history folds into a phase timeline
  whose segments are ordered, non-overlapping, and **contiguous** —
  shared breakpoints, first segment starting at ``submit_s``, last
  ending at ``finish_s`` — so the decomposition spans the end-to-end
  latency bit-exactly, under every chaos plan;
* the Perfetto export is valid Chrome-trace JSON (``json.loads``
  round-trip, well-formed ``ph``/``ts``/``dur``) whose job-phase lanes
  carry the exact simulated endpoints;
* SLO evaluation passes a loose spec and fails a tightened one, with
  burn-rate alerts preceding exhaustion;
* trace JSONL schema v3 round-trips ``sample``/``timeline`` lines,
  still accepts v2/v1 files, and still rejects newer schemas;
* the recorder, folding only the service's change log, samples exactly
  what a full poll of the service would, sample for sample.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import preset_plan
from repro.graph import cycle_graph
from repro.obs import (
    BREAKER_STATE_LEVELS,
    ObsRecorder,
    PHASE_OF_DECISION,
    SeriesRegistry,
    SLObjective,
    SLOSpec,
    StreamingHistogram,
    dump_perfetto,
    evaluate_slo,
    export_perfetto,
    job_timeline,
)
from repro.obs.recorder import _SAMPLED_COUNTERS
from repro.serve import (
    Budget,
    Job,
    JobKind,
    JobSpec,
    JobState,
    SccService,
    ServeBenchConfig,
    ShedPolicy,
    run_serve_bench,
)
from repro.trace import SCHEMA_VERSION, SampleRecord, TimelineRecord, Trace


def _percentile(values: "list[float]", q: float) -> "float | None":
    """Nearest-rank order statistic from a sorted list.

    The exact reference the streaming histogram's bounded-error
    quantiles are checked against; the bench rows report histogram
    quantiles.
    """
    if not values:
        return None
    rank = max(1, min(len(values), int(np.ceil(q / 100.0 * len(values)))))
    return float(sorted(values)[rank - 1])


# ---------------------------------------------------------------------------
# streaming histogram: bounded-error quantiles
# ---------------------------------------------------------------------------

class TestStreamingHistogram:
    def test_empty_quantile_is_none(self):
        assert StreamingHistogram().quantile(0.5) is None

    def test_growth_validation(self):
        with pytest.raises(ValueError):
            StreamingHistogram(1.0)
        with pytest.raises(ValueError):
            StreamingHistogram(0.5)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            StreamingHistogram().observe(-1.0)

    def test_quantile_range_validation(self):
        h = StreamingHistogram()
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_zeros_get_their_own_bucket(self):
        h = StreamingHistogram()
        for _ in range(9):
            h.observe(0.0)
        h.observe(100.0)
        assert h.quantile(0.5) == 0.0
        assert h.quantile(1.0) == pytest.approx(100.0, rel=h.quantile_error)

    def test_error_bound_is_sqrt_growth(self):
        h = StreamingHistogram(1.21)
        assert h.quantile_error == pytest.approx(math.sqrt(1.21) - 1.0)

    @given(
        values=st.lists(
            st.floats(min_value=1e-9, max_value=1e9,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=300,
        ),
        q=st.sampled_from([0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0]),
        growth=st.sampled_from([1.02, 1.04, 1.25, 2.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_quantile_within_one_bucket_of_nearest_rank(
        self, values, q, growth
    ):
        """The sketch's core guarantee, property-style.

        For any stream and any q, the histogram quantile lands in the
        same bucket as the nearest-rank order statistic — so it is
        within one bucket width absolutely and ``sqrt(growth) - 1``
        relatively.
        """
        h = StreamingHistogram(growth)
        for v in values:
            h.observe(v)
        exact = sorted(values)[
            max(1, min(len(values), math.ceil(q * len(values)))) - 1
        ]
        est = h.quantile(q)
        lo, hi = h.bucket_bounds(exact)
        assert lo <= est < hi or est == pytest.approx(exact)
        assert abs(est - exact) < h.bucket_width(exact)
        assert abs(est - exact) <= h.quantile_error * max(est, exact)

    def test_as_dict_round_trips_counts(self):
        h = StreamingHistogram()
        for v in (0.0, 1.0, 2.0, 4.0):
            h.observe(v)
        d = h.as_dict()
        assert d["total"] == 4 and d["zeros"] == 1
        assert sum(d["buckets"].values()) == 3
        assert d["min"] == 0.0 and d["max"] == 4.0


# ---------------------------------------------------------------------------
# series registry
# ---------------------------------------------------------------------------

class TestSeriesRegistry:
    def test_kind_is_fixed_per_series(self):
        reg = SeriesRegistry()
        reg.counter("jobs", 0.0, 1.0)
        with pytest.raises(ValueError, match="is a counter"):
            reg.gauge("jobs", 1.0, 2.0)

    def test_counter_must_not_decrease(self):
        reg = SeriesRegistry()
        reg.counter("jobs", 0.0, 5.0)
        with pytest.raises(ValueError, match="decreased"):
            reg.counter("jobs", 1.0, 4.0)

    def test_time_must_not_go_backwards(self):
        reg = SeriesRegistry()
        reg.gauge("depth", 1.0, 3.0)
        with pytest.raises(ValueError, match="backwards"):
            reg.gauge("depth", 0.5, 3.0)

    def test_duplicate_points_dedup(self):
        reg = SeriesRegistry()
        reg.gauge("depth", 1.0, 3.0)
        reg.gauge("depth", 1.0, 3.0)
        assert len(reg) == 1
        reg.gauge("depth", 1.0, 4.0)  # same t, new value: kept
        assert len(reg) == 2

    def test_queries_and_as_dict(self):
        reg = SeriesRegistry()
        reg.gauge("depth", 0.0, 1.0)
        reg.gauge("depth", 1.0, 5.0)
        reg.counter("done", 1.0, 2.0)
        assert reg.names() == ["depth", "done"]
        assert reg.kind_of("depth") == "gauge"
        assert reg.peak("depth") == 5.0
        assert reg.last("done") == SampleRecord("done", "counter", 1.0, 2.0)
        d = reg.as_dict()
        assert d["depth"]["points"] == [[0.0, 1.0], [1.0, 5.0]]
        assert d["done"]["kind"] == "counter"


# ---------------------------------------------------------------------------
# timelines: the bit-exact decomposition property, across chaos plans
# ---------------------------------------------------------------------------

def _assert_exact_decomposition(tl, job):
    """Ordered, non-overlapping, contiguous, spanning exactly."""
    segs = tl.segments
    assert segs[0][1] == job.submit_s
    assert segs[-1][2] == job.finish_s
    for (_, a0, a1), (_, b0, _) in zip(segs, segs[1:]):
        assert a1 == b0              # shared breakpoint, bit-exact
        assert a0 <= a1              # ordered, non-overlapping
    # because breakpoints are shared floats, the telescoping sum *is*
    # terminal_time - submit_time with no arithmetic involved
    assert segs[-1][2] - segs[0][1] == job.latency_s


#: one small serve run per draw: chaos plan, cache/coalescing, shed
#: policy and an optional (small, finite) tenant-0 budget
_CHAOS_RUNS = dict(
    seed=st.integers(0, 2**16),
    plan_name=st.sampled_from([None, "serve-crash", "serve-delay"]),
    cache_on=st.booleans(),
    shed_policy=st.sampled_from(list(ShedPolicy)),
    tenant0_budget_s=st.one_of(
        st.none(), st.floats(min_value=1e-6, max_value=1e-3)
    ),
)


def _chaos_cfg(seed, plan_name, cache_on, shed_policy, tenant0_budget_s):
    plan = preset_plan(plan_name, seed) if plan_name else None
    return ServeBenchConfig(
        scenario="tl-prop", num_graphs=2, graph_vertices=40,
        graph_edges=120, num_jobs=12, workers=2, queue_capacity=4,
        plan=plan, cache_enabled=cache_on, coalesce_enabled=cache_on,
        shed_policy=shed_policy, tenant0_budget_s=tenant0_budget_s,
        seed=seed,
    )


@given(**_CHAOS_RUNS)
@settings(max_examples=12, deadline=None)
def test_timeline_decomposition_is_exact_under_chaos(
    seed, plan_name, cache_on, shed_policy, tenant0_budget_s
):
    """Every job, every chaos plan: the timeline spans latency exactly.

    Crash/retry ladders, delays, coalesced reads and merged updates,
    cache hits, sheds, budget rejections — whatever path a job takes,
    its segments are ordered, non-overlapping, contiguous, and their
    span equals ``finish_s - submit_s`` bit-for-bit.
    """
    cfg = _chaos_cfg(seed, plan_name, cache_on, shed_policy, tenant0_budget_s)
    obs = ObsRecorder()
    run_serve_bench(cfg, obs=obs)
    report = obs.report
    assert len(obs.timelines) == len(report.jobs)
    by_id = {tl.job_id: tl for tl in obs.timelines}
    for job in report.jobs:
        tl = by_id[job.id]
        _assert_exact_decomposition(tl, job)
        # folding the finished job again gives the same timeline
        assert job_timeline(job) == tl
        assert set(tl.by_phase()) <= set(PHASE_OF_DECISION.values())


def _done_job(decisions, *, submit_s=0.0, finish_s=None):
    """A DONE job whose history is *decisions* (``(t, name)`` pairs)."""
    return Job(
        id=0, spec=JobSpec("t", JobKind.SOLVE, "g"), submit_s=submit_s,
        state=JobState.DONE,
        finish_s=decisions[-1][0] if finish_s is None else finish_s,
        decisions=[{"t": t, "decision": name} for t, name in decisions],
    )


class TestTimelineEdges:
    def test_in_flight_job_rejected(self):
        svc = SccService(workers=1, queue_capacity=2)
        svc.register_graph("g0", cycle_graph(6))
        job = svc.submit(JobSpec("t0", JobKind.SOLVE, "g0"))
        with pytest.raises(ValueError, match="not terminal"):
            job_timeline(job)
        svc.run()
        tl = job_timeline(job)
        _assert_exact_decomposition(tl, job)

    def test_unknown_decision_fails_loud(self):
        job = _done_job([(0.0, "submit"), (0.5, "teleport"), (1.0, "done")])
        with pytest.raises(ValueError, match="teleport"):
            job_timeline(job)

    def test_segment_validation(self):
        backwards = _done_job([
            (0.0, "submit"), (1.0, "admit"), (0.5, "dispatch"),
            (2.0, "complete"), (2.0, "done"),
        ])
        with pytest.raises(ValueError, match="backwards"):
            job_timeline(backwards)
        # a history that ends before the job's finish time
        short = _done_job([(0.0, "submit"), (1.0, "done")], finish_s=2.0)
        with pytest.raises(ValueError, match="finish_s=2.0"):
            job_timeline(short)

    def test_adjacent_same_phase_segments_merge(self):
        job = _done_job([
            (0.0, "submit"),
            (1.0, "admit"),
            (1.5, "coalesce_requeue"),  # still queued
            (2.0, "dispatch"),
            (3.0, "complete"),
            (3.0, "done"),
        ])
        tl = job_timeline(job)
        assert tl.segments == (
            ("admission", 0.0, 1.0), ("queued", 1.0, 2.0),
            ("execute", 2.0, 3.0),
        )
        _assert_exact_decomposition(tl, job)


# ---------------------------------------------------------------------------
# the recorder on a live service
# ---------------------------------------------------------------------------

class TestObsRecorder:
    def run_observed(self, **kwargs):
        obs = ObsRecorder()
        svc = SccService(workers=2, queue_capacity=8, observer=obs, **kwargs)
        svc.register_graph("g0", cycle_graph(12))
        for i in range(6):
            svc.submit(JobSpec(f"t{i % 2}", JobKind.SOLVE, "g0"),
                       at=0.0005 * i)
        report = svc.run()
        obs.finalize(report)
        return obs, report

    def test_series_sampled_and_counters_monotone(self):
        obs, report = self.run_observed()
        assert obs.events_observed > 0
        reg = obs.registry
        assert "queue_depth" in reg.names()
        assert "metric:completed" in reg.names()
        done = [s.value for s in reg.series("metric:completed")]
        assert done == sorted(done) and done[-1] == report.metrics["completed"]
        peak = reg.peak("queue_depth")
        assert peak is not None and peak <= report.queue_peak_depth

    def test_latency_histogram_counts_done_jobs(self):
        obs, report = self.run_observed()
        assert obs.latency_hist.total == report.by_state().get("done", 0)
        assert len(obs.timelines) == len(report.jobs)

    def test_cache_hit_rate_gauge(self):
        obs, _ = self.run_observed(cache_enabled=True)
        assert "cache_hit_rate" in obs.registry.names()

    def test_summary_is_json_safe(self):
        obs, _ = self.run_observed()
        doc = json.loads(json.dumps(obs.summary()))
        assert doc["events_observed"] == obs.events_observed
        assert doc["latency_ms"]["p50"] is not None
        assert doc["quantile_error"] == obs.latency_hist.quantile_error

    def test_quantiles_ms_key_shapes(self):
        obs, _ = self.run_observed()
        q = obs.quantiles_ms(0.5, 0.99, 0.999)
        assert set(q) == {"p50", "p99", "p999"}


# ---------------------------------------------------------------------------
# the log-driven recorder against a full poll of the service
# ---------------------------------------------------------------------------

class _PollingRecorder(ObsRecorder):
    """The reference: every call rescans every pending job and polls
    every breaker, tenant and sampled counter.  Its ``on_event`` and
    ``_sweep_jobs`` are the recorder's bodies from before the service
    kept a change log, verbatim; the log-driven recorder must record
    exactly what this one does."""

    def __init__(self) -> None:
        super().__init__()
        self._pending: "dict[int, object]" = {}
        self._jobs_cursor = 0

    def on_event(self, service) -> None:
        """Called by the service after each simulated event."""
        self.events_observed += 1
        now = service.now
        reg = self.registry
        self._gauge_changed("queue_depth", now, float(len(service.queue)))
        self._gauge_changed("wip_in_flight", now, float(service.pool.in_flight))

        counters = service.metrics.counters
        for name in _SAMPLED_COUNTERS:
            value = float(counters.get(name, 0))
            last = reg.last(f"metric:{name}")
            if last is None or last.value != value:
                reg.counter(f"metric:{name}", now, value)

        cache = service.cache
        if cache is not None:
            hits = cache.stats.hits
            misses = cache.stats.misses
            lookups = hits + misses
            if lookups:
                self._gauge_changed("cache_hit_rate", now, hits / lookups)
            self._gauge_changed("cache_bytes", now, float(cache.bytes))

        for workload, breaker in sorted(service._breakers.items()):
            level = BREAKER_STATE_LEVELS[breaker.state.value]
            self._gauge_changed(f"breaker:{workload}", now, level)

        ledger = service.ledger
        for tenant, spent in ledger.snapshot().items():
            limit = ledger.budget_of(tenant).model_seconds
            if math.isfinite(limit) and limit > 0:
                self._gauge_changed(
                    f"budget_util:{tenant}", now,
                    spent["model_seconds"] / limit,
                )

        self._sweep_jobs(service)

    def _sweep_jobs(self, service) -> None:
        jobs = service.jobs
        while self._jobs_cursor < len(jobs):
            job = jobs[self._jobs_cursor]
            self._pending[job.id] = job
            self._jobs_cursor += 1
        finished = [j for j in self._pending.values() if j.terminal]
        for job in finished:
            del self._pending[job.id]
            self._on_terminal(job)


class _WithReference(ObsRecorder):
    """The log-driven recorder, with the polling reference observing
    the same run beside it."""

    def __init__(self) -> None:
        super().__init__()
        self.reference = _PollingRecorder()

    def on_event(self, service) -> None:
        super().on_event(service)
        self.reference.on_event(service)


def _assert_same_observation(obs, ref):
    assert obs.events_observed == ref.events_observed
    assert list(obs.registry.samples) == list(ref.registry.samples)
    assert [tl.as_dict() for tl in obs.timelines] == \
        [tl.as_dict() for tl in ref.timelines]
    assert obs.latency_hist.as_dict() == ref.latency_hist.as_dict()
    assert [(name, h.as_dict()) for name, h in obs.phase_hists.items()] == \
        [(name, h.as_dict()) for name, h in ref.phase_hists.items()]


@given(**_CHAOS_RUNS)
@settings(max_examples=12, deadline=None)
def test_log_recorder_matches_polling_reference(
    seed, plan_name, cache_on, shed_policy, tenant0_budget_s
):
    """Folding the change log records what a full poll records: the
    same samples in the same order, the same timelines in the same
    order, the same latency and phase histograms."""
    cfg = _chaos_cfg(seed, plan_name, cache_on, shed_policy, tenant0_budget_s)
    obs = _WithReference()
    run_serve_bench(cfg, obs=obs)
    _assert_same_observation(obs, obs.reference)
    assert len(obs.timelines) == len(obs.report.jobs)


class _NoScanView:
    """A service as the recorder sees it, minus the job list and the
    breaker table: reading either fails the test."""

    def __init__(self, service) -> None:
        self._service = service

    def __getattr__(self, name):
        if name in ("jobs", "_breakers"):
            raise AssertionError(f"the recorder read service.{name}")
        return getattr(self._service, name)


def test_recorder_reads_neither_job_list_nor_breaker_table():
    """The recorder learns of terminal jobs and breakers from the log
    alone, and still records what a full poll does."""
    obs = ObsRecorder()
    ref = _PollingRecorder()

    class Both:
        def on_event(self, service):
            obs.on_event(_NoScanView(service))
            ref.on_event(service)

    svc = SccService(workers=2, queue_capacity=3,
                     faults=preset_plan("serve-crash", 3),
                     shed_policy=ShedPolicy.DROP_OLDEST, observer=Both())
    for g in ("g0", "g1"):
        svc.register_graph(g, cycle_graph(12))
    svc.set_budget("t0", Budget(model_seconds=2e-4))
    for i in range(16):
        svc.submit(JobSpec(f"t{i % 3}", JobKind.SOLVE, f"g{i % 2}"),
                   at=0.0002 * i)
    report = svc.run()
    assert len(obs.timelines) == len(report.jobs)
    assert any(n.startswith("breaker:") for n in obs.registry.names())
    assert any(n.startswith("budget_util:") for n in obs.registry.names())
    _assert_same_observation(obs, ref)


# ---------------------------------------------------------------------------
# bench rows: histogram quantiles replace the sorted list
# ---------------------------------------------------------------------------

SMALL = ServeBenchConfig(
    scenario="obs-test", num_graphs=2, graph_vertices=40, graph_edges=120,
    num_jobs=14, workers=2, queue_capacity=4, seed=0,
)


class TestBenchQuantiles:
    @pytest.mark.parametrize("plan_name", [None, "serve-crash", "serve-delay"])
    def test_row_p99_within_one_bucket_of_sorted_list(self, plan_name):
        """The PR acceptance bound, on every bench scenario."""
        plan = preset_plan(plan_name, 0) if plan_name else None
        cfg = ServeBenchConfig(**{
            **SMALL.__dict__,
            "scenario": f"obs-{plan_name or 'clean'}", "plan": plan,
        })
        obs = ObsRecorder()
        row = run_serve_bench(cfg, obs=obs)
        latencies = obs.report.done_latencies()
        if not latencies:
            assert row["p99_ms"] is None
            return
        for q, key in ((50, "p50_ms"), (99, "p99_ms"), (99.9, "p999_ms")):
            exact_s = _percentile(latencies, q)
            hist_s = row[key] / 1e3
            assert abs(hist_s - exact_s) < obs.latency_hist.bucket_width(
                exact_s
            )
        assert row["quantile_error"] == obs.latency_hist.quantile_error
        assert row["p50_ms"] <= row["p99_ms"] <= row["p999_ms"]

    def test_rows_stay_deterministic_with_recorder(self):
        a = run_serve_bench(SMALL)
        b = run_serve_bench(SMALL, obs=ObsRecorder())
        assert json.dumps(a, sort_keys=True, default=str) == \
            json.dumps(b, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# perfetto export
# ---------------------------------------------------------------------------

_VALID_PH = {"M", "X", "C", "b", "e"}


class TestPerfettoExport:
    def export(self, cfg=SMALL):
        obs = ObsRecorder()
        run_serve_bench(cfg, obs=obs)
        return obs, export_perfetto(obs.report, recorder=obs)

    def test_round_trips_through_json(self, tmp_path):
        obs, obj = self.export()
        path = tmp_path / "trace.json"
        dumped = dump_perfetto(obs.report, path, recorder=obs)
        back = json.loads(path.read_text())
        assert back == json.loads(json.dumps(obj)) == \
            json.loads(json.dumps(dumped))
        assert back["displayTimeUnit"] == "ms"

    def test_events_are_well_formed(self):
        _, obj = self.export()
        events = obj["traceEvents"]
        assert events, "export produced no events"
        for ev in events:
            assert ev["ph"] in _VALID_PH
            assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
            if ev["ph"] != "M":
                assert isinstance(ev["ts"], float) and ev["ts"] >= 0.0
            if ev["ph"] == "X":
                assert isinstance(ev["dur"], float) and ev["dur"] >= 0.0
            if ev["ph"] in ("b", "e"):
                assert "id" in ev and "cat" in ev

    def test_async_pairs_balance(self):
        _, obj = self.export()
        opens: "dict[tuple, int]" = {}
        for ev in obj["traceEvents"]:
            if ev["ph"] == "b":
                key = (ev["cat"], ev["id"], ev["name"])
                opens[key] = opens.get(key, 0) + 1
            elif ev["ph"] == "e":
                key = (ev["cat"], ev["id"], ev["name"])
                opens[key] = opens.get(key, 0) - 1
        assert all(v == 0 for v in opens.values())

    def test_job_lane_segments_sum_exactly_to_latency(self):
        """The acceptance criterion: per-job track segments sum exactly
        to the reported latency, read back from the exported JSON."""
        obs, obj = self.export()
        events = json.loads(json.dumps(obj))["traceEvents"]
        lanes: "dict[str, list]" = {}
        for ev in events:
            if ev["ph"] == "b" and ev["cat"] == "job-phase":
                lanes.setdefault(ev["id"], []).append(ev["args"])
        assert lanes
        by_id = {job.id: job for job in obs.report.jobs}
        for jid, segs in lanes.items():
            segs.sort(key=lambda a: a["t0"])
            for a, b in zip(segs, segs[1:]):
                assert a["t1"] == b["t0"]
            job = by_id[int(jid)]
            assert segs[0]["t0"] == job.submit_s
            assert segs[-1]["t1"] == job.finish_s
            assert segs[-1]["t1"] - segs[0]["t0"] == job.latency_s

    def test_solve_jobs_carry_data_plane_spans(self):
        obs, obj = self.export()
        spans = [e for e in obj["traceEvents"]
                 if e["ph"] == "X" and e.get("cat") == "span"]
        executed_solves = [
            j for j in obs.report.jobs
            if str(j.state) == "done" and j.spec.kind is JobKind.SOLVE
            and any("t_dispatch" in d and not d.get("crashed")
                    for d in j.attempts_detail)
        ]
        if executed_solves:  # job-id correlation down to launch charges
            assert spans
            assert any("launches" in s["args"] for s in spans)
            jobs_with_spans = {s["args"]["job"] for s in spans}
            assert jobs_with_spans <= {j.id for j in executed_solves}
            attempts = {
                e["args"]["job"]: e for e in obj["traceEvents"]
                if e["ph"] == "X" and e.get("cat") == "attempt"
                and not e["args"]["crashed"]
            }
            for s in spans:  # nested inside the owning attempt slice
                owner = attempts[s["args"]["job"]]
                assert s["ts"] >= owner["ts"] - 1e-6
                assert s["ts"] + s["dur"] <= owner["ts"] + owner["dur"] + 1e-6


# ---------------------------------------------------------------------------
# SLOs
# ---------------------------------------------------------------------------

class TestSLO:
    def observed_report(self):
        obs = ObsRecorder()
        run_serve_bench(SMALL, obs=obs)
        return obs.report

    def test_spec_json_round_trip(self):
        spec = SLOSpec.from_json((
            '{"name": "s", "alert_burn_rate": 2.0, "window_frac": 0.25,'
            ' "objectives": [{"name": "o", "kind": "latency",'
            ' "target": 0.9, "threshold_ms": 1.0}]}'
        ))
        assert SLOSpec.from_json(spec.to_json()) == spec

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            SLObjective("x", "throughput", 0.9)
        with pytest.raises(ValueError, match="target"):
            SLObjective("x", "availability", 0.0)
        with pytest.raises(ValueError, match="threshold_ms"):
            SLObjective("x", "latency", 0.9)
        with pytest.raises(ValueError, match="no objectives"):
            SLOSpec("empty", ())

    def test_loose_spec_passes_and_tight_spec_fails(self):
        """Both directions of the obs-slo gate, on the same run."""
        report = self.observed_report()
        loose = SLOSpec("loose", (
            SLObjective("lat", "latency", 0.5, threshold_ms=1e6),
            SLObjective("avail", "availability", 0.01),
        ))
        tight = SLOSpec("tight", (
            SLObjective("lat", "latency", 0.999, threshold_ms=1e-9),
        ))
        ok = evaluate_slo(loose, report)
        assert ok.ok and all(r.bad <= r.allowed_bad for r in ok.results)
        bad = evaluate_slo(tight, report)
        assert not bad.ok
        r = bad.results[0]
        assert r.budget_consumed > 1.0
        assert any(a["type"] == "exhausted" for a in r.alerts)

    def test_evaluate_accepts_report_dict(self):
        report = self.observed_report()
        spec = SLOSpec("d", (SLObjective("a", "availability", 0.01),))
        assert evaluate_slo(spec, report.to_dict()).ok == \
            evaluate_slo(spec, report).ok

    def test_burn_alert_precedes_exhaustion(self):
        def art(i, t, state, lat):
            return {"state": state, "finish_s": t, "latency_s": lat}
        # 20 done jobs, the last 6 slow: budget (10%) exhausted at #3
        jobs = [art(i, 0.01 * i, "done", 0.0001) for i in range(14)]
        jobs += [art(14 + i, 0.14 + 0.001 * i, "done", 9.9) for i in range(6)]
        report = {"makespan_s": 0.15, "jobs": jobs}
        spec = SLOSpec("b", (
            SLObjective("lat", "latency", 0.9, threshold_ms=1.0),
        ))
        res = evaluate_slo(spec, report).results[0]
        assert not res.ok and res.bad == 6
        assert res.allowed_bad == pytest.approx(2.0)
        kinds = [a["type"] for a in res.alerts]
        assert "burn" in kinds and kinds[-1] == "exhausted"
        burn_t = next(a["t"] for a in res.alerts if a["type"] == "burn")
        exhausted_t = next(
            a["t"] for a in res.alerts if a["type"] == "exhausted"
        )
        assert burn_t <= exhausted_t

    def test_committed_spec_passes_on_its_ci_scenario(self):
        """SLO_serve.json is calibrated for the default zipf-clean
        scenario the ``obs-slo`` CI job runs — the gate must exit 0."""
        from pathlib import Path

        from repro.cli import main

        spec_path = Path(__file__).resolve().parent.parent / "SLO_serve.json"
        spec = SLOSpec.from_json(spec_path.read_text())
        assert spec.name == "serve-default"
        assert main(["obs", "slo", "--spec", str(spec_path)]) == 0


# ---------------------------------------------------------------------------
# trace JSONL schema v3
# ---------------------------------------------------------------------------

class TestSchemaV3:
    def sample_trace(self):
        trace = Trace(meta={"scenario": "t"})
        trace.samples.append(SampleRecord("queue_depth", "gauge", 0.5, 3.0))
        trace.samples.append(SampleRecord("metric:done", "counter", 1.0, 7.0))
        trace.timelines.append(TimelineRecord(
            job_id=4, tenant="t0", workload="g0:solve", state="done",
            submit_s=0.0, finish_s=1.5,
            segments=(("admission", 0.0, 0.25), ("queued", 0.25, 1.0),
                      ("execute", 1.0, 1.5)),
        ))
        return trace

    def test_round_trip(self):
        trace = self.sample_trace()
        back = Trace.from_jsonl_str(trace.to_jsonl_str())
        assert back.schema == SCHEMA_VERSION == 3
        assert back.samples == trace.samples
        assert back.timelines == trace.timelines

    def test_recorder_to_trace_round_trips(self):
        obs = ObsRecorder()
        run_serve_bench(SMALL, obs=obs)
        trace = obs.to_trace(Trace(meta={"scenario": "obs-test"}))
        assert len(trace.samples) == len(obs.registry.samples)
        assert len(trace.timelines) == len(obs.timelines)
        back = Trace.from_jsonl_str(trace.to_jsonl_str())
        assert back.samples == trace.samples
        assert back.timelines == trace.timelines

    def test_v2_reader_acceptance(self):
        """A v2 file (spans/launches, no obs lines) still loads."""
        text = "\n".join([
            '{"type": "meta", "schema": 2, "meta": {}}',
            '{"type": "span", "id": 0, "parent": null, "depth": 0,'
            ' "name": "outer", "t0": 0.0, "t1": 1.0, "attrs": {}}',
            '{"type": "launch", "seq": 0, "kind": "launch",'
            ' "path": ["outer"], "span": 0, "kernel_launches": 1}',
        ])
        back = Trace.from_jsonl_str(text)
        assert back.schema == 2
        assert len(back.spans) == 1 and len(back.launches) == 1
        assert back.samples == [] and back.timelines == []

    def test_newer_schema_rejected(self):
        with pytest.raises(ValueError, match="newer than the supported"):
            Trace.from_jsonl_str('{"type": "meta", "schema": 4, "meta": {}}')

    def test_unknown_line_type_rejected(self):
        with pytest.raises(ValueError, match="unknown record type"):
            Trace.from_jsonl_str('{"type": "sampl", "series": "x"}')


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestObsCli:
    ARGS = ["--jobs", "10", "--graphs", "2", "--workers", "2", "--queue", "4"]

    def test_report_smoke(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "obs.json"
        assert main(["obs", "report", *self.ARGS, "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert "series" in doc and "timelines" in doc
        assert "phase decomposition" in capsys.readouterr().out

    def test_export_smoke(self, tmp_path):
        from repro.cli import main

        trace_json = tmp_path / "trace.json"
        trace_jsonl = tmp_path / "trace.jsonl"
        assert main([
            "obs", "export", *self.ARGS,
            "--out", str(trace_json), "--jsonl", str(trace_jsonl),
        ]) == 0
        obj = json.loads(trace_json.read_text())
        assert obj["traceEvents"]
        back = Trace.from_jsonl(trace_jsonl)
        assert back.schema == 3 and back.samples and back.timelines

    def test_slo_gate_both_directions(self, tmp_path):
        from repro.cli import main

        loose = tmp_path / "loose.json"
        loose.write_text(SLOSpec("loose", (
            SLObjective("avail", "availability", 0.01),
        )).to_json())
        tight = tmp_path / "tight.json"
        tight.write_text(SLOSpec("tight", (
            SLObjective("lat", "latency", 0.999, threshold_ms=1e-9),
        )).to_json())
        assert main(["obs", "slo", *self.ARGS, "--spec", str(loose)]) == 0
        assert main(["obs", "slo", *self.ARGS, "--spec", str(tight)]) == 1
