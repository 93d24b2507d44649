"""The observer that turns a live service run into observability data.

:class:`ObsRecorder` plugs into ``SccService(observer=...)``.  The
service calls :meth:`on_event` after every simulated event it
processes; the recorder samples the control plane's state onto a
:class:`~repro.obs.timeseries.SeriesRegistry` (change-driven step
series, so flat stretches cost nothing), streams terminal-job
latencies into :class:`~repro.obs.timeseries.StreamingHistogram`
sketches, and folds each newly-terminal job's decision history into a
:class:`~repro.trace.TimelineRecord`, records a trace stores as they are.

Observation is data-driven: each call folds only the entries the
service appended to its change log (``service.log``) since the last
call, so it costs O(what changed), not O(pending jobs + breakers +
tenants).  Queue depth, WIP, the cache gauges and the 11 sampled
counters are a fixed set of O(1) reads, polled every call.

The coupling is duck-typed on purpose: ``repro.serve`` never imports
``repro.obs`` — any object with an ``on_event(service)`` method works
as an observer, and the recorder only touches public service surface
(``now``, ``log``, ``queue``, ``pool``, ``metrics``, ``cache``,
``ledger``, ``breaker_for``).
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Any

from ..trace.records import TimelineRecord
from .timeline import job_timeline
from .timeseries import SeriesRegistry, StreamingHistogram

__all__ = ["ObsRecorder", "BREAKER_STATE_LEVELS"]

#: gauge encoding of circuit-breaker states (closed is healthy/low).
BREAKER_STATE_LEVELS = {"closed": 0.0, "half-open": 1.0, "open": 2.0}

#: cumulative service counters worth a time series (the rest stay
#: visible as run totals in ``ServiceMetrics``).  Each only ever rises
#: by one, so polling them every event records exactly the increments.
_SAMPLED_COUNTERS = (
    "submitted",
    "admitted",
    "dispatched",
    "completed",
    "crashed",
    "retries",
    "shed_backpressure",
    "shed_breaker",
    "dead_letter",
    "cache_hits",
    "coalesced_reads",
)
_SAMPLED_SERIES = tuple(f"metric:{name}" for name in _SAMPLED_COUNTERS)
_ZEROS = (0,) * len(_SAMPLED_COUNTERS)


class ObsRecorder:
    """Samples an :class:`~repro.serve.service.SccService` as it runs.

    Parameters
    ----------
    growth:
        Bucket growth factor of the latency histograms; the reported
        quantiles have relative error at most ``sqrt(growth) - 1``.
    """

    def __init__(self, *, growth: float = 1.04) -> None:
        self.registry = SeriesRegistry()
        #: DONE-job end-to-end latency, seconds
        self.latency_hist = StreamingHistogram(growth)
        #: per-phase dwell time across all terminal jobs, seconds
        self.phase_hists: "dict[str, StreamingHistogram]" = {}
        self.timelines: "list[TimelineRecord]" = []
        self.report: Any = None
        self._growth = growth
        self._cursor = 0                # next unread ``service.log`` entry
        #: the sampled counters at the last event; all None before the
        #: first, so it starts every series, zeros included
        self._counts: tuple = (None,) * len(_SAMPLED_COUNTERS)
        self.events_observed = 0

    # ------------------------------------------------------------------
    # service hook
    # ------------------------------------------------------------------
    def on_event(self, service: Any) -> None:
        """Called by the service after each simulated event."""
        self.events_observed += 1
        log = service.log
        breakers: "set[str]" = set()
        tenants: "set[str]" = set()
        finished: "list[Any]" = []
        touched = {"breaker": breakers, "budget": tenants}
        for kind, key in log[self._cursor:]:
            if kind == "terminal":
                finished.append(key)
            else:
                touched[kind].add(key)
        self._cursor = len(log)

        now = service.now
        reg = self.registry
        self._gauge_changed("queue_depth", now, float(len(service.queue)))
        self._gauge_changed("wip_in_flight", now, float(service.pool.in_flight))

        # one C-level read of all 11; most events move one or two
        counts = tuple(map(service.metrics.counters.get, _SAMPLED_COUNTERS, _ZEROS))
        if counts != self._counts:
            for series, value, before in zip(_SAMPLED_SERIES, counts, self._counts):
                if value != before:
                    reg.counter(series, now, float(value))
            self._counts = counts

        cache = service.cache
        if cache is not None:
            hits = cache.stats.hits
            misses = cache.stats.misses
            lookups = hits + misses
            if lookups:
                self._gauge_changed("cache_hit_rate", now, hits / lookups)
            self._gauge_changed("cache_bytes", now, float(cache.bytes))

        for workload in sorted(breakers):
            level = BREAKER_STATE_LEVELS[service.breaker_for(workload).state.value]
            self._gauge_changed(f"breaker:{workload}", now, level)

        ledger = service.ledger
        for tenant in sorted(tenants):
            limit = ledger.budget_of(tenant).model_seconds
            if ledger.charged(tenant) and math.isfinite(limit) and limit > 0:
                self._gauge_changed(
                    f"budget_util:{tenant}", now,
                    ledger.spent_of(tenant)["model_seconds"] / limit,
                )

        # job-id order, the order a scan of ``service.jobs`` would fold
        for job in sorted(finished, key=attrgetter("id")):
            self._on_terminal(job)

    def _gauge_changed(self, series: str, t: float, value: float) -> None:
        """Record a gauge point only when the level actually moved."""
        last = self.registry.last(series)
        if last is None or last.value != value:
            self.registry.gauge(series, t, value)

    def _on_terminal(self, job: Any) -> None:
        tl = job_timeline(job)
        self.timelines.append(tl)
        if str(job.state) == "done":
            self.latency_hist.observe(job.latency_s)
        for phase, seconds in tl.by_phase().items():
            hist = self.phase_hists.get(phase)
            if hist is None:
                hist = self.phase_hists[phase] = StreamingHistogram(self._growth)
            hist.observe(seconds)

    # ------------------------------------------------------------------
    # end of run
    # ------------------------------------------------------------------
    def finalize(self, report: Any) -> "ObsRecorder":
        """Attach the finished run's :class:`ServiceReport`."""
        self.report = report
        return self

    def quantiles_ms(self, *qs: float) -> "dict[str, float | None]":
        """DONE-latency quantiles in milliseconds, keyed ``p50``-style."""
        out: "dict[str, float | None]" = {}
        for q in qs:
            v = self.latency_hist.quantile(q)
            key = f"p{q * 100:g}".replace(".", "")
            out[key] = None if v is None else v * 1e3
        return out

    def summary(self) -> "dict[str, Any]":
        """JSON-safe digest: series, histograms, timelines, run totals."""
        phases: "dict[str, Any]" = {}
        for name in sorted(self.phase_hists):
            hist = self.phase_hists[name]
            phases[name] = {
                "total": hist.total,
                "p50_s": hist.quantile(0.5),
                "p99_s": hist.quantile(0.99),
                "max_s": hist.max,
            }
        out: "dict[str, Any]" = {
            "events_observed": self.events_observed,
            "series": self.registry.as_dict(),
            "latency_hist": self.latency_hist.as_dict(),
            "latency_ms": self.quantiles_ms(0.5, 0.99, 0.999),
            "quantile_error": self.latency_hist.quantile_error,
            "phases": phases,
            "timelines": [tl.as_dict() for tl in self.timelines],
        }
        if self.report is not None:
            out["makespan_s"] = self.report.makespan_s
            out["by_state"] = self.report.by_state()
        return out

    def to_trace(self, trace: Any) -> Any:
        """Append samples + timelines to a ``repro.trace.Trace`` (v3)."""
        trace.samples.extend(self.registry.samples)
        trace.timelines.extend(self.timelines)
        return trace
