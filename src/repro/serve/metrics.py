"""Service metrics: decision counters and a Prometheus exposition.

Every job decision the service records bumps the counters
:data:`DECISION_COUNTERS` maps it to, in the same call that appends it
to the job's history, so the counters equal a fold of the decision
histories.  The few counters no decision explains (injected delays,
breaker transitions, cache misses, evictions and invalidations) each
have one writer; ``docs/observability.md`` §9 lists them all.
:func:`to_prometheus` renders the counters and gauges in the text
exposition format, mirroring ``repro.profile.to_prometheus``.
"""

from __future__ import annotations

from collections import Counter

__all__ = ["ServiceMetrics", "to_prometheus", "COUNTER_HELP", "DECISION_COUNTERS", "GAUGE_HELP"]

#: every counter the service emits, with its exposition HELP text.
COUNTER_HELP = {
    "submitted": "jobs submitted",
    "rejected_budget": "jobs rejected at admission: tenant over budget",
    "shed_backpressure": "jobs shed: bounded run queue full",
    "shed_breaker": "jobs shed: workload circuit breaker open",
    "admitted": "jobs admitted to the run queue",
    "dispatched": "execution attempts dispatched to workers",
    "completed": "jobs completed successfully",
    "crashed": "execution attempts killed by injected worker crashes",
    "delayed": "completions stretched by injected message delays",
    "retries": "retry attempts scheduled (bounded, backoff)",
    "dead_letter": "jobs moved to the dead-letter lane",
    "deadline_expired": "jobs dead-lettered by their deadline",
    "breaker_opened": "circuit-breaker open transitions",
    "breaker_reopened": "failed half-open probes (breaker re-opened)",
    "breaker_closed": "successful half-open probes (breaker closed)",
    "cache_hits": "read jobs completed from the solve cache (zero device cost)",
    "cache_misses": "read executions that found no cache entry",
    "cache_evictions": "solve-cache entries evicted by the LRU byte budget",
    "cache_invalidations": "solve-cache entries dropped by a generation advance",
    "coalesced_reads": "solve/query jobs completed from a coalesced leader's result",
    "coalesced_updates": "update jobs merged into another update's single apply",
    "coalesce_requeued": "coalesced followers returned to the queue by a leader crash",
}

#: the counters each job decision bumps, keyed by the decision name
#: ``SccService._decide`` records, or by ``(decision, reason)`` for the
#: two decisions whose counter depends on why they were made.  Indexed
#: strictly: a decision missing here raises ``KeyError``.
DECISION_COUNTERS = {
    "submit": ("submitted",),
    "reject-budget": ("rejected_budget",),
    "admit": ("admitted",),
    ("shed", "backpressure"): ("shed_backpressure",),
    ("shed", "breaker-open"): ("shed_breaker",),
    "retry": (),
    "dispatch": ("dispatched",),
    "crash": ("crashed",),
    "retry-scheduled": ("retries",),
    ("dead-letter", "retries-exhausted"): ("dead_letter",),
    ("dead-letter", "deadline"): ("dead_letter", "deadline_expired"),
    "complete": ("completed",),
    "cache_hit": ("cache_hits",),
    "coalesce_attach": ("coalesced_reads",),
    "coalesce_merge": ("coalesced_updates",),
    "coalesce_requeue": ("coalesce_requeued",),
}

#: every gauge the service emits, with its exposition HELP text —
#: mirrors :data:`COUNTER_HELP`; unknown names fall back to a generic
#: ``service gauge <name>`` line rather than being dropped.
GAUGE_HELP = {
    "queue_peak_depth": "deepest the bounded run queue got during the run",
    "makespan_s": "simulated seconds from first arrival to last terminal job",
    "shed_wait_s_total": "queue seconds wasted by jobs that were later shed",
    "cache_bytes": "bytes resident in the solve cache at end of run",
    "cache_entries": "entries resident in the solve cache at end of run",
}


class ServiceMetrics:
    """Aggregate decision counters plus a few service-level gauges."""

    def __init__(self) -> None:
        self.counters: "Counter[str]" = Counter()
        self.gauges: "dict[str, float]" = {}

    def incr(self, name: str, value: int = 1) -> None:
        self.counters[name] += value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def __getitem__(self, name: str) -> int:
        return self.counters.get(name, 0)

    def as_dict(self) -> "dict[str, object]":
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
        }


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def to_prometheus(
    metrics: ServiceMetrics, *, prefix: str = "repro_serve"
) -> str:
    """Text exposition of the service counters and gauges.

    Counter names become ``<prefix>_<name>_total``; gauges keep their
    name.  Unknown counters (callers may add their own) get a generic
    HELP line rather than being dropped.
    """
    lines: "list[str]" = []
    for name in sorted(metrics.counters):
        metric = f"{prefix}_{name}_total"
        help_text = COUNTER_HELP.get(name, f"service counter {name}")
        lines.append(f"# HELP {metric} {_escape(help_text)}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {metrics.counters[name]}")
    for name in sorted(metrics.gauges):
        metric = f"{prefix}_{name}"
        help_text = GAUGE_HELP.get(name, f"service gauge {name}")
        lines.append(f"# HELP {metric} {_escape(help_text)}")
        lines.append(f"# TYPE {metric} gauge")
        value = metrics.gauges[name]
        lines.append(f"{metric} {value:.9g}")
    return "\n".join(lines) + "\n"
