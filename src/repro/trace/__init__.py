"""Structured tracing and metrics for every SCC algorithm in the library.

The paper's whole evaluation (Figs. 5-14) reasons about *per-phase*
behavior — propagation rounds, kernel launches, edge-removal fractions.
This subpackage is the substrate that records it:

* :class:`Tracer` — nested spans (``outer-iteration`` →
  ``phase1-init`` / ``phase2-propagate`` / ``phase3-filter``) plus typed
  ``counter``/``gauge`` events;
* :class:`NullTracer` / :data:`NULL_TRACER` — the disabled path; no
  clock reads, no allocation, zero measurable overhead;
* :class:`Trace` — the recorded result: queryable, JSONL
  round-trippable (:meth:`Trace.to_jsonl` / :meth:`Trace.from_jsonl`);
* :func:`render_summary` — flame-style text aggregation.

Every ``*_scc`` entry point, :func:`repro.solve`, and
:func:`repro.distributed.distributed_ecl_scc` accept ``tracer=``; the
``repro trace`` CLI subcommand runs an algorithm on a named workload and
dumps/summarizes the JSONL.  See ``docs/observability.md``.
"""

from .records import (
    COUNTER,
    GAUGE,
    SCHEMA_VERSION,
    EventRecord,
    LaunchRecord,
    SampleRecord,
    SpanRecord,
    TimelineRecord,
    Trace,
)
from .tracer import NULL_TRACER, NullTracer, Tracer, ensure_tracer
from .jsonl import dump_jsonl, dumps_jsonl, load_jsonl, loads_jsonl
from .summary import PathStats, render_summary, summarize_spans

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "ensure_tracer",
    "Trace",
    "SpanRecord",
    "EventRecord",
    "LaunchRecord",
    "SampleRecord",
    "TimelineRecord",
    "COUNTER",
    "GAUGE",
    "SCHEMA_VERSION",
    "dump_jsonl",
    "dumps_jsonl",
    "load_jsonl",
    "loads_jsonl",
    "PathStats",
    "summarize_spans",
    "render_summary",
]
