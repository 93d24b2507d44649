"""Typed trace records and the :class:`Trace` container.

Every record a trace holds is defined here once: spans (each carrying
its root-to-span ``path``), counter/gauge events, launch-ledger charges
(whose counter fields are :data:`~repro.device.counters.COUNTER_FIELDS`),
and the series samples and job timelines ``repro.obs`` builds.  A
finished trace keeps spans in *start* order — a parent always precedes
its children — and the other records in emission order.  Records are
plain dataclasses so traces compare with ``==``, round-trip through
JSONL losslessly, and need no tracer machinery to inspect.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any, Optional

__all__ = [
    "SpanRecord",
    "EventRecord",
    "LaunchRecord",
    "SampleRecord",
    "TimelineRecord",
    "Trace",
    "COUNTER",
    "GAUGE",
    "SCHEMA_VERSION",
]

#: event kinds
COUNTER = "counter"
GAUGE = "gauge"

#: JSONL schema version written by :mod:`repro.trace.jsonl`.  Version 1
#: (PR 1) had no header version and no launch records; version 2 adds
#: both; version 3 adds observability ``sample`` (simulated-clock time
#: series points) and ``timeline`` (per-job phase decompositions)
#: lines.  Bump whenever the line format changes incompatibly.
SCHEMA_VERSION = 3


def _plain(value: Any) -> Any:
    """Coerce numpy scalars (and similar) to plain Python for JSON."""
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except (AttributeError, ValueError):
            return value
    return value


def plain_attrs(attrs: "dict[str, Any]") -> "dict[str, Any]":
    """Coerce every attr value to a JSON-representable plain type."""
    return {k: _plain(v) for k, v in attrs.items()}


@dataclass
class SpanRecord:
    """One closed (or still-open) span.

    Attributes
    ----------
    name:
        span label, e.g. ``"outer-iteration"`` or ``"phase2-propagate"``.
    span_id:
        unique within the trace; assigned in start order.
    parent_id:
        enclosing span's id, or ``None`` for a root span.
    depth:
        nesting depth (roots are 0).
    t_start / t_end:
        tracer-clock timestamps; ``t_end`` is NaN while the span is open.
    attrs:
        arbitrary JSON-representable key/value annotations.
    path:
        names from the root span down to this one (the parent's path
        plus ``name``); ledger charges, summaries and attribution use it.
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    depth: int
    t_start: float
    t_end: float = math.nan
    attrs: "dict[str, Any]" = field(default_factory=dict)
    path: "tuple[str, ...]" = ()

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def closed(self) -> bool:
        return not math.isnan(self.t_end)


@dataclass
class EventRecord:
    """One counter/gauge emission, attributed to the enclosing span."""

    name: str
    kind: str  # COUNTER | GAUGE
    value: float
    t: float
    span_id: Optional[int] = None
    attrs: "dict[str, Any]" = field(default_factory=dict)


@dataclass
class LaunchRecord:
    """One device charge (kernel launch, in-kernel work, or serial step).

    Recorded by :func:`repro.profile.attach_ledger` as the *delta* of the
    device's :class:`~repro.device.KernelCounters` across a single
    ``launch()``/``work()``/``serial()`` call, tagged with the span path
    that was open when the charge happened.  The counter fields are
    :data:`~repro.device.counters.COUNTER_FIELDS`, in order, so a record
    duck-types as a tiny ``KernelCounters`` for the cost model.
    """

    seq: int
    kind: str  # "launch" | "work" | "serial"
    path: "tuple[str, ...]"
    span_id: Optional[int] = None
    kernel_launches: int = 0
    global_barriers: int = 0
    edge_work: int = 0
    vertex_work: int = 0
    bytes_moved: int = 0
    atomics: int = 0
    serial_work: int = 0
    rounds: int = 0
    blocks_scheduled: int = 0
    bytes_streamed: int = 0


@dataclass
class SampleRecord:
    """One simulated-clock time-series point (a ``repro.obs`` series).

    ``kind`` distinguishes cumulative ``counter`` series (monotone
    totals; a rate is the slope between points) from instantaneous
    ``gauge`` series (queue depth, cache hit rate, breaker level).
    ``t`` is simulated seconds on the service clock.
    """

    series: str
    kind: str  # COUNTER | GAUGE
    t: float
    value: float


@dataclass
class TimelineRecord:
    """One terminal job's latency decomposed into phase segments.

    Built by :func:`repro.obs.job_timeline`.  ``segments`` is a tuple of
    ``(phase, t0, t1)`` triples that are ordered, non-overlapping and
    contiguous: consecutive segments share their breakpoint, the first
    starts at ``submit_s`` and the last ends at ``finish_s`` — so the
    decomposition spans the end-to-end latency exactly.
    """

    job_id: int
    tenant: str
    workload: str
    state: str
    submit_s: float
    finish_s: float
    segments: "tuple[tuple[str, float, float], ...]" = ()

    def by_phase(self) -> "dict[str, float]":
        """Total seconds spent in each phase."""
        out: "dict[str, float]" = {}
        for phase, t0, t1 in self.segments:
            out[phase] = out.get(phase, 0.0) + (t1 - t0)
        return out

    def as_dict(self) -> "dict[str, Any]":
        """The JSON-safe form the ``repro.obs`` summary prints."""
        out = asdict(self)
        out["segments"] = [
            {"phase": phase, "t0": t0, "t1": t1} for phase, t0, t1 in self.segments
        ]
        return out


@dataclass
class Trace:
    """A finished trace: spans in start order plus counter/gauge events.

    ``launches`` holds the per-charge device ledger (empty unless the run
    was profiled via :func:`repro.profile.attach_ledger`); ``samples``
    and ``timelines`` hold the observability export (empty unless a
    ``repro.obs`` recorder was attached, schema v3); ``schema`` is the
    JSONL schema version the trace was read from (or will be written
    as).
    """

    spans: "list[SpanRecord]" = field(default_factory=list)
    events: "list[EventRecord]" = field(default_factory=list)
    meta: "dict[str, Any]" = field(default_factory=dict)
    launches: "list[LaunchRecord]" = field(default_factory=list)
    samples: "list[SampleRecord]" = field(default_factory=list)
    timelines: "list[TimelineRecord]" = field(default_factory=list)
    schema: int = SCHEMA_VERSION

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def count_spans(self, name: str) -> int:
        """Number of spans labelled *name*."""
        return sum(1 for s in self.spans if s.name == name)

    def find_spans(self, name: str) -> "list[SpanRecord]":
        return [s for s in self.spans if s.name == name]

    def roots(self) -> "list[SpanRecord]":
        return [s for s in self.spans if s.parent_id is None]

    def sum_counter(self, name: str) -> float:
        """Sum of all counter values labelled *name*."""
        return float(
            sum(e.value for e in self.events if e.name == name and e.kind == COUNTER)
        )

    # ------------------------------------------------------------------
    # JSONL convenience (implementation in repro.trace.jsonl)
    # ------------------------------------------------------------------
    def to_jsonl(self, path) -> None:
        """Write this trace to *path* (one JSON object per line)."""
        from .jsonl import dump_jsonl

        dump_jsonl(self, path)

    def to_jsonl_str(self) -> str:
        from .jsonl import dumps_jsonl

        return dumps_jsonl(self)

    @classmethod
    def from_jsonl(cls, path) -> "Trace":
        """Read a trace previously written by :meth:`to_jsonl`."""
        from .jsonl import load_jsonl

        return load_jsonl(path)

    @classmethod
    def from_jsonl_str(cls, text: str) -> "Trace":
        from .jsonl import loads_jsonl

        return loads_jsonl(text)
