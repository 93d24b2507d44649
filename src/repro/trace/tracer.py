"""The :class:`Tracer` (recording) and :class:`NullTracer` (disabled).

Usage::

    tracer = Tracer()
    with tracer.span("outer-iteration", index=1):
        with tracer.span("phase2-propagate") as sp:
            tracer.counter("relaxation-round")
            sp.set(rounds=1)
    tracer.trace.count_spans("outer-iteration")   # -> 1

A span's ``path`` is set when it opens, from its parent's, so the
launch ledger stamps each charge with that tuple (:meth:`Tracer.current_path`).

Every instrumented entry point takes ``tracer=None``; ``None`` resolves
to the shared :data:`NULL_TRACER`, whose disabled path performs no clock
reads, no allocation, and no recording — passing no tracer costs nothing
(guarded by ``tests/test_trace.py::TestNullTracerOverhead``).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

from .records import EventRecord, SpanRecord, Trace, plain_attrs

__all__ = ["Tracer", "NullTracer", "NULL_TRACER", "ensure_tracer"]


class _SpanHandle:
    """Context manager for one open span of a recording tracer."""

    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self._record = record

    @property
    def record(self) -> SpanRecord:
        return self._record

    def set(self, **attrs: Any) -> "_SpanHandle":
        """Attach (or update) attributes on the open span."""
        self._record.attrs.update(plain_attrs(attrs))
        return self

    def close(self) -> None:
        """Close the span explicitly (alternative to the ``with`` form)."""
        self._tracer._close_span(self._record)

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close_span(self._record)
        return False


class _NullSpan:
    """Reusable no-op span handle; one shared instance serves all calls."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def close(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    @property
    def record(self) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects nested spans and counter/gauge events into a :class:`Trace`.

    Parameters
    ----------
    clock:
        zero-argument callable returning a monotonically nondecreasing
        float.  Defaults to :func:`time.perf_counter`; tests inject a
        deterministic counter.
    meta:
        free-form metadata stored on the trace (algorithm, graph, ...).
    """

    enabled: bool = True

    def __init__(
        self,
        *,
        clock: "Callable[[], float] | None" = None,
        meta: "dict[str, Any] | None" = None,
    ) -> None:
        self._clock = clock if clock is not None else time.perf_counter
        self._trace = Trace(meta=dict(meta or {}))
        self._stack: "list[SpanRecord]" = []
        self._next_id = 0

    # ------------------------------------------------------------------
    @property
    def trace(self) -> Trace:
        """The trace recorded so far (records of open spans included)."""
        return self._trace

    @property
    def current_span_id(self) -> Optional[int]:
        return self._stack[-1].span_id if self._stack else None

    def current_path(self) -> "tuple[str, ...]":
        """The open span's path (root first); empty at top level."""
        return self._stack[-1].path if self._stack else ()

    def span(self, name: str, **attrs: Any):
        """Open a nested span; use as a context manager."""
        parent = self._stack[-1] if self._stack else None
        record = SpanRecord(
            name=name,
            span_id=self._next_id,
            parent_id=None if parent is None else parent.span_id,
            depth=len(self._stack),
            t_start=self._clock(),
            attrs=plain_attrs(attrs),
            path=(name,) if parent is None else parent.path + (name,),
        )
        self._next_id += 1
        self._trace.spans.append(record)
        self._stack.append(record)
        return _SpanHandle(self, record)

    def _close_span(self, record: SpanRecord) -> None:
        if record.closed and record not in self._stack:
            return  # double close is a no-op
        if not self._stack or self._stack[-1] is not record:
            # exiting out of order (a caller kept a handle across spans);
            # close everything above it so nesting stays well-formed
            while self._stack and self._stack[-1] is not record:
                self._stack.pop().t_end = self._clock()
        if self._stack:
            self._stack.pop()
        record.t_end = self._clock()

    # ------------------------------------------------------------------
    def counter(self, name: str, value: float = 1, **attrs: Any) -> None:
        """Record a monotonically accumulating quantity (sums in summaries)."""
        self._event(name, "counter", value, attrs)

    def gauge(self, name: str, value: float, **attrs: Any) -> None:
        """Record an instantaneous level (last-value semantics)."""
        self._event(name, "gauge", value, attrs)

    def _event(self, name: str, kind: str, value: float, attrs: "dict[str, Any]") -> None:
        self._trace.events.append(
            EventRecord(
                name=name,
                kind=kind,
                value=float(value),
                t=self._clock(),
                span_id=self.current_span_id,
                attrs=plain_attrs(attrs),
            )
        )

    def finish(self) -> Trace:
        """Close any still-open spans and return the trace."""
        while self._stack:
            self._stack.pop().t_end = self._clock()
        return self._trace

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Tracer spans={len(self._trace.spans)}"
            f" events={len(self._trace.events)} depth={len(self._stack)}>"
        )


class NullTracer(Tracer):
    """Disabled tracer: records nothing, never reads the clock.

    ``span``/``counter``/``gauge`` are overridden with constant-time
    no-ops (one shared :class:`_NullSpan` serves every ``with`` block),
    so instrumented code paths cost the same as uninstrumented ones when
    tracing is off.
    """

    enabled = False

    def __init__(self) -> None:
        # a poisoned clock proves no disabled path ever reads it
        super().__init__(clock=_null_clock)

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def counter(self, name: str, value: float = 1, **attrs: Any) -> None:
        pass

    def gauge(self, name: str, value: float, **attrs: Any) -> None:
        pass

    def finish(self) -> Trace:
        return self._trace


def _null_clock() -> float:  # pragma: no cover - must never run
    raise AssertionError("NullTracer must never read the clock")


#: Shared disabled tracer; ``tracer=None`` arguments resolve to this.
NULL_TRACER = NullTracer()


def ensure_tracer(tracer: "Tracer | None") -> Tracer:
    """Map ``None`` to the shared :data:`NULL_TRACER`."""
    return tracer if tracer is not None else NULL_TRACER
