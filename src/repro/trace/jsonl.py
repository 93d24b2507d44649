"""JSONL export/import for traces.

One JSON object per line.  Line types (the ``type`` field):

* ``meta``  — exactly one, first line: ``{"type": "meta",
  "schema": int, "meta": {...}}``.  ``schema`` is the format version
  (:data:`~repro.trace.records.SCHEMA_VERSION`); version-1 files (PR 1)
  carried no ``schema`` field and are read as schema 1.
* ``span``  — ``{"type": "span", "id": int, "parent": int|null,
  "depth": int, "name": str, "t0": float, "t1": float|null,
  "attrs": {...}}``
* ``counter`` / ``gauge`` — ``{"type": "counter", "name": str,
  "value": float, "t": float, "span": int|null, "attrs": {...}}``
* ``launch`` — one device-ledger charge (schema >= 2):
  ``{"type": "launch", "seq": int, "kind": str, "path": [str, ...],
  "span": int|null, <nonzero counter deltas>}``
* ``sample`` — one simulated-clock time-series point (schema >= 3,
  written by ``repro.obs``): ``{"type": "sample", "series": str,
  "kind": "counter"|"gauge", "t": float, "value": float}``
* ``timeline`` — one terminal job's phase decomposition (schema >= 3):
  ``{"type": "timeline", "job": int, "tenant": str, "workload": str,
  "state": str, "submit": float, "finish": float,
  "segments": [[phase, t0, t1], ...]}``

``t1`` is ``null`` for spans left open (a crashed run); import maps that
back to NaN.  The format is append-friendly and diff-friendly: spans are
written in start order, events in emission order, launches in charge
order, samples in sampling order, timelines in job-completion order.

A span line stores no path: import sets it from the parent chain.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import IO, Any, Iterable, Union

from ..device.counters import COUNTER_FIELDS
from ..errors import IOFormatError
from .records import (
    SCHEMA_VERSION,
    EventRecord,
    LaunchRecord,
    SampleRecord,
    SpanRecord,
    TimelineRecord,
    Trace,
)

__all__ = ["dump_jsonl", "dumps_jsonl", "load_jsonl", "loads_jsonl"]

PathLike = Union[str, Path]


def _json_default(value: Any) -> Any:
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if hasattr(value, "tolist"):  # numpy array
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def _span_obj(s: SpanRecord) -> "dict[str, Any]":
    return {
        "type": "span",
        "id": s.span_id,
        "parent": s.parent_id,
        "depth": s.depth,
        "name": s.name,
        "t0": s.t_start,
        "t1": None if math.isnan(s.t_end) else s.t_end,
        "attrs": s.attrs,
    }


def _event_obj(e: EventRecord) -> "dict[str, Any]":
    return {
        "type": e.kind,
        "name": e.name,
        "value": e.value,
        "t": e.t,
        "span": e.span_id,
        "attrs": e.attrs,
    }


def _launch_obj(rec: LaunchRecord) -> "dict[str, Any]":
    obj: "dict[str, Any]" = {
        "type": "launch",
        "seq": rec.seq,
        "kind": rec.kind,
        "path": list(rec.path),
        "span": rec.span_id,
    }
    # zero deltas are omitted to keep ledger lines short
    for name in COUNTER_FIELDS:
        value = getattr(rec, name)
        if value:
            obj[name] = value
    return obj


def _sample_obj(rec: SampleRecord) -> "dict[str, Any]":
    return {
        "type": "sample",
        "series": rec.series,
        "kind": rec.kind,
        "t": rec.t,
        "value": rec.value,
    }


def _timeline_obj(rec: TimelineRecord) -> "dict[str, Any]":
    return {
        "type": "timeline",
        "job": rec.job_id,
        "tenant": rec.tenant,
        "workload": rec.workload,
        "state": rec.state,
        "submit": rec.submit_s,
        "finish": rec.finish_s,
        "segments": [[phase, t0, t1] for phase, t0, t1 in rec.segments],
    }


def _lines(trace: Trace) -> "Iterable[str]":
    # the header always carries the schema version, even with empty meta,
    # so readers (and `repro trace diff`) can reject mixed-version input
    yield json.dumps(
        {"type": "meta", "schema": SCHEMA_VERSION, "meta": trace.meta},
        default=_json_default,
    )
    for s in trace.spans:
        yield json.dumps(_span_obj(s), default=_json_default)
    for e in trace.events:
        yield json.dumps(_event_obj(e), default=_json_default)
    for rec in trace.launches:
        yield json.dumps(_launch_obj(rec), default=_json_default)
    for rec in trace.samples:
        yield json.dumps(_sample_obj(rec), default=_json_default)
    for rec in trace.timelines:
        yield json.dumps(_timeline_obj(rec), default=_json_default)


def dumps_jsonl(trace: Trace) -> str:
    """Serialize *trace* to a JSONL string."""
    return "\n".join(_lines(trace)) + "\n"


def dump_jsonl(trace: Trace, path: "PathLike | IO[str]") -> None:
    """Write *trace* to *path* (a filesystem path or open text stream)."""
    if hasattr(path, "write"):
        for line in _lines(trace):
            path.write(line + "\n")
    else:
        Path(path).write_text(dumps_jsonl(trace), encoding="utf-8")


def _text(obj: "dict[str, Any]", key: str) -> str:
    """``obj[key]``, a field the record types as ``str``."""
    value = obj[key]
    if not isinstance(value, str):
        raise ValueError(f"{key!r} must be a JSON string, got {value!r}")
    return value


def _texts(obj: "dict[str, Any]", key: str) -> "tuple[str, ...]":
    """``obj[key]`` (default empty), a list of JSON strings."""
    value = obj.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{key!r} must be a list of JSON strings, got {value!r}")
    return tuple(value)


def loads_jsonl(text: str) -> Trace:
    """Parse a JSONL string back into a :class:`Trace`.

    Files written before schema versioning (no ``schema`` field on the
    ``meta`` line, or no ``meta`` line at all) are read as schema 1.
    Malformed files (a missing field, or a field the record types as
    ``str`` that is not a JSON string), and files declaring a *newer*
    schema than this library understands, raise
    :class:`~repro.errors.IOFormatError` (a ``ValueError``) naming the
    line instead of mis-parsing.
    """
    trace = Trace(schema=1)
    span_lines: "list[int]" = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            obj = json.loads(raw)
            if not isinstance(obj, dict):
                raise ValueError("not a JSON object")
            kind = obj.get("type")
            if kind == "meta":
                trace.meta.update(obj.get("meta", {}))
                schema = int(obj.get("schema", 1))
                if schema > SCHEMA_VERSION:
                    raise ValueError(
                        f"trace schema {schema} is newer than"
                        f" the supported version {SCHEMA_VERSION}"
                    )
                trace.schema = schema
            elif kind == "span":
                trace.spans.append(
                    SpanRecord(
                        name=_text(obj, "name"),
                        span_id=int(obj["id"]),
                        parent_id=None if obj["parent"] is None else int(obj["parent"]),
                        depth=int(obj["depth"]),
                        t_start=float(obj["t0"]),
                        t_end=math.nan if obj["t1"] is None else float(obj["t1"]),
                        attrs=dict(obj.get("attrs", {})),
                    )
                )
                span_lines.append(lineno)
            elif kind in ("counter", "gauge"):
                trace.events.append(
                    EventRecord(
                        name=_text(obj, "name"),
                        kind=kind,
                        value=float(obj["value"]),
                        t=float(obj["t"]),
                        span_id=None if obj.get("span") is None else int(obj["span"]),
                        attrs=dict(obj.get("attrs", {})),
                    )
                )
            elif kind == "launch":
                trace.launches.append(
                    LaunchRecord(
                        seq=int(obj["seq"]),
                        kind=_text(obj, "kind"),
                        path=_texts(obj, "path"),
                        span_id=None if obj.get("span") is None else int(obj["span"]),
                        **{f: int(obj.get(f, 0)) for f in COUNTER_FIELDS},
                    )
                )
            elif kind == "sample":
                trace.samples.append(
                    SampleRecord(
                        series=_text(obj, "series"),
                        kind=_text(obj, "kind"),
                        t=float(obj["t"]),
                        value=float(obj["value"]),
                    )
                )
            elif kind == "timeline":
                trace.timelines.append(
                    TimelineRecord(
                        job_id=int(obj["job"]),
                        tenant=_text(obj, "tenant"),
                        workload=_text(obj, "workload"),
                        state=_text(obj, "state"),
                        submit_s=float(obj["submit"]),
                        finish_s=float(obj["finish"]),
                        segments=tuple(
                            (str(phase), float(t0), float(t1))
                            for phase, t0, t1 in obj.get("segments", ())
                        ),
                    )
                )
            else:
                raise ValueError(f"unknown record type {kind!r}")
        except KeyError as exc:
            raise IOFormatError(f"line {lineno}: {kind} line lacks {exc}") from exc
        except (ValueError, TypeError, OverflowError) as exc:
            raise IOFormatError(f"line {lineno}: {exc}") from exc
    _link_paths(trace.spans, span_lines)
    return trace


def _link_paths(spans: "list[SpanRecord]", lines: "list[int]") -> None:
    """Set each span's path from its parent chain, walking each chain once.

    A span listed before its parent still gets the full path; one whose
    parent id names no span starts a path of its own.  Parent ids that
    form a cycle raise :class:`IOFormatError` naming the span's line.
    """
    by_id = {s.span_id: s for s in spans}
    for span, lineno in zip(spans, lines):
        chain, walked = [span], {span.span_id}
        parent = by_id.get(span.parent_id)
        while parent is not None and not parent.path:  # not linked yet
            if parent.span_id in walked:
                raise IOFormatError(
                    f"line {lineno}: the parent ids of span {span.span_id}"
                    f" form a cycle through span {parent.span_id}"
                )
            walked.add(parent.span_id)
            chain.append(parent)
            parent = by_id.get(parent.parent_id)
        path = () if parent is None else parent.path
        for rec in reversed(chain):
            path = rec.path = path + (rec.name,)


def load_jsonl(path: "PathLike | IO[str]") -> Trace:
    """Read a trace from *path* (a filesystem path or open text stream)."""
    if hasattr(path, "read"):
        return loads_jsonl(path.read())
    return loads_jsonl(Path(path).read_text(encoding="utf-8"))
