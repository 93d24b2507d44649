"""Chrome-trace / Perfetto export of a serve run.

:func:`export_perfetto` renders one finished
:class:`~repro.serve.service.ServiceReport` (plus, optionally, an
:class:`~repro.obs.recorder.ObsRecorder`'s time series) into a single
Chrome Trace Event JSON object that Perfetto (https://ui.perfetto.dev)
and ``chrome://tracing`` load directly:

* **worker tracks** (pid 1, one tid per worker slot) — one complete
  ``"X"`` slice per execution attempt, crashed attempts flagged in
  ``args``; for DONE solve jobs the attempt's data-plane trace is
  nested *inside* the slice: every tracer span becomes a child slice,
  linearly rescaled from the tracer clock into the attempt's simulated
  window, with the span's aggregated :class:`LaunchRecord` counter
  deltas in ``args`` — job id correlated down to individual kernel
  charges.
* **queue lanes** (pid 2, one tid per graph) — an async ``"b"``/``"e"``
  pair per queue residency, id-keyed by job.
* **job lanes** (pid 3, one tid per job) — the job's phase timeline
  (admission/queued/execute/backoff/...) as async pairs; each event's
  ``args`` carries the *exact* simulated-second endpoints (``t0``,
  ``t1``) because the µs-integer ``ts`` field cannot be bit-exact.
* **counter tracks** (pid 0) — ``"C"`` events from the recorder's
  simulated-clock series (queue depth, WIP, cache hit rate, ...).

All ``ts``/``dur`` are simulated microseconds (Chrome's native unit).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..device.counters import COUNTER_FIELDS
from .timeline import job_timeline

__all__ = ["export_perfetto", "dump_perfetto"]

_US = 1e6

_PID_COUNTERS = 0
_PID_WORKERS = 1
_PID_QUEUES = 2
_PID_JOBS = 3


def _meta(pid: int, name: str, tid: "int | None" = None,
          tname: "str | None" = None) -> "list[dict]":
    events = [{
        "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
        "args": {"name": name},
    }]
    if tid is not None:
        events.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": tname or str(tid)},
        })
    return events


def _attempt_slices(art: "dict[str, Any]") -> "list[dict]":
    """Worker ``X`` slices for one job's executed attempts."""
    events: "list[dict]" = []
    for detail in art["attempts_detail"]:
        t0 = detail.get("t_dispatch")
        if t0 is None:
            continue  # cache hits / coalesced completions never ran
        busy_s = detail["service_s"] + detail.get("delay_s", 0.0)
        events.append({
            "ph": "X",
            "name": f"job {art['id']} {art['kind']} a{detail['attempt']}",
            "cat": "attempt",
            "pid": _PID_WORKERS,
            "tid": detail["worker"],
            "ts": t0 * _US,
            "dur": busy_s * _US,
            "args": {
                "job": art["id"],
                "tenant": art["tenant"],
                "workload": art["workload"],
                "attempt": detail["attempt"],
                "crashed": bool(detail.get("crashed")),
                "t0": t0,
                "t1": t0 + busy_s,
                "charges": detail.get("charges", {}),
            },
        })
    return events


def _span_slices(job: Any) -> "list[dict]":
    """Data-plane spans of a DONE solve job, nested in its last attempt.

    The tracer runs on its own clock; spans are linearly rescaled into
    the attempt's simulated ``[t_dispatch, t_dispatch + service_s]``
    window so nesting and proportions survive, with each span's
    aggregated launch-ledger deltas attached.
    """
    result = getattr(job, "result", None)
    trace = getattr(result, "trace", None)
    if trace is None or not trace.spans:
        return []
    executed = [d for d in job.attempts_detail if "t_dispatch" in d
                and not d.get("crashed")]
    if not executed:
        return []
    detail = executed[-1]
    win0 = detail["t_dispatch"]
    win_s = detail["service_s"]
    closed = [s for s in trace.spans if s.closed]
    if not closed:
        return []
    lo = min(s.t_start for s in closed)
    hi = max(s.t_end for s in closed)
    scale = (win_s / (hi - lo)) if hi > lo else 0.0

    charges: "dict[int, dict[str, int]]" = {}
    for rec in trace.launches:
        if rec.span_id is None:
            continue
        agg = charges.setdefault(rec.span_id, {})
        for name in COUNTER_FIELDS:
            value = getattr(rec, name)
            if value:
                agg[name] = agg.get(name, 0) + value

    events: "list[dict]" = []
    for span in closed:
        t0 = win0 + (span.t_start - lo) * scale
        dur = span.duration * scale
        args: "dict[str, Any]" = {"job": job.id, "depth": span.depth}
        if span.span_id in charges:
            args["launches"] = charges[span.span_id]
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": "span",
            "pid": _PID_WORKERS,
            "tid": detail["worker"],
            "ts": t0 * _US,
            "dur": dur * _US,
            "args": args,
        })
    return events


def export_perfetto(report: Any, *, recorder: Any = None) -> "dict[str, Any]":
    """Render a serve run as a Chrome Trace Event JSON object.

    *report* is a :class:`~repro.serve.service.ServiceReport`;
    *recorder* (optional) an :class:`~repro.obs.recorder.ObsRecorder`
    whose time series become counter tracks.
    """
    events: "list[dict]" = []
    events += _meta(_PID_COUNTERS, "service counters")
    events += _meta(_PID_QUEUES, "graph queues")
    events += _meta(_PID_JOBS, "job phases")

    workers = (report.workers or {}).get("workers", [])
    events += _meta(_PID_WORKERS, "workers")
    for w in workers:
        events += _meta(_PID_WORKERS, "workers", tid=w["id"],
                        tname=f"worker {w['id']}")

    graph_tids: "dict[str, int]" = {}
    for job in report.jobs:
        art = job.artifact()
        events += _attempt_slices(art)
        events += _span_slices(job)

        graph = art["graph"]
        if graph not in graph_tids:
            graph_tids[graph] = len(graph_tids)
            events += _meta(_PID_QUEUES, "graph queues",
                            tid=graph_tids[graph], tname=f"queue {graph}")

        if job.terminal:
            events += _meta(_PID_JOBS, "job phases", tid=art["id"],
                            tname=f"job {art['id']} ({art['workload']})")
            for phase, t0, t1 in job_timeline(job).segments:
                common = {
                    "cat": "job-phase",
                    "id": str(art["id"]),
                    "pid": _PID_JOBS,
                    "tid": art["id"],
                }
                events.append({
                    "ph": "b", "name": phase, "ts": t0 * _US,
                    "args": {"t0": t0, "t1": t1, "state": art["state"]},
                    **common,
                })
                events.append({
                    "ph": "e", "name": phase, "ts": t1 * _US,
                    "args": {}, **common,
                })
                if phase == "queued":
                    qcommon = {
                        "cat": "queue",
                        "id": str(art["id"]),
                        "pid": _PID_QUEUES,
                        "tid": graph_tids[graph],
                    }
                    events.append({
                        "ph": "b", "name": f"job {art['id']}",
                        "ts": t0 * _US,
                        "args": {"t0": t0, "t1": t1}, **qcommon,
                    })
                    events.append({
                        "ph": "e", "name": f"job {art['id']}",
                        "ts": t1 * _US, "args": {}, **qcommon,
                    })

    if recorder is not None:
        for s in recorder.registry.samples:
            events.append({
                "ph": "C",
                "name": s.series,
                "pid": _PID_COUNTERS,
                "tid": 0,
                "ts": s.t * _US,
                "args": {"value": s.value},
            })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs",
            "makespan_s": report.makespan_s,
            "jobs": len(report.jobs),
        },
    }


def dump_perfetto(report: Any, path: "str | Path", *,
                  recorder: Any = None) -> "dict[str, Any]":
    """Write the Chrome-trace JSON to *path*; returns the object."""
    obj = export_perfetto(report, recorder=recorder)
    Path(path).write_text(json.dumps(obj), encoding="utf-8")
    return obj
