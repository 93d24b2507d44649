"""Per-job lifecycle timelines: decompose latency into phase segments.

Every :class:`~repro.serve.jobs.Job` already carries its full decision
history (``job.decisions``: timestamped control-plane decisions from
submit to terminal).  :func:`job_timeline` folds that history into a
:class:`~repro.trace.TimelineRecord` — the record a trace's JSONL
``timeline`` line stores — whose ``(phase, t0, t1)`` segments are
ordered, non-overlapping and **contiguous**:

    SUBMIT → admission → queued → execute → (backoff → admission →
    queued → execute)* → finalize → TERMINAL

Exactness is structural, not arithmetic: consecutive segments *share*
their breakpoint floats (``segments[i][2] is segments[i+1][1]``
bit-for-bit), the first segment starts at ``submit_s`` and the last
ends at ``finish_s``.  So the decomposition "sums" to the end-to-end
latency exactly — there is no telescoping float error to accumulate,
because nothing is summed to verify it: the endpoints are the latency.
"""

from __future__ import annotations

from typing import Any

from ..trace.records import TimelineRecord

__all__ = ["PHASE_OF_DECISION", "job_timeline"]

#: Phase the job is in *after* each control-plane decision.  Terminal
#: decisions (``done``/``rejected``/``shed``/``dead-letter`` written by
#: ``Job.finish``) end the timeline and contribute no segment.
PHASE_OF_DECISION = {
    "submit": "admission",            # arrival -> admission verdict
    "reject-budget": "finalize",
    "admit": "queued",
    "retry": "admission",             # re-entering admission after backoff
    "dispatch": "execute",
    "crash": "crashed",               # zero-width marker before backoff
    "retry-scheduled": "backoff",
    "cache_hit": "finalize",
    "coalesce_attach": "coalesced",   # riding on a leader's execution
    "coalesce_merge": "finalize",
    "coalesce_requeue": "queued",
    "complete": "finalize",
    "shed": "finalize",
    "dead-letter": "finalize",
    "done": "finalize",
    "rejected": "finalize",
}


def job_timeline(job: Any) -> TimelineRecord:
    """Fold a terminal :class:`~repro.serve.jobs.Job`'s decisions into a timeline.

    Raises ``ValueError`` for a job still in flight, for a decision name
    this module does not know (an unknown decision means the service grew
    a phase the timeline would silently lose), for a decision earlier than
    the one before it, and for segments that leave a gap or do not run
    from ``submit_s`` to ``finish_s``.
    """
    finish_s = job.finish_s
    if finish_s is None:
        raise ValueError(f"job {job.id} is not terminal yet")
    decisions = job.decisions
    if not decisions:
        raise ValueError(f"job {job.id} has no decision history")
    submit_s = job.submit_s

    # decision i opens the phase that lasts until decision i+1 (the
    # final, terminal decision closes the timeline); adjacent decisions
    # of one phase merge into one segment, breakpoints shared
    merged: "list[tuple[str, float, float]]" = []
    for cur, nxt in zip(decisions, decisions[1:]):
        phase = PHASE_OF_DECISION.get(cur["decision"])
        if phase is None:
            raise ValueError(f"job {job.id}: unknown decision {cur['decision']!r} at t={cur['t']}")
        t0, t1 = cur["t"], nxt["t"]
        if t1 < t0:
            raise ValueError(f"job {job.id}: decision {nxt['decision']!r} at t={t1} runs backwards")
        if merged and merged[-1][0] == phase:
            merged[-1] = (phase, merged[-1][1], t1)
        else:
            merged.append((phase, t0, t1))
    if not merged:
        # single-decision history cannot happen (finish always follows
        # at least a submit), but guard with a zero-width admission span
        merged.append(("admission", submit_s, finish_s))

    # drop zero-width segments (removal keeps contiguity because their
    # endpoints are the same float); a zero-latency job keeps its first
    segments = [seg for seg in merged if seg[2] != seg[1]] or merged[:1]
    if segments[0][1] != submit_s or segments[-1][2] != finish_s:
        raise ValueError(
            f"job {job.id}: timeline runs {segments[0][1]} -> {segments[-1][2]},"
            f" not submit_s={submit_s} -> finish_s={finish_s}"
        )
    for a, b in zip(segments, segments[1:]):
        if a[2] != b[1]:
            raise ValueError(f"job {job.id}: gap between {a[0]}@{a[2]} and {b[0]}@{b[1]}")

    return TimelineRecord(
        job_id=job.id,
        tenant=job.spec.tenant,
        workload=job.spec.workload,
        state=str(job.state),
        submit_s=submit_s,
        finish_s=finish_s,
        segments=tuple(segments),
    )
