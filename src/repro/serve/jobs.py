"""Job records: the unit of work the service schedules.

A :class:`JobSpec` is what a tenant submits — *which* named graph,
*what* operation (cold solve / incremental update / label query), and
under what deadline.  The service wraps it in a :class:`Job`, the
mutable record that accumulates every control-plane decision made about
it (admission, dispatch, crash, retry, shed, breaker) as a timestamped
decision history, and ends in **exactly one terminal state**:

==============  =====================================================
state           meaning
==============  =====================================================
``DONE``        executed successfully; ``job.result`` holds the output
``REJECTED``    refused at admission (tenant over budget);
                ``job.error`` holds the :class:`~repro.serve.budget.
                BudgetExceeded` payload
``SHED``        load-shed: the run queue was full (backpressure) or
                the workload's circuit breaker was open (fast-fail)
``DEAD_LETTER`` accepted but never completed: retries exhausted or the
                per-job deadline expired
==============  =====================================================

The decision history plus the per-attempt trace/profile artifact
(:meth:`Job.artifact`) is the replayable record — `docs/serve.md` §5.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

__all__ = ["JobKind", "JobState", "JobSpec", "Job", "TERMINAL_STATES"]


class JobKind(str, enum.Enum):
    """What a job asks the data plane to do."""

    SOLVE = "solve"      # cold repro.solve on the graph's current snapshot
    UPDATE = "update"    # batched edge insertions/deletions on the handle
    QUERY = "query"      # incremental label read (DynamicGraph.query)

    def __str__(self) -> str:
        return self.value


class JobState(str, enum.Enum):
    """Job lifecycle; the last four are terminal (exactly one is reached)."""

    PENDING = "pending"
    QUEUED = "queued"
    RUNNING = "running"
    RETRY_WAIT = "retry-wait"
    DONE = "done"
    REJECTED = "rejected"
    SHED = "shed"
    DEAD_LETTER = "dead-letter"

    def __str__(self) -> str:
        return self.value

    @property
    def terminal(self) -> bool:
        return self in TERMINAL_STATES


TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.REJECTED, JobState.SHED, JobState.DEAD_LETTER}
)


@dataclass(frozen=True)
class JobSpec:
    """What a tenant submits (immutable).

    ``insert_edges`` / ``delete_edges`` are ``(src, dst)`` sequence
    pairs for ``UPDATE`` jobs; ``deadline_s`` is relative to submit
    time (None = no deadline).
    """

    tenant: str
    kind: JobKind
    graph: str
    insert_edges: "tuple | None" = None
    delete_edges: "tuple | None" = None
    deadline_s: "float | None" = None

    @property
    def workload(self) -> str:
        """Breaker key: one breaker per (graph, kind) workload."""
        return f"{self.graph}:{self.kind}"


@dataclass
class Job:
    """One submitted job: spec + every decision the control plane made."""

    id: int
    spec: JobSpec
    submit_s: float
    state: JobState = JobState.PENDING
    attempts: int = 0
    #: simulated time of the last successful queue admission (stamped
    #: by :meth:`BoundedQueue.offer`); shed records derive their
    #: queue-wait time from it
    queued_at: "float | None" = None
    finish_s: "float | None" = None
    #: why the job ended where it did ("backpressure", "breaker-open",
    #: "retries-exhausted", "deadline", ...)
    reason: "str | None" = None
    #: BudgetExceeded payload for REJECTED jobs
    error: "dict | None" = None
    #: DONE payload: AlgoResult (solve/query) or UpdateReport (update)
    result: Any = None
    #: per-attempt trace/profile artifacts (solve jobs)
    attempts_detail: "list[dict]" = field(default_factory=list)
    decisions: "list[dict]" = field(default_factory=list)

    def record(self, now: float, decision: str, **detail: Any) -> None:
        """Append one timestamped control-plane decision."""
        self.decisions.append({"t": float(now), "decision": decision, **detail})

    def finish(self, now: float, state: JobState, reason: "str | None" = None) -> None:
        if self.state in TERMINAL_STATES:
            raise RuntimeError(
                f"job {self.id} already terminal ({self.state}); cannot"
                f" move to {state}"
            )
        self.state = state
        self.finish_s = float(now)
        self.reason = reason
        self.record(now, str(state), reason=reason)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def latency_s(self) -> "float | None":
        """Submit-to-terminal latency (None while in flight)."""
        if self.finish_s is None:
            return None
        return self.finish_s - self.submit_s

    @property
    def deadline(self) -> "float | None":
        """Absolute deadline in simulated seconds (None = no deadline)."""
        rel = self.spec.deadline_s
        return None if rel is None else self.submit_s + rel

    # ------------------------------------------------------------------
    def artifact(self) -> "dict[str, Any]":
        """The replayable per-job record (JSON-safe).

        Everything needed to audit the job after the fact: the spec,
        the full decision history, per-attempt execution details
        (service seconds, crash/delay draws, trace/profile summaries
        for solve attempts), and the terminal state.
        """
        return {
            "id": self.id,
            "tenant": self.spec.tenant,
            "kind": str(self.spec.kind),
            "graph": self.spec.graph,
            "workload": self.spec.workload,
            "submit_s": self.submit_s,
            "finish_s": self.finish_s,
            "latency_s": self.latency_s,
            "state": str(self.state),
            "reason": self.reason,
            "error": self.error,
            "attempts": self.attempts,
            "attempts_detail": list(self.attempts_detail),
            "decisions": list(self.decisions),
        }
