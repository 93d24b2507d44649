"""Per-workload circuit breakers: incidents become degraded operation.

A crashing workload (one ``graph:kind`` pair under a fault plan) would
otherwise occupy workers with doomed attempts and their retries,
starving healthy workloads and inflating everyone's tail latency.  The
:class:`CircuitBreaker` is the standard three-state remedy:

* **CLOSED** — normal operation; consecutive failures are counted,
  and hitting ``failure_threshold`` opens the breaker.
* **OPEN** — jobs for the workload are fast-failed at admission
  (terminal state ``SHED``, reason ``"breaker-open"``) without
  touching a worker; after ``cooldown_s`` of simulated time the next
  arrival is allowed through as a probe.
* **HALF_OPEN** — exactly one probe job is in flight; its success
  closes the breaker, its failure re-opens it for another cooldown.

Every transition is appended to the owning service's change log as
``("breaker", workload)`` and listed in :meth:`CircuitBreaker.as_dict`
for the service report.  :meth:`~CircuitBreaker.record_failure` and
:meth:`~CircuitBreaker.record_success` name the transition they made by
its service counter, which the service increments.
"""

from __future__ import annotations

import enum

__all__ = ["BreakerState", "CircuitBreaker"]


class BreakerState(str, enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __str__(self) -> str:
        return self.value


class CircuitBreaker:
    """One workload's failure-isolation state machine (simulated time)."""

    def __init__(
        self,
        workload: str,
        *,
        failure_threshold: int = 3,
        cooldown_s: float = 0.005,
        log: "list | None" = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")
        self.workload = workload
        self.failure_threshold = int(failure_threshold)
        self.cooldown_s = float(cooldown_s)
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.open_until = 0.0
        self.probe_in_flight = False
        self.opened = 0            # lifetime transition tallies
        self.reopened = 0
        self.closed_after_probe = 0
        self.transitions: "list[dict]" = []
        #: the owning service's change log (a private list when standalone)
        self.log: list = [] if log is None else log

    # ------------------------------------------------------------------
    def _transition(self, now: float, state: BreakerState) -> None:
        self.state = state
        self.transitions.append({"t": float(now), "state": str(state)})
        self.log.append(("breaker", self.workload))

    def allow(self, now: float) -> bool:
        """May a job for this workload proceed at *now*?

        OPEN past its cooldown admits exactly one probe (moving to
        HALF_OPEN); a second job while the probe is in flight is
        refused.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now < self.open_until:
                return False
            self._transition(now, BreakerState.HALF_OPEN)
            self.probe_in_flight = True
            return True
        # HALF_OPEN: one probe at a time
        if self.probe_in_flight:
            return False
        self.probe_in_flight = True
        return True

    def record_success(self, now: float) -> "str | None":
        """Record one successful attempt; returns ``"breaker_closed"``
        when this closes the breaker, else None."""
        self.consecutive_failures = 0
        if self.state is BreakerState.CLOSED:
            return None
        self.probe_in_flight = False
        self.closed_after_probe += 1
        self._transition(now, BreakerState.CLOSED)
        return "breaker_closed"

    def record_failure(self, now: float) -> "str | None":
        """Record one failed attempt; returns ``"breaker_opened"`` or
        ``"breaker_reopened"`` when this opens or re-opens the breaker,
        else None."""
        if self.state is BreakerState.HALF_OPEN:
            # the probe failed: straight back to OPEN for a new cooldown
            self.probe_in_flight = False
            self.open_until = now + self.cooldown_s
            self.reopened += 1
            self._transition(now, BreakerState.OPEN)
            return "breaker_reopened"
        self.consecutive_failures += 1
        if (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self.open_until = now + self.cooldown_s
            self.opened += 1
            self._transition(now, BreakerState.OPEN)
            return "breaker_opened"
        return None

    # ------------------------------------------------------------------
    def as_dict(self) -> "dict[str, object]":
        return {
            "workload": self.workload,
            "state": str(self.state),
            "consecutive_failures": self.consecutive_failures,
            "opened": self.opened,
            "reopened": self.reopened,
            "closed_after_probe": self.closed_after_probe,
            "transitions": list(self.transitions),
        }
