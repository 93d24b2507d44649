"""The worker pool: WIP-limited execution slots.

A :class:`Worker` is one execution slot of a
:class:`~repro.device.spec.DeviceSpec`; the :class:`WorkerPool`
bounds work-in-progress to ``min(len(workers), wip_limit)`` occupied
slots — the WIP limit is the knob that turns overload into queueing
(and then, past the bounded queue, into explicit shedding) instead of
unbounded concurrency.

Workers are *slots*, not threads: the service executes attempts
host-side at dispatch time and advances simulated time by the
attempt's modelled service seconds, so a pool of N workers is N
concurrent service intervals on the simulated clock.
"""

from __future__ import annotations

from ..device.spec import A100, DeviceSpec

__all__ = ["Worker", "WorkerPool"]


class Worker:
    """One execution slot (attempts charge the graph's or the solve's device)."""

    def __init__(self, worker_id: int, spec: DeviceSpec) -> None:
        self.id = worker_id
        self.spec = spec
        self.busy = False
        self.jobs_done = 0
        self.crashes = 0
        self.busy_s = 0.0      # total simulated seconds occupied

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "busy" if self.busy else "idle"
        return f"<Worker {self.id} {self.spec.name} {state}>"


class WorkerPool:
    """Fixed pool of workers under a work-in-progress limit."""

    def __init__(
        self,
        num_workers: int,
        *,
        spec: "DeviceSpec | None" = None,
        wip_limit: "int | None" = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        spec = spec or A100
        self.workers = [Worker(i, spec) for i in range(num_workers)]
        self.wip_limit = (
            num_workers if wip_limit is None else min(int(wip_limit), num_workers)
        )
        if self.wip_limit < 1:
            raise ValueError(f"wip_limit must be >= 1, got {wip_limit}")

    def __len__(self) -> int:
        return len(self.workers)

    @property
    def in_flight(self) -> int:
        return sum(1 for w in self.workers if w.busy)

    @property
    def has_capacity(self) -> bool:
        return self.in_flight < self.wip_limit

    def acquire(self) -> "Worker | None":
        """Claim the lowest-id idle worker (deterministic), if any."""
        if not self.has_capacity:
            return None
        for worker in self.workers:
            if not worker.busy:
                worker.busy = True
                return worker
        return None

    def release(self, worker: Worker, *, busy_s: float = 0.0) -> None:
        worker.busy = False
        worker.busy_s += float(busy_s)

    def utilization(self, makespan_s: float) -> float:
        """Mean fraction of the makespan each worker spent occupied."""
        if makespan_s <= 0:
            return 0.0
        total = sum(w.busy_s for w in self.workers)
        return total / (makespan_s * len(self.workers))

    def as_dict(self) -> "dict[str, object]":
        return {
            "num_workers": len(self.workers),
            "wip_limit": self.wip_limit,
            "workers": [
                {
                    "id": w.id,
                    "device": w.spec.name,
                    "jobs_done": w.jobs_done,
                    "crashes": w.crashes,
                    "busy_s": w.busy_s,
                }
                for w in self.workers
            ],
        }
