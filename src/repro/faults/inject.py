"""The :class:`FaultInjector`: seeded fault decisions at well-defined seams.

One injector instance accompanies one algorithm run.  The drivers call
its hooks at the injection seams — the ECL-SCC outer loop around Phase-2
propagation (engine faults), the label harvest (bit-flips), and the
``VirtualCluster`` exchange superstep (message faults, rank crashes).
Every injected fault is

* drawn from the plan's seeded RNG (deterministic, no wall clock),
* recorded as a :class:`FaultEvent` on the run's :class:`FaultReport`,
* emitted as a ``fault:*`` trace counter when a tracer is attached, and
* charged to the cost model (extra propagation rounds, re-sent
  messages, retry supersteps are all real counter/cluster updates; see
  ``docs/robustness.md`` §3 for the charging rules).

Recovery actions (checkpoint saves/restores, retries, self-healing
passes, failover) are recorded symmetrically as ``recovery:*`` events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..results import Status
from ..trace import NULL_TRACER, Tracer
from .plan import FaultPlan

__all__ = ["FaultEvent", "FaultReport", "FaultInjector", "ExchangePerturbation"]

#: stored-event cap; beyond it only the counts keep accumulating.
MAX_RECORDED_EVENTS = 256


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault or recovery action."""

    kind: str            # e.g. "stale-read", "recovery:restore"
    site: str            # e.g. "engine:phase2", "cluster:exchange"
    step: int            # outer iteration / superstep index
    detail: "dict[str, object]" = field(default_factory=dict)

    def as_dict(self) -> "dict[str, object]":
        return {
            "kind": self.kind,
            "site": self.site,
            "step": self.step,
            "detail": dict(self.detail),
        }


@dataclass
class FaultReport:
    """What one faulted run observed and how it recovered.

    Attached to results as ``result.fault_report``; ``result.status``
    summarizes it (``"clean"`` / ``"recovered"`` / ``"degraded"``).
    """

    plan: FaultPlan
    events: "list[FaultEvent]" = field(default_factory=list)
    counts: "dict[str, int]" = field(default_factory=dict)
    events_dropped: int = 0
    checkpoints_saved: int = 0
    restores: int = 0
    retries: int = 0
    healed_vertices: int = 0
    heal_passes: int = 0
    failovers: int = 0

    @property
    def faults_injected(self) -> int:
        """Total injected faults (recovery actions not counted)."""
        return sum(
            v for k, v in self.counts.items() if not k.startswith("recovery:")
        )

    @property
    def recoveries(self) -> int:
        return self.restores + self.retries + self.heal_passes + self.failovers

    def as_dict(self) -> "dict[str, object]":
        return {
            "plan": self.plan.to_dict(),
            "counts": dict(self.counts),
            "faults_injected": self.faults_injected,
            "checkpoints_saved": self.checkpoints_saved,
            "restores": self.restores,
            "retries": self.retries,
            "heal_passes": self.heal_passes,
            "healed_vertices": self.healed_vertices,
            "failovers": self.failovers,
            "events": [e.as_dict() for e in self.events],
            "events_dropped": self.events_dropped,
        }


@dataclass(frozen=True)
class ExchangePerturbation:
    """Outcome of the exchange-superstep fault hook.

    ``regress`` lists vertices whose just-published signature update was
    dropped or delayed (the caller reverts them to their pre-round
    values; monotone max-propagation recomputes them in a later round).
    ``extra_messages`` counts duplicated plus re-sent messages to charge
    on top of the round's real traffic.
    """

    regress: np.ndarray
    extra_messages: int
    injected: bool


_NO_PERTURBATION = ExchangePerturbation(
    regress=np.empty(0, dtype=np.int64), extra_messages=0, injected=False
)


class FaultInjector:
    """Seeded runtime fault decisions for one run (engine or cluster)."""

    def __init__(self, plan: FaultPlan, *, tracer: "Tracer | None" = None) -> None:
        self.plan = plan
        self.rng = plan.rng()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.report = FaultReport(plan=plan)
        self._engine_budget = plan.max_engine_faults
        self._cluster_budget = plan.max_cluster_faults
        self._crash_pending = plan.crash_iteration is not None
        self._rank_crash_pending = plan.rank_crash_superstep is not None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _record(self, kind: str, site: str, step: int, **detail) -> None:
        self.report.counts[kind] = self.report.counts.get(kind, 0) + 1
        if len(self.report.events) < MAX_RECORDED_EVENTS:
            self.report.events.append(
                FaultEvent(kind=kind, site=site, step=step, detail=detail)
            )
        else:
            self.report.events_dropped += 1
        if self.tracer.enabled:
            self.tracer.counter(
                kind if kind.startswith("recovery:") else f"fault:{kind}",
                site=site,
                step=step,
                **{k: v for k, v in detail.items() if np.isscalar(v)},
            )

    # ------------------------------------------------------------------
    # engine seams (ECL-SCC outer loop)
    # ------------------------------------------------------------------
    def perturb_propagation(self, sigs, iteration: int) -> bool:
        """Maybe regress sampled signatures to the phase-start snapshot.

        Called after Phase 2 reaches a fixed point; returns True when a
        stale-read / lost-update fault fired, in which case the driver
        re-runs propagation (the extra rounds are charged by the engine
        as usual).  Regression to the Phase-1 identity snapshot is the
        *strongest* staleness — any real race leaves a signature at some
        intermediate monotone value, so invariance under this model
        implies invariance under every milder interleaving.
        """
        injected = False
        for kind, rate in (
            ("stale-read", self.plan.stale_read_rate),
            ("lost-update", self.plan.lost_update_rate),
        ):
            if rate <= 0 or self._engine_budget <= 0:
                continue
            if self.rng.random() >= rate:
                continue
            hit = self._regress_signatures(sigs)
            if hit == 0:
                continue
            self._engine_budget -= 1
            injected = True
            self._record(kind, "engine:phase2", iteration, vertices=hit)
        return injected

    def _regress_signatures(self, sigs) -> int:
        """Revert a sampled vertex set to ``sig == identity``; returns hits."""
        n = sigs.sig_in.size
        ident = np.arange(n, dtype=sigs.sig_in.dtype)
        moved = np.flatnonzero((sigs.sig_in != ident) | (sigs.sig_out != ident))
        if moved.size == 0:
            return 0
        k = max(1, int(round(self.plan.victim_fraction * moved.size)))
        victims = self.rng.choice(moved, size=min(k, moved.size), replace=False)
        sigs.sig_in[victims] = victims.astype(sigs.sig_in.dtype)
        sigs.sig_out[victims] = victims.astype(sigs.sig_out.dtype)
        return int(victims.size)

    def crash_due(self, iteration: int) -> bool:
        """True exactly once, at the plan's engine crash iteration."""
        if self._crash_pending and iteration == self.plan.crash_iteration:
            self._crash_pending = False
            self._record("crash", "engine:outer-loop", iteration)
            return True
        return False

    def flip_label_bits(self, labels: np.ndarray, num_vertices: int) -> np.ndarray:
        """Inject ``plan.bitflips`` single-bit corruptions into *labels*.

        Returns the (possibly repeated) flipped vertex indices.  Flips
        stay within the ID bit-width so corrupted labels are plausible
        vertex IDs — the hard case for the verification guard — but may
        also land out of range, the easy case.
        """
        flips = min(self.plan.bitflips, num_vertices and self.plan.bitflips)
        if flips <= 0 or num_vertices <= 1:
            return np.empty(0, dtype=np.int64)
        bits = max(1, int(num_vertices - 1).bit_length())
        idx = self.rng.integers(0, num_vertices, size=flips)
        for v in idx:
            bit = int(self.rng.integers(0, bits))
            labels[v] ^= np.asarray(1 << bit, dtype=labels.dtype)
            self._record(
                "bit-flip", "engine:labels", -1,
                vertex=int(v), bit=bit, value=int(labels[v]),
            )
        return idx

    # ------------------------------------------------------------------
    # recovery recording (called by the drivers / recovery machinery)
    # ------------------------------------------------------------------
    def record_checkpoint(self, iteration: int, nbytes: int) -> None:
        self.report.checkpoints_saved += 1
        self._record(
            "recovery:checkpoint", "engine:outer-loop", iteration, bytes=nbytes
        )

    def record_restore(self, iteration: int, restored_to: int) -> None:
        self.report.restores += 1
        self._record(
            "recovery:restore", "engine:outer-loop", iteration,
            restored_to=restored_to,
        )

    def record_heal(self, offenders: int, healed: int) -> None:
        self.report.heal_passes += 1
        self.report.healed_vertices += healed
        self._record(
            "recovery:self-heal", "engine:labels", -1,
            offenders=offenders, healed=healed,
        )

    def record_retry(self, superstep: int, rank: int, attempt: int,
                     backoff_s: float) -> None:
        self.report.retries += 1
        self._record(
            "recovery:retry", "cluster:superstep", superstep,
            rank=rank, attempt=attempt, backoff_s=backoff_s,
        )

    def record_failover(self, superstep: int, rank: int) -> None:
        self.report.failovers += 1
        self._record(
            "recovery:failover", "cluster:superstep", superstep, rank=rank
        )

    # ------------------------------------------------------------------
    # cluster seams (VirtualCluster supersteps)
    # ------------------------------------------------------------------
    def perturb_exchange(
        self, superstep: int, updated: np.ndarray
    ) -> ExchangePerturbation:
        """Maybe drop/duplicate/delay this exchange's boundary messages.

        *updated* is the vertex set whose signatures changed this round
        (the messages in flight).  Dropped and delayed updates are
        regressed by the caller and recomputed in a later BSP round —
        monotone, so labels are unchanged; drops additionally charge one
        re-send message per victim (the sender's timeout path).
        """
        if updated.size == 0 or self._cluster_budget <= 0:
            return _NO_PERTURBATION
        regress: "list[np.ndarray]" = []
        extra = 0
        injected = False
        for kind, rate in (
            ("message-drop", self.plan.message_drop_rate),
            ("message-delay", self.plan.message_delay_rate),
            ("message-dup", self.plan.message_dup_rate),
        ):
            if rate <= 0 or self._cluster_budget <= 0:
                continue
            if self.rng.random() >= rate:
                continue
            k = max(1, int(round(self.plan.victim_fraction * updated.size)))
            victims = self.rng.choice(
                updated, size=min(k, updated.size), replace=False
            )
            self._cluster_budget -= 1
            injected = True
            if kind == "message-dup":
                extra += int(victims.size)          # duplicated sends
            else:
                regress.append(victims)
                if kind == "message-drop":
                    extra += int(victims.size)      # timeout re-sends
            self._record(
                kind, "cluster:exchange", superstep, messages=int(victims.size)
            )
        if not injected:
            return _NO_PERTURBATION
        merged = (
            np.unique(np.concatenate(regress))
            if regress
            else np.empty(0, dtype=np.int64)
        )
        return ExchangePerturbation(
            regress=merged, extra_messages=extra, injected=True
        )

    def rank_crash_due(self, superstep: int) -> bool:
        """True exactly once, at the first check at-or-after the plan's
        rank-crash superstep (crashes are only observable at exchanges)."""
        if (
            self._rank_crash_pending
            and superstep >= self.plan.rank_crash_superstep
        ):
            self._rank_crash_pending = False
            self._record(
                "rank-crash", "cluster:superstep", superstep,
                rank=self.plan.rank_crash_rank,
            )
            return True
        return False

    # ------------------------------------------------------------------
    def status(self) -> Status:
        """Run status implied by the record so far (driver may override)."""
        if self.report.failovers:
            return Status.DEGRADED
        if self.report.faults_injected:
            return Status.RECOVERED
        return Status.CLEAN
