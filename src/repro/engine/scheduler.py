"""Adaptive per-round selection of the Phase-2 round shape.

The :class:`AdaptiveScheduler` closes the loop the profiling layer
(:mod:`repro.profile`) opened: the same cost-model arithmetic that
attributes seconds to finished launches is used *prospectively* to pick
the next round's shape, ``"dense"`` or ``"frontier"``
(:func:`~repro.core.propagation.dense_round` or
:func:`~repro.core.propagation.frontier_round`).  Each round it

1. pays for a density scan (one incidence-degree gather over the
   frontier, :func:`~repro.engine.accounting.charge_scheduler_scan` — the
   decision itself is device-accounted work, not free), unless the run
   has become launch-overhead-bound, in which case the scan is skipped
   and the frontier shape is locked in (``scheduler:lock``);
2. forecasts each shape's round seconds from the frontier size, the
   incidence-degree sum, and the worklist size
   (:func:`dense_round_cost`, :func:`frontier_round_cost`);
3. picks the cheaper shape (ties break toward dense), records a
   :class:`PolicyDecision`, and emits a ``scheduler:pick`` counter
   event.

Determinism: every input of a decision is *backend- and
tracer-invariant*.  The running launch/bandwidth tallies are fed by
:meth:`note_launches` (per-launch latency and explicit drain blocks —
never the backend-swept compaction traffic) and :meth:`account_round`
(counter deltas captured around the round function only, whose charges
contain no backend-swept component), and the scan charge itself bypasses
the backend sweep.  Decisions therefore replay bit-identically across
the ``dense``/``frontier`` backends and traced/untraced runs —
golden-tested in ``tests/test_policy_scheduler.py``.

Fault tolerance: recovery re-propagation after a restore always forces
the frontier shape without scanning or updating the tallies (the
recovery frontier is the regressed-signature set, for which the frontier
round is the only sound shape at that cost), and the decision is
flagged ``recovery=True`` so golden comparisons can exclude it; the
scheduler's tallies and decision log are checkpointed
(:meth:`state_snapshot` / :meth:`restore_state`) so a crash-restore
replays the exact decision sequence a fault-free run makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ..device.costmodel import (
    BLOCK_DISPATCH_NS,
    STREAM_EFF,
    cost_terms,
    effective_bandwidth,
    working_set_of_graph,
)
from ..device.spec import DeviceSpec
from ..trace import NULL_TRACER, Tracer
from .accounting import (
    ADJACENCY_EDGE_BYTES,
    PAIR_FLAG_BYTES,
    SIGNATURE_PAIR_BYTES,
    STATUS_FLAG_BYTES,
    charge_scheduler_scan,
)

__all__ = [
    "AdaptiveScheduler",
    "PolicyDecision",
    "RoundStats",
    "dense_round_cost",
    "frontier_round_cost",
    "DENSITY_THRESHOLD",
    "LAUNCH_BOUND_RATIO",
]

#: frontier-degree-mass / worklist-size ratio below which the frontier
#: round's forecast beats the dense sweep's on the shipped byte
#: conventions (the closed form is derived in
#: ``docs/performance_model.md``: dense moves ~101.3 m/B seconds,
#: frontier ~133.3 D/B, so frontier wins while D/m < 101.3/133.3).  The
#: scheduler itself compares the full forecasts rather than this ratio;
#: the constant is exported for the distributed per-rank selection and
#: for documentation/tests.
DENSITY_THRESHOLD = 0.76

#: once launch latency accounts for this fraction of the run's modelled
#: propagation seconds, the run is launch-overhead-bound: round shape no
#: longer moves the total, so the scheduler stops paying for density
#: scans and locks the frontier shape (smallest traffic, and the drain
#: structure already amortizes its launches).
LAUNCH_BOUND_RATIO = 0.5


@dataclass(frozen=True)
class RoundStats:
    """Backend-invariant inputs of one scheduling decision.

    ``degree_sum`` is the incidence-degree sum over the frontier (out-
    plus in-degree, a self-loop counted twice); it counts an edge under
    both endpoints, so it overcounts the unique incident edges a
    frontier round actually gathers by at most 2x — a deliberate
    conservative bias toward the dense shape (documented in
    ``docs/performance_model.md``).
    """

    frontier_size: int
    degree_sum: int
    worklist_edges: int
    touched: int
    num_vertices: int
    compress: bool

    @property
    def density(self) -> float:
        """Frontier-incident degree mass relative to the worklist size."""
        return self.degree_sum / max(1, self.worklist_edges)

    @property
    def avg_degree(self) -> float:
        return self.degree_sum / max(1, self.frontier_size)


# The two forecasts price a hypothetical round in modelled seconds with
# the cost model's bandwidth arithmetic (``effective_bandwidth``,
# ``STREAM_EFF``) on the byte conventions the round's charge helper
# applies, so the scheduler's forecasts and the profiler's attributions
# share one vocabulary.  Next-frontier enqueue atomics are identical
# across shapes (same changed set) and are left out of the comparison.

def dense_round_cost(
    stats: RoundStats, spec: DeviceSpec, working_set_bytes: float
) -> float:
    """Forecast of one dense round (every worklist edge)."""
    bw_irr = effective_bandwidth(spec, working_set_bytes)
    bw_str = spec.mem_bw_gbs * 1e9 * STREAM_EFF
    m = stats.worklist_edges
    seconds = m * ADJACENCY_EDGE_BYTES / bw_irr + m * PAIR_FLAG_BYTES / bw_str
    if stats.compress:
        seconds += (
            (stats.num_vertices + stats.touched) * SIGNATURE_PAIR_BYTES / bw_irr
        )
    return seconds


def frontier_round_cost(
    stats: RoundStats, spec: DeviceSpec, working_set_bytes: float
) -> float:
    """Forecast of one frontier round (the frontier-incident edges)."""
    bw_irr = effective_bandwidth(spec, working_set_bytes)
    bw_str = spec.mem_bw_gbs * 1e9 * STREAM_EFF
    # unique incident edges never exceed the worklist, however large
    # the (double-counting) degree sum gets
    edges = min(stats.degree_sum, stats.worklist_edges)
    seconds = (
        edges * (ADJACENCY_EDGE_BYTES + PAIR_FLAG_BYTES) / bw_irr
        + stats.frontier_size * STATUS_FLAG_BYTES / bw_str
    )
    if stats.compress:
        # compression work is 2 * |[s; d]| = 4 * edges touched
        seconds += 4 * edges * SIGNATURE_PAIR_BYTES / bw_irr
    return seconds


@dataclass(frozen=True)
class PolicyDecision:
    """One per-round scheduling decision (the auditable record)."""

    outer: int
    round: int
    policy: str
    frontier_size: int
    degree_sum: int
    density: float
    avg_degree: float
    launch_ratio: float
    #: False when the decision skipped the density scan (lock mode or
    #: recovery) — no scan charge was paid for it.
    scanned: bool
    #: True for forced-frontier decisions during fault recovery; golden
    #: decision-log comparisons exclude these.
    recovery: bool = False

    def to_dict(self) -> "dict[str, object]":
        return {
            "outer": self.outer,
            "round": self.round,
            "policy": self.policy,
            "frontier_size": self.frontier_size,
            "degree_sum": self.degree_sum,
            "density": self.density,
            "avg_degree": self.avg_degree,
            "launch_ratio": self.launch_ratio,
            "scanned": self.scanned,
            "recovery": self.recovery,
        }


class AdaptiveScheduler:
    """Per-round shape selection from frontier statistics and tallies."""

    def __init__(
        self,
        spec: DeviceSpec,
        *,
        num_vertices: int,
        num_edges: int,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.spec = spec
        self.num_vertices = int(num_vertices)
        self.working_set = working_set_of_graph(num_vertices, num_edges)
        self.tracer = tracer
        #: every decision of the run, in order (recovery ones included).
        self.decisions: "list[PolicyDecision]" = []
        # running launch-overhead / bandwidth tallies (modelled seconds)
        self._launch_s = 0.0
        self._round_s = 0.0

    # -- tally feeds ---------------------------------------------------
    @property
    def launch_ratio(self) -> float:
        """Fraction of tallied propagation seconds spent on launches."""
        total = self._launch_s + self._round_s
        return self._launch_s / total if total > 0.0 else 0.0

    def note_launches(self, count: int, *, blocks: int = 0) -> None:
        """Tally *count* kernel launches (+ *blocks* dispatches) of latency.

        Fed by the driver for the structural launches the drain pays
        (compaction, the persistent drain itself) — deliberately from the
        launch *counts*, never from backend-swept traffic, so the tally
        is backend-invariant.
        """
        self._launch_s += (
            count * self.spec.launch_us * 1e-6
            + blocks * BLOCK_DISPATCH_NS * 1e-9
        )

    def account_round(
        self, before: "dict[str, int]", after: "dict[str, int]"
    ) -> None:
        """Tally the bandwidth seconds of one finished round.

        *before*/*after* are counter snapshots captured around the
        round function — round charges are in-kernel work with no
        backend-swept component, so the deltas (and hence the tallies and
        every later decision) are identical across backends.
        """
        delta = SimpleNamespace(
            **{key: after[key] - before[key] for key in before}
        )
        terms = cost_terms(
            delta, self.spec, working_set_bytes=self.working_set
        )
        self._round_s += terms["irregular"] + terms["streamed"] + terms["atomic"]

    # -- the decision --------------------------------------------------
    def decide(
        self,
        dev,
        *,
        frontier: np.ndarray,
        degree: np.ndarray,
        worklist_edges: int,
        touched: int,
        num_vertices: int,
        compress: bool,
        outer: int,
        round_no: int,
        recovery: bool = False,
    ) -> str:
        """Pick one round's shape, ``"dense"`` or ``"frontier"``; charge
        and record the decision.

        *degree* is each vertex's out- plus in-degree in the worklist (a
        self-loop counted twice), built once per drain; the density
        scan sums it over the frontier into ``degree_sum``.  The
        modelled scan still reads the frontier vertices' bucket offsets
        and is charged for them
        (:func:`~repro.engine.accounting.charge_scheduler_scan`).
        Recovery and locked decisions skip the scan and take the
        frontier shape with ``degree_sum`` 0.
        """
        # lock only on *evidence*: before the first accounted round the
        # tallies are launch-only and the ratio is degenerately 1.0 —
        # that must not suppress the scan on bandwidth-bound graphs
        # whose very first round is the most expensive one
        locked = (
            not recovery
            and self._round_s > 0.0
            and self.launch_ratio >= LAUNCH_BOUND_RATIO
        )
        scanned = not (recovery or locked)
        degree_sum = 0
        if locked:
            # launch-overhead-bound: round shape cannot move the total;
            # skip the scan and lock the cheapest-traffic shape.
            self.tracer.counter("scheduler:lock", outer=outer, round=round_no)
        elif scanned:
            degree_sum = int(degree[frontier].sum())
            charge_scheduler_scan(dev, frontier_size=frontier.size)
        stats = RoundStats(
            frontier_size=int(frontier.size),
            degree_sum=degree_sum,
            worklist_edges=int(worklist_edges),
            touched=int(touched),
            num_vertices=int(num_vertices),
            compress=compress,
        )
        policy = "frontier"
        if scanned and dense_round_cost(
            stats, self.spec, self.working_set
        ) <= frontier_round_cost(stats, self.spec, self.working_set):
            policy = "dense"
        decision = PolicyDecision(
            outer=outer,
            round=round_no,
            policy=policy,
            frontier_size=stats.frontier_size,
            degree_sum=degree_sum,
            density=stats.density,
            avg_degree=stats.avg_degree,
            launch_ratio=self.launch_ratio,
            scanned=scanned,
            recovery=recovery,
        )
        self.decisions.append(decision)
        self.tracer.counter(
            "scheduler:pick",
            policy=policy,
            outer=outer,
            round=round_no,
            frontier=decision.frontier_size,
            recovery=recovery,
        )
        return policy

    # -- checkpoint integration ----------------------------------------
    def state_snapshot(self) -> "dict[str, object]":
        """Checkpointable scheduler state (tallies + decision-log length).

        The decision log is part of the checkpoint so a crash-restore
        replays the exact decision sequence of a fault-free run: restoring
        truncates decisions made after the checkpoint, and the restored
        tallies make every later ``launch_ratio`` read identical.
        """
        return {
            "launch_s": self._launch_s,
            "round_s": self._round_s,
            "decisions": len(self.decisions),
        }

    def restore_state(self, snapshot: "dict[str, object]") -> None:
        """Rewind to a :meth:`state_snapshot` (inverse of checkpointing)."""
        self._launch_s = float(snapshot["launch_s"])  # type: ignore[arg-type]
        self._round_s = float(snapshot["round_s"])  # type: ignore[arg-type]
        del self.decisions[int(snapshot["decisions"]) :]  # type: ignore[call-overload]
