"""Per-phase time attribution and roofline classification.

Applies the :mod:`repro.device.costmodel` arithmetic to every
:class:`~repro.trace.LaunchRecord` in a trace and aggregates the
resulting per-term seconds by span path.  Because every cost term is
linear in its counter (:func:`~repro.device.costmodel.cost_terms` is the
single shared implementation), the per-phase seconds sum to the
whole-run :attr:`~repro.device.VirtualDevice.seconds` exactly up to
float rounding — the property ``tests/test_profile.py`` checks at 1e-9
relative tolerance.

The one non-linear part of the model, the CPU memory-vs-compute
roofline, is resolved *globally* before attribution: the winner is
decided from the aggregated counters (the same decision
:meth:`~repro.device.CostModel.estimate` makes on the run totals), then
the losing term is zeroed in every record.  Attributing the roofline per
record instead would let small phases flip sides and break the sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..device.costmodel import TERM_NAMES, cost_terms
from ..device.counters import COUNTER_FIELDS, KernelCounters
from ..device.spec import DeviceSpec
from ..trace.records import LaunchRecord, Trace

__all__ = [
    "PhaseProfile",
    "CLASSIFICATIONS",
    "attribute_launches",
    "aggregate_counters",
]

#: cost-model term -> phase classification label (paper §5 vocabulary).
CLASSIFICATIONS = {
    "launch": "launch-overhead-bound",
    "irregular": "irregular-bandwidth-bound",
    "streamed": "streaming-bound",
    "atomic": "atomic-bound",
    "serial": "serial-bound",
    "compute": "compute-bound",
}


@dataclass
class PhaseProfile:
    """Attributed cost of one span path (all launches sharing the path)."""

    path: "Tuple[str, ...]"
    records: int = 0
    counters: "Dict[str, int]" = field(
        default_factory=lambda: {f: 0 for f in COUNTER_FIELDS}
    )
    seconds: "Dict[str, float]" = field(
        default_factory=lambda: {t: 0.0 for t in TERM_NAMES}
    )
    rounds: int = 0
    #: adaptive-scheduler picks landing in this phase, by policy name
    #: (folded from ``scheduler:pick`` counter events; empty for the
    #: static engines)
    decisions: "Dict[str, int]" = field(default_factory=dict)

    @property
    def name(self) -> str:
        """Readable path label; ``(untraced)`` for charges outside spans."""
        return "/".join(self.path) if self.path else "(untraced)"

    @property
    def launches(self) -> int:
        return self.counters["kernel_launches"]

    @property
    def total(self) -> float:
        return sum(self.seconds[t] for t in TERM_NAMES)

    @property
    def classification(self) -> str:
        """Dominant resource of this phase (``idle`` when nothing charged)."""
        best, best_s = None, 0.0
        for term in TERM_NAMES:
            s = self.seconds[term]
            if s > best_s:
                best, best_s = term, s
        return CLASSIFICATIONS[best] if best is not None else "idle"

    def to_dict(self) -> "dict":
        return {
            "phase": self.name,
            "path": list(self.path),
            "records": self.records,
            "launches": self.launches,
            "rounds": self.rounds,
            "decisions": dict(self.decisions),
            "seconds": dict(self.seconds),
            "total_seconds": self.total,
            "classification": self.classification,
            "counters": {k: v for k, v in self.counters.items() if v},
        }


def aggregate_counters(launches: "list[LaunchRecord]") -> KernelCounters:
    """Sum record deltas into one :class:`~repro.device.KernelCounters`.

    With a complete ledger this reproduces the device's final snapshot
    bit for bit (checked in tests) — the bridge between per-launch
    records and whole-run estimates.
    """
    agg = KernelCounters()
    for rec in launches:
        for f in COUNTER_FIELDS:
            setattr(agg, f, getattr(agg, f) + getattr(rec, f))
    return agg


def _roofline_loser(
    agg: KernelCounters, spec: DeviceSpec, working_set_bytes: float
) -> "str | None":
    """The globally-losing side of the CPU roofline, or None on GPUs.

    Mirrors :meth:`~repro.device.CostModel.estimate`: on CPUs the larger
    of compute and (irregular + streamed) memory binds and the other is
    dropped; ties go to compute, so memory loses.
    """
    if spec.kind == "gpu":
        return None
    t = cost_terms(agg, spec, working_set_bytes=working_set_bytes)
    if t["compute"] >= t["irregular"] + t["streamed"]:
        return "memory"
    return "compute"


def attribute_launches(
    trace: Trace,
    spec: DeviceSpec,
    *,
    working_set_bytes: float = 0.0,
) -> "list[PhaseProfile]":
    """Attribute every launch record of *trace* to its span path.

    Returns the phases in first-appearance order.  Phase-2 round counts
    are folded in from the trace's ``relaxation-round`` counter events,
    and the adaptive scheduler's per-policy pick counts from its
    ``scheduler:pick`` events (both are analysis quantities, not costed
    charges, so they ride on the event stream rather than the ledger).
    """
    loser = _roofline_loser(
        aggregate_counters(trace.launches), spec, working_set_bytes
    )
    phases: "dict[Tuple[str, ...], PhaseProfile]" = {}
    for rec in trace.launches:
        ph = phases.get(rec.path)
        if ph is None:
            ph = phases[rec.path] = PhaseProfile(path=rec.path)
        ph.records += 1
        for f in COUNTER_FIELDS:
            ph.counters[f] += getattr(rec, f)
        terms = cost_terms(rec, spec, working_set_bytes=working_set_bytes)
        if loser == "memory":
            terms["irregular"] = terms["streamed"] = 0.0
        elif loser == "compute":
            terms["compute"] = 0.0
        for t in TERM_NAMES:
            ph.seconds[t] += terms[t]
    # per-phase round counts from the event stream
    path_of_span = {s.span_id: s.path for s in trace.spans}
    for ev in trace.events:
        if ev.kind != "counter" or ev.name not in (
            "relaxation-round",
            "scheduler:pick",
        ):
            continue
        path = path_of_span.get(ev.span_id)
        if path is None:
            continue
        ph = phases.get(path)
        if ph is None:
            ph = phases[path] = PhaseProfile(path=path)
        if ev.name == "relaxation-round":
            ph.rounds += int(ev.value)
        else:
            policy = str(ev.attrs.get("policy", "?"))
            ph.decisions[policy] = ph.decisions.get(policy, 0) + int(ev.value)
    return list(phases.values())
