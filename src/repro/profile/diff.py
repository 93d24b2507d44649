"""Trace diffing: explain a regression as per-phase counter/time deltas.

``repro trace diff A B`` loads two JSONL traces (same schema version —
mixed versions are rejected with a clear error), attributes each side's
launch ledger with the device spec recorded in its trace meta, and
reports, per span path, the seconds delta plus the counter movements
that caused it.  It is a tool for explaining a change; the CI gates
(:mod:`repro.bench.gates`) do not use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..device.costmodel import working_set_of_graph
from ..device.spec import DeviceSpec, device_by_name
from ..trace.records import Trace
from .attribution import PhaseProfile, attribute_launches

__all__ = ["PhaseDelta", "TraceDiff", "diff_traces", "render_diff"]

#: counters surfaced in the per-phase explanation, most telling first.
_EXPLAIN_COUNTERS = (
    "kernel_launches",
    "bytes_moved",
    "bytes_streamed",
    "edge_work",
    "atomics",
    "global_barriers",
)


@dataclass
class PhaseDelta:
    """One phase's movement between the base and new traces."""

    phase: str
    base_seconds: float
    new_seconds: float
    classification: str
    counters: "Dict[str, tuple[int, int]]" = field(default_factory=dict)

    @property
    def delta(self) -> float:
        return self.new_seconds - self.base_seconds

    @property
    def ratio(self) -> float:
        if self.base_seconds == 0.0:
            return float("inf") if self.new_seconds else 1.0
        return self.new_seconds / self.base_seconds

    def explain(self) -> str:
        """The counter movements behind the delta, compactly."""
        parts = []
        for name in _EXPLAIN_COUNTERS:
            b, n = self.counters.get(name, (0, 0))
            if b != n:
                parts.append(f"{name} {b} -> {n}")
        return "; ".join(parts) if parts else "no counter movement"

    def to_dict(self) -> "dict":
        return {
            "phase": self.phase,
            "base_seconds": self.base_seconds,
            "new_seconds": self.new_seconds,
            "delta_seconds": self.delta,
            "ratio": self.ratio,
            "classification": self.classification,
            "counters": {k: list(v) for k, v in self.counters.items()},
        }


@dataclass
class TraceDiff:
    """Per-phase comparison of two traced runs, worst regression first."""

    device: str
    base_total: float
    new_total: float
    phases: "List[PhaseDelta]"

    @property
    def top_regression(self) -> "PhaseDelta | None":
        """The phase contributing the largest seconds increase, if any."""
        worst = None
        for pd in self.phases:
            if pd.delta > 0 and (worst is None or pd.delta > worst.delta):
                worst = pd
        return worst

    def to_dict(self) -> "dict":
        top = self.top_regression
        return {
            "device": self.device,
            "base_total_seconds": self.base_total,
            "new_total_seconds": self.new_total,
            "top_regression": top.to_dict() if top is not None else None,
            "phases": [pd.to_dict() for pd in self.phases],
        }


def _resolve_spec(trace: Trace, label: str) -> DeviceSpec:
    name = trace.meta.get("device")
    if not name:
        raise ValueError(
            f"{label} trace has no 'device' in its meta; re-record it with"
            " `repro trace`/`repro profile --jsonl` or pass a spec"
        )
    return device_by_name(str(name))

def _working_set(trace: Trace) -> float:
    n = trace.meta.get("num_vertices")
    m = trace.meta.get("num_edges")
    if n is None or m is None:
        return 0.0
    return working_set_of_graph(int(n), int(m))


def _by_phase(phases: "list[PhaseProfile]") -> "dict[str, PhaseProfile]":
    return {ph.name: ph for ph in phases}


def diff_traces(
    base: Trace,
    new: Trace,
    *,
    spec: "DeviceSpec | None" = None,
) -> TraceDiff:
    """Diff two traces' attributed per-phase costs.

    Both traces must declare the same JSONL schema version; mixing a
    pre-versioning (schema 1) file with a current one raises
    :class:`ValueError` rather than silently comparing a trace that has
    no launch ledger.  The device spec defaults to the (matching)
    ``device`` recorded in the traces' meta.
    """
    if base.schema != new.schema:
        raise ValueError(
            f"mixed trace schema versions: base is schema {base.schema},"
            f" new is schema {new.schema}; re-record the older trace"
        )
    if spec is None:
        base_spec = _resolve_spec(base, "base")
        new_spec = _resolve_spec(new, "new")
        if base_spec.name != new_spec.name:
            raise ValueError(
                f"traces were recorded on different devices"
                f" ({base_spec.name} vs {new_spec.name}); pass spec= to"
                " force one model"
            )
        spec = base_spec
    base_phases = _by_phase(
        attribute_launches(base, spec, working_set_bytes=_working_set(base))
    )
    new_phases = _by_phase(
        attribute_launches(new, spec, working_set_bytes=_working_set(new))
    )
    deltas: "list[PhaseDelta]" = []
    for name in list(base_phases) + [
        n for n in new_phases if n not in base_phases
    ]:
        if name in {pd.phase for pd in deltas}:
            continue
        b = base_phases.get(name)
        n = new_phases.get(name)
        counters: "Dict[str, tuple[int, int]]" = {}
        for key in _EXPLAIN_COUNTERS:
            bv = b.counters[key] if b else 0
            nv = n.counters[key] if n else 0
            if bv or nv:
                counters[key] = (bv, nv)
        deltas.append(
            PhaseDelta(
                phase=name,
                base_seconds=b.total if b else 0.0,
                new_seconds=n.total if n else 0.0,
                classification=(n or b).classification,
                counters=counters,
            )
        )
    deltas.sort(key=lambda pd: pd.delta, reverse=True)
    return TraceDiff(
        device=spec.name,
        base_total=sum(ph.total for ph in base_phases.values()),
        new_total=sum(ph.total for ph in new_phases.values()),
        phases=deltas,
    )


def render_diff(diff: TraceDiff, *, width: int = 44) -> str:
    """Text table, worst regression first, with counter explanations."""
    lines = [
        f"device: {diff.device}"
        f"  base {diff.base_total:.3e}s -> new {diff.new_total:.3e}s"
        f" (x{diff.new_total / diff.base_total:.3f})"
        if diff.base_total
        else f"device: {diff.device}  base 0s -> new {diff.new_total:.3e}s"
    ]
    lines.append(
        f"{'phase':<{width}} {'base':>11} {'new':>11} {'delta':>11} {'ratio':>7}"
    )
    for pd in diff.phases:
        ratio = f"x{pd.ratio:.2f}" if pd.ratio != float("inf") else "new"
        lines.append(
            f"{pd.phase:<{width}} {pd.base_seconds:>11.3e}"
            f" {pd.new_seconds:>11.3e} {pd.delta:>+11.3e} {ratio:>7}"
        )
        if pd.delta:
            lines.append(f"{'':<{width}}   {pd.explain()}")
    top = diff.top_regression
    if top is not None:
        lines.append(
            f"top regressed phase: {top.phase}"
            f" ({top.delta:+.3e}s, x{top.ratio:.3f}, {top.classification};"
            f" {top.explain()})"
        )
    else:
        lines.append("no phase regressed")
    return "\n".join(lines)
