"""Profile reports: build, render, and export per-phase attributions.

:func:`build_profile` turns a traced run (its launch ledger + device
spec) into a :class:`ProfileReport`; :func:`profile_run` is the
one-liner for an :class:`~repro.results.AlgoResult` or
:class:`~repro.bench.RunResult`.  Reports export as JSON
(:meth:`ProfileReport.to_json`) and as a Prometheus text exposition
(:func:`to_prometheus`) for dashboards; ``repro profile <workload>``
wraps the whole pipeline on the CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..device.costmodel import TERM_NAMES, CostModel
from ..device.spec import DeviceSpec
from ..errors import AlgorithmError
from ..trace.records import Trace
from .attribution import (
    CLASSIFICATIONS,
    PhaseProfile,
    aggregate_counters,
    attribute_launches,
)

__all__ = [
    "ProfileReport",
    "build_profile",
    "profile_run",
    "render_profile",
    "to_prometheus",
]


@dataclass
class ProfileReport:
    """Per-phase attribution of one run's modelled device time."""

    device: str
    working_set_bytes: float
    device_seconds: float
    phases: "List[PhaseProfile]"
    meta: "Dict[str, Any]" = field(default_factory=dict)

    @property
    def attributed_seconds(self) -> float:
        return sum(ph.total for ph in self.phases)

    @property
    def binding(self) -> str:
        """Whole-run classification: the dominant resource across phases."""
        totals = {t: 0.0 for t in TERM_NAMES}
        for ph in self.phases:
            for t in TERM_NAMES:
                totals[t] += ph.seconds[t]
        best, best_s = None, 0.0
        for t in TERM_NAMES:
            if totals[t] > best_s:
                best, best_s = t, totals[t]
        return CLASSIFICATIONS[best] if best is not None else "idle"

    def phase(self, name: str) -> PhaseProfile:
        """Look up a phase by its ``/``-joined path name (or last segment
        when unambiguous)."""
        matches = [ph for ph in self.phases if ph.name == name]
        if not matches:
            matches = [ph for ph in self.phases if ph.path and ph.path[-1] == name]
        if len(matches) != 1:
            known = sorted(ph.name for ph in self.phases)
            raise KeyError(f"phase {name!r} matches {len(matches)} of {known}")
        return matches[0]

    def to_dict(self) -> "dict[str, Any]":
        return {
            "device": self.device,
            "working_set_bytes": self.working_set_bytes,
            "device_seconds": self.device_seconds,
            "attributed_seconds": self.attributed_seconds,
            "binding": self.binding,
            "meta": dict(self.meta),
            "phases": [ph.to_dict() for ph in self.phases],
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def build_profile(
    trace: Trace,
    spec: DeviceSpec,
    *,
    working_set_bytes: float = 0.0,
    device_seconds: "float | None" = None,
    meta: "Dict[str, Any] | None" = None,
) -> ProfileReport:
    """Attribute *trace*'s launch ledger against *spec*.

    ``device_seconds`` is the reference whole-run total (pass
    ``VirtualDevice.seconds`` / ``RunResult.model_seconds``); when
    omitted it is recomputed from the aggregated ledger, which equals the
    device total whenever the ledger covers the whole run.
    """
    phases = attribute_launches(
        trace, spec, working_set_bytes=working_set_bytes
    )
    if device_seconds is None:
        device_seconds = CostModel(spec).estimate(
            aggregate_counters(trace.launches),
            working_set_bytes=working_set_bytes,
        ).total
    return ProfileReport(
        device=spec.name,
        working_set_bytes=float(working_set_bytes),
        device_seconds=float(device_seconds),
        phases=phases,
        meta=dict(meta or {}),
    )


def profile_run(result, *, signatures: "int | None" = None) -> ProfileReport:
    """Build a :class:`ProfileReport` for a traced run result.

    Accepts an :class:`~repro.results.AlgoResult` (``device`` is the
    :class:`~repro.device.VirtualDevice`) or a
    :class:`~repro.bench.RunResult` (``device`` is the spec name); the
    run must have been executed with a recording tracer so the ledger
    is populated.
    """
    trace = getattr(result, "trace", None)
    if trace is None:
        raise AlgorithmError(
            "profile_run needs a traced run: pass tracer=Tracer() to the"
            " algorithm (the ledger only records under a recording tracer)"
        )
    dev = getattr(result, "device", None)
    meta: "Dict[str, Any]" = dict(trace.meta)
    if hasattr(dev, "spec"):  # AlgoResult carrying a VirtualDevice
        spec = dev.spec
        working_set = dev.working_set_bytes
        seconds = dev.seconds
    else:  # RunResult: device is the spec name, counters are a snapshot
        from ..device.spec import device_by_name

        from ..bench.runners import _SIGNATURE_ARRAYS
        from ..device.costmodel import working_set_of_graph

        spec = device_by_name(dev)
        if signatures is None:
            signatures = _SIGNATURE_ARRAYS.get(result.algorithm, 1)
        working_set = working_set_of_graph(
            result.num_vertices, result.num_edges, signatures
        )
        seconds = result.model_seconds
        meta.setdefault("algorithm", result.algorithm)
    meta.setdefault("device", spec.name)
    return build_profile(
        trace,
        spec,
        working_set_bytes=working_set,
        device_seconds=seconds,
        meta=meta,
    )


def render_profile(report: ProfileReport, *, width: int = 44) -> str:
    """Text table: one row per phase, widest first the way it ran."""
    lines = [
        f"device: {report.device}"
        f"  (working set {report.working_set_bytes / 1e6:.2f} MB)"
    ]
    if report.meta:
        keys = ("algorithm", "workload", "engine", "backend")
        shown = {k: report.meta[k] for k in keys if report.meta.get(k)}
        if shown:
            lines.append(
                "run: " + ", ".join(f"{k}={v}" for k, v in shown.items())
            )
    lines.append(
        f"{'phase':<{width}} {'launches':>8} {'rounds':>6}"
        f" {'seconds':>11} {'share':>6}  classification"
    )
    total = report.device_seconds or 1.0
    for ph in report.phases:
        lines.append(
            f"{ph.name:<{width}} {ph.launches:>8} {ph.rounds:>6}"
            f" {ph.total:>11.3e} {ph.total / total:>6.1%}"
            f"  {ph.classification}"
        )
    lines.append(
        f"{'total attributed':<{width}} {'':>8} {'':>6}"
        f" {report.attributed_seconds:>11.3e}"
        f" {report.attributed_seconds / total:>6.1%}  binding:"
        f" {report.binding}"
    )
    lines.append(f"device_seconds: {report.device_seconds:.6e}")
    return "\n".join(lines)


def _prom_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def to_prometheus(report: ProfileReport, *, prefix: str = "repro_profile") -> str:
    """Prometheus text exposition (one gauge sample per phase x resource)."""
    lines = [
        f"# HELP {prefix}_phase_seconds Attributed model seconds"
        " per phase and resource",
        f"# TYPE {prefix}_phase_seconds gauge",
    ]
    for ph in report.phases:
        phase = _prom_escape(ph.name)
        for term in TERM_NAMES:
            lines.append(
                f'{prefix}_phase_seconds{{phase="{phase}",resource="{term}"}}'
                f" {ph.seconds[term]:.9e}"
            )
    lines.append(
        f"# HELP {prefix}_phase_launches Kernel launches per phase"
    )
    lines.append(f"# TYPE {prefix}_phase_launches gauge")
    for ph in report.phases:
        lines.append(
            f'{prefix}_phase_launches{{phase="{_prom_escape(ph.name)}"}}'
            f" {ph.launches}"
        )
    lines.append(
        f"# HELP {prefix}_device_seconds Whole-run modelled seconds"
    )
    lines.append(f"# TYPE {prefix}_device_seconds gauge")
    lines.append(f"{prefix}_device_seconds {report.device_seconds:.9e}")
    return "\n".join(lines) + "\n"
