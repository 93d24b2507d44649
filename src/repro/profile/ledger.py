"""The per-launch device ledger and the run prologue that attaches it.

:func:`instrument` is the prologue every device-backed entry point
starts with: it resolves the run's device and tracer and calls
:func:`attach_ledger`, which wires a
:class:`~repro.device.VirtualDevice` to a recording
:class:`~repro.trace.Tracer`: every subsequent
``launch()``/``work()``/``serial()`` charge is recorded as one
:class:`~repro.trace.LaunchRecord` on ``tracer.trace.launches``, carrying
the counter *deltas* of that single charge plus the span path that was
open when it happened.  The deltas are what make attribution exact:
summing every record reproduces the device's final counter snapshot bit
for bit, so per-phase cost terms sum to the whole-run estimate.

With a :class:`~repro.trace.NullTracer` (or ``tracer=None``) nothing is
attached and the device keeps its zero-overhead accounting path — one
``ledger is None`` check per charge, no snapshots, no allocation.
"""

from __future__ import annotations

from ..device.counters import COUNTER_FIELDS
from ..device.executor import VirtualDevice
from ..device.spec import DeviceSpec
from ..trace.records import LaunchRecord
from ..trace.tracer import Tracer, ensure_tracer

__all__ = ["LaunchLedger", "attach_ledger", "instrument"]


class LaunchLedger:
    """Records one :class:`~repro.trace.LaunchRecord` per device charge.

    Owned by a :class:`~repro.device.VirtualDevice` (its ``ledger``
    attribute); the records land on the tracer's ``trace.launches`` so
    they serialize with the rest of the trace.
    """

    __slots__ = ("tracer", "records")

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.records = tracer.trace.launches

    def record(
        self, kind: str, before: "dict[str, int]", after: "dict[str, int]"
    ) -> None:
        """Append the delta between two counter snapshots as one record."""
        self.records.append(
            LaunchRecord(
                seq=len(self.records),
                kind=kind,
                path=self.tracer.current_path(),
                span_id=self.tracer.current_span_id,
                **{f: after[f] - before[f] for f in COUNTER_FIELDS},
            )
        )


def attach_ledger(device, tracer) -> "LaunchLedger | None":
    """Attach a launch ledger to *device* when *tracer* is recording.

    Returns the attached :class:`LaunchLedger`, or ``None`` (leaving the
    device untouched) when *device* is ``None``, *tracer* is ``None``, or
    *tracer* is a disabled :class:`~repro.trace.NullTracer` — the
    zero-overhead contract of the tracing layer extends to profiling.

    Re-attaching the same tracer (e.g. the ``randomize_ids`` recursion in
    :func:`~repro.core.eclscc.ecl_scc`) is idempotent in effect: the new
    ledger appends to the same ``trace.launches`` list.
    """
    if device is None or tracer is None or not tracer.enabled:
        return None
    ledger = LaunchLedger(tracer)
    device.ledger = ledger
    return ledger


def instrument(
    device: "VirtualDevice | DeviceSpec | None",
    default_spec: DeviceSpec,
    tracer: "Tracer | None",
) -> "tuple[VirtualDevice, Tracer]":
    """The run prologue shared by every device-backed entry point.

    Wraps a bare :class:`~repro.device.DeviceSpec` (or ``None``, meaning
    the code's *default_spec*) into a fresh
    :class:`~repro.device.VirtualDevice`, passes a given device through,
    maps ``tracer=None`` to the null tracer and attaches the launch
    ledger.  Returns ``(device, tracer)``.
    """
    if device is None:
        device = VirtualDevice(default_spec)
    elif isinstance(device, DeviceSpec):
        device = VirtualDevice(device)
    tr = ensure_tracer(tracer)
    attach_ledger(device, tr)
    return device, tr
