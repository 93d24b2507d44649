"""The unified algorithm-result API: :class:`AlgoResult`.

Every ``*_scc`` entry point returns an :class:`AlgoResult` (or a
subclass) carrying::

    result.labels     # per-vertex SCC labels (max member ID)
    result.num_sccs   # number of distinct components
    result.device     # VirtualDevice with counters (None for oracles)
    result.trace      # repro.trace.Trace when a tracer was passed

A result is a record, not a sequence or an array: read the labels as
``result.labels`` (``np.asarray(result)`` yields a 0-d object array, not
the labels).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .types import sorted_unique

__all__ = ["AlgoResult", "Status", "count_sccs"]


class Status(str, enum.Enum):
    """Outcome classification of one algorithm run.

    Callers (notably :mod:`repro.serve`) switch on terminal states.  The
    ``str`` mixin makes every member equal to its value
    (``Status.CLEAN == "clean"``), and f-strings and ``json.dumps``
    render the bare value.

    Members
    -------
    CLEAN:
        no faults observed.
    RECOVERED:
        faults were injected and absorbed; labels verified.
    DEGRADED:
        permanent capacity loss absorbed by failover; labels correct,
        cost profile changed.
    """

    CLEAN = "clean"
    RECOVERED = "recovered"
    DEGRADED = "degraded"

    def __str__(self) -> str:  # stable across Python 3.10/3.11+
        return self.value

    __format__ = str.__format__


def count_sccs(labels: np.ndarray) -> int:
    """Number of distinct SCC labels (0 for an empty labelling)."""
    return int(sorted_unique(labels).size)


@dataclass(eq=False)
class AlgoResult:
    """Outcome of one SCC-algorithm run — the unified return contract.

    Attributes
    ----------
    labels:
        per-vertex SCC label = max vertex ID in the component.
    num_sccs:
        number of distinct components.
    device:
        the :class:`~repro.device.executor.VirtualDevice` the run was
        instrumented against, with its counters (None for serial
        oracles run without a device).
    trace:
        the :class:`~repro.trace.Trace` recorded by the ``tracer=``
        argument, or None when tracing was off.
    status:
        a :class:`Status` member — :attr:`Status.CLEAN` (no faults
        observed), :attr:`Status.RECOVERED` (faults were injected and
        absorbed; labels verified), or :attr:`Status.DEGRADED`
        (permanent loss absorbed by failover).  Always CLEAN when no
        :class:`~repro.faults.FaultPlan` was active.
    fault_report:
        the run's :class:`~repro.faults.FaultReport` (every injected
        fault and recovery action), or None without a fault plan.
    """

    labels: np.ndarray
    num_sccs: int
    device: Optional[Any] = None
    trace: Optional[Any] = None
    status: Status = Status.CLEAN
    fault_report: Optional[Any] = None
