"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while letting
programming errors (``TypeError`` on wrong argument types, etc.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphFormatError",
    "GraphValidationError",
    "MeshError",
    "MeshTopologyError",
    "DeviceError",
    "AlgorithmError",
    "ConvergenceError",
    "VerificationError",
    "IOFormatError",
    "FaultError",
    "FaultPlanError",
    "RankLossError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphFormatError(ReproError, ValueError):
    """An array bundle does not describe a structurally valid graph.

    Raised when constructing a :class:`repro.graph.CSRGraph` from arrays
    whose shapes, dtypes, or value ranges are inconsistent (e.g. ``indptr``
    not monotone, vertex IDs out of range, mismatched ``src``/``dst``
    lengths).
    """


class GraphValidationError(ReproError, ValueError):
    """A graph violates a semantic precondition of an operation.

    Distinct from :class:`GraphFormatError`: the arrays are well formed but
    the graph cannot be used for the requested purpose (e.g. requesting a
    sweep schedule on a graph whose condensation was not computed).
    """


class MeshError(ReproError, ValueError):
    """Base class for mesh-construction failures."""


class MeshTopologyError(MeshError):
    """A mesh has inconsistent connectivity (bad face sharing, orphan nodes)."""


class DeviceError(ReproError, ValueError):
    """A virtual-device configuration is invalid (e.g. zero SMs)."""


class AlgorithmError(ReproError, RuntimeError):
    """An SCC algorithm reached an internal inconsistency."""


class ConvergenceError(AlgorithmError):
    """An iterative phase exceeded its iteration safety bound.

    All fixed-point loops in the library carry a generous iteration cap
    (a small multiple of the theoretical worst case).  Hitting the cap
    indicates a bug rather than a slow input, so it raises instead of
    discarding the run silently — but the raise no longer discards
    *progress*: raise sites attach the state they had when the bound
    tripped, so callers (and the :mod:`repro.faults` degradation path)
    can inspect how far the run got.

    Attributes
    ----------
    iterations:
        loop iterations completed when the bound tripped (None if the
        raise site predates the payload contract).
    labels:
        partial per-vertex label array (``NO_VERTEX`` where unknown).
    sig_in / sig_out:
        the signature arrays at the time of the raise, when the failing
        loop had them in scope.
    active_count:
        number of vertices still active (not yet completed).
    """

    def __init__(
        self,
        message: str,
        *,
        iterations: "int | None" = None,
        labels=None,
        sig_in=None,
        sig_out=None,
        active_count: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.labels = labels
        self.sig_in = sig_in
        self.sig_out = sig_out
        self.active_count = active_count

    def partial_state(self) -> "dict[str, object]":
        """The attached progress payload as a plain dict (None values kept)."""
        return {
            "iterations": self.iterations,
            "labels": self.labels,
            "sig_in": self.sig_in,
            "sig_out": self.sig_out,
            "active_count": self.active_count,
        }


class VerificationError(ReproError, AssertionError):
    """An SCC labelling failed verification against a reference oracle."""


class IOFormatError(ReproError, ValueError):
    """A graph or trace file could not be parsed in the declared format."""


class FaultError(ReproError, RuntimeError):
    """Base class for fault-injection and recovery failures.

    Raised by :mod:`repro.faults` when injected faults exceed what the
    recovery machinery can absorb (e.g. self-healing failed to converge
    to verified-correct labels within its attempt bound).
    """


class FaultPlanError(FaultError, ValueError):
    """A :class:`repro.faults.FaultPlan` is malformed (bad rates/knobs)."""


class RankLossError(FaultError):
    """A virtual-cluster rank was lost and failover was disabled.

    Carries a structured payload so callers can degrade gracefully
    instead of losing the whole run.

    Attributes
    ----------
    rank:
        the rank that crashed.
    superstep:
        global superstep index at which the loss became permanent.
    retries:
        retry attempts made before giving up.
    labels:
        partial per-vertex labels at the time of the loss.
    iterations:
        outer iterations completed.
    fault_report:
        the run's :class:`repro.faults.FaultReport` (faults observed up
        to the loss), or None.
    """

    def __init__(
        self,
        message: str,
        *,
        rank: "int | None" = None,
        superstep: "int | None" = None,
        retries: "int | None" = None,
        labels=None,
        iterations: "int | None" = None,
        fault_report=None,
    ) -> None:
        super().__init__(message)
        self.rank = rank
        self.superstep = superstep
        self.retries = retries
        self.labels = labels
        self.iterations = iterations
        self.fault_report = fault_report
