"""Virtual device executor.

:class:`VirtualDevice` bundles a :class:`~repro.device.spec.DeviceSpec`
with a fresh :class:`~repro.device.counters.KernelCounters` and exposes
the launch-accounting helpers the instrumented algorithms call.  It also
implements the *launch-configuration* arithmetic from the paper (§3.4):
512 threads per block, persistent-thread grids sized to the device's
resident-thread capacity, and edge-to-block partitioning for the
asynchronous Phase-2 kernel.  The device keeps totals only; a per-launch
record exists when a recording tracer is passed, through the launch
ledger that :func:`repro.profile.ledger.instrument` attaches.
"""

from __future__ import annotations

import numpy as np

from ..errors import DeviceError
from .counters import KernelCounters
from .costmodel import CostBreakdown, CostModel, working_set_of_graph
from .spec import DeviceSpec

__all__ = ["VirtualDevice", "THREADS_PER_BLOCK"]

#: ECL-SCC launches all kernels with 512 threads per block (paper §3.4).
THREADS_PER_BLOCK = 512


class VirtualDevice:
    """A device spec plus run counters; one instance per algorithm run.

    ``ledger`` is normally ``None`` (the zero-overhead path: one ``is
    None`` check per charge).  :func:`repro.profile.attach_ledger` sets
    it to a :class:`~repro.profile.LaunchLedger` when a recording tracer
    is active, after which every ``launch``/``work``/``serial`` charge
    is also recorded as a per-phase
    :class:`~repro.trace.LaunchRecord` delta — the one per-launch
    record (a launch's work size is its record's ``edge_work`` /
    ``vertex_work``).
    """

    def __init__(self, spec: DeviceSpec) -> None:
        self.spec = spec
        self.counters = KernelCounters()
        self.ledger = None
        self._working_set_bytes = 0.0

    # ------------------------------------------------------------------
    # launch configuration
    # ------------------------------------------------------------------
    def grid_blocks(self, *, persistent: bool) -> int:
        """Number of thread blocks launched.

        Persistent-thread mode launches only as many blocks as the device
        can keep resident (threads_resident / 512); otherwise one thread
        per work item would be launched (callers then compute blocks from
        work size themselves).
        """
        if not persistent:
            raise DeviceError(
                "grid_blocks(persistent=False) is work-size dependent;"
                " use blocks_for(work_items)"
            )
        return max(1, self.spec.threads_resident // THREADS_PER_BLOCK)

    def blocks_for(self, work_items: int) -> int:
        """Blocks needed at one thread per work item."""
        return max(1, -(-int(work_items) // THREADS_PER_BLOCK))

    def partition_edges(self, num_edges: int, *, persistent: bool) -> np.ndarray:
        """Block boundaries for distributing ``num_edges`` across blocks.

        Returns an ``indptr``-style array of length ``blocks+1``.  In
        persistent mode each resident block receives a contiguous chunk
        (multiple edges per thread); otherwise each block gets one edge
        per thread, i.e. ``THREADS_PER_BLOCK`` edges.
        Used by the asynchronous Phase-2 simulation, where a block
        iterates its own chunk to a local fixed point.
        """
        if num_edges <= 0:
            return np.zeros(1, dtype=np.int64)
        blocks = self.blocks_for(num_edges)
        if persistent:
            blocks = min(self.grid_blocks(persistent=True), blocks)
        bounds = np.linspace(0, num_edges, blocks + 1).astype(np.int64)
        return bounds

    # ------------------------------------------------------------------
    # accounting passthroughs
    # ------------------------------------------------------------------
    def launch(self, **kwargs) -> None:
        if self.ledger is None:
            self.counters.launch(**kwargs)
        else:
            before = self.counters.snapshot()
            self.counters.launch(**kwargs)
            self.ledger.record("launch", before, self.counters.snapshot())

    def work(self, **kwargs) -> None:
        """In-kernel work of a persistent kernel (no launch recorded)."""
        if self.ledger is None:
            self.counters.work(**kwargs)
        else:
            before = self.counters.snapshot()
            self.counters.work(**kwargs)
            self.ledger.record("work", before, self.counters.snapshot())

    def serial(self, ops: int) -> None:
        if self.ledger is None:
            self.counters.serial(ops)
        else:
            before = self.counters.snapshot()
            self.counters.serial(ops)
            self.ledger.record("serial", before, self.counters.snapshot())

    def round(self, count: int = 1) -> None:
        if self.ledger is None:
            self.counters.round(count)
        else:
            before = self.counters.snapshot()
            self.counters.round(count)
            self.ledger.record("round", before, self.counters.snapshot())

    def note(self, key: str, value: float) -> None:
        self.counters.note(key, value)

    # ------------------------------------------------------------------
    def estimate(self, num_vertices: int, num_edges: int, signatures: int = 2) -> CostBreakdown:
        """Cost estimate for the accumulated counters on this run's graph."""
        ws = working_set_of_graph(num_vertices, num_edges, signatures)
        self._working_set_bytes = ws
        return CostModel(self.spec).estimate(self.counters, working_set_bytes=ws)

    @property
    def working_set_bytes(self) -> float:
        """Footprint of the most recent :meth:`estimate` call (0 before)."""
        return self._working_set_bytes

    @property
    def seconds(self) -> float:
        """Total modelled seconds for the counters accumulated so far.

        Uses the working set memoized by the last :meth:`estimate` call —
        the same footprint the run's ``model_seconds`` was computed with,
        so per-phase attributions can be checked against it exactly.
        """
        return CostModel(self.spec).estimate(
            self.counters, working_set_bytes=self._working_set_bytes
        ).total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<VirtualDevice {self.spec.name} {self.counters!r}>"
