"""Operation counters filled in by the instrumented algorithms.

Every SCC code in this library reports what its kernels *would do* on the
target device: how many kernels are launched, how many edge/vertex work
items each processes, how many bytes of global memory it touches, how
many atomic operations it issues, and how much inherently serial work it
performs.  The counters are the interface between algorithm and cost
model — the algorithms never see device parameters, the cost model never
sees graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["KernelCounters", "COUNTER_FIELDS"]

#: The costed counter fields, in :meth:`KernelCounters.snapshot` order:
#: ledger deltas, JSONL launch lines and per-phase sums iterate them.
COUNTER_FIELDS = (
    "kernel_launches",
    "global_barriers",
    "edge_work",
    "vertex_work",
    "bytes_moved",
    "atomics",
    "serial_work",
    "rounds",
    "blocks_scheduled",
    "bytes_streamed",
)


@dataclass
class KernelCounters:
    """Accumulated device-operation counts for one algorithm run.

    Attributes
    ----------
    kernel_launches:
        number of device kernel launches (GPU) or parallel regions (CPU).
    global_barriers:
        device-wide synchronization points (>= kernel_launches on GPUs,
        where every launch implies a barrier; tracked separately because
        the async Phase-2 optimization removes barriers *within* a launch).
    edge_work:
        total edge relaxations/inspections across all kernels.
    vertex_work:
        total vertex-sized work items across all kernels.
    bytes_moved:
        irregular (gather/scatter) global-memory traffic in bytes.
    bytes_streamed:
        sequential streaming traffic in bytes (contiguous worklist reads);
        costed at near-peak bandwidth instead of the irregular fraction.
    atomics:
        atomic read-modify-write operations issued.
    serial_work:
        operations on the critical path that cannot be parallelized
        (e.g. the sequential portion of a spanning-tree hook, host-side
        bookkeeping between kernels).
    rounds:
        algorithm-level iteration count (outer iterations x propagation
        rounds); reported for analysis, not costed directly.
    notes:
        free-form per-phase annotations for debugging/reporting.
    """

    kernel_launches: int = 0
    global_barriers: int = 0
    edge_work: int = 0
    vertex_work: int = 0
    bytes_moved: int = 0
    atomics: int = 0
    serial_work: int = 0
    rounds: int = 0
    blocks_scheduled: int = 0
    bytes_streamed: int = 0
    notes: "dict[str, float]" = field(default_factory=dict)

    # ------------------------------------------------------------------
    def launch(
        self,
        *,
        edges: int = 0,
        vertices: int = 0,
        bytes_per_edge: int = 24,
        bytes_per_vertex: int = 16,
        atomics: int = 0,
        barriers: int = 1,
        blocks: "int | None" = None,
        streamed_bytes: int = 0,
    ) -> None:
        """Record one kernel launch and the work it performs.

        ``bytes_per_edge`` defaults to 24: reading a (src, dst) pair plus
        one signature load or store of 8 bytes — a deliberately coarse
        but uniform convention used by *all* algorithms.

        ``blocks`` is the grid size; when omitted it defaults to one
        512-thread block per 512 work items (the non-persistent launch
        configuration).  Persistent-thread kernels pass their resident
        grid size explicitly.
        """
        self.kernel_launches += 1
        self.global_barriers += barriers
        self.edge_work += edges
        self.vertex_work += vertices
        self.bytes_moved += edges * bytes_per_edge + vertices * bytes_per_vertex
        self.bytes_streamed += streamed_bytes
        self.atomics += atomics
        if blocks is None:
            blocks = max(1, -(-(edges + vertices) // 512))
        self.blocks_scheduled += blocks

    def work(
        self,
        *,
        edges: int = 0,
        vertices: int = 0,
        bytes_per_edge: int = 24,
        bytes_per_vertex: int = 16,
        atomics: int = 0,
        streamed_bytes: int = 0,
    ) -> None:
        """Record work performed *inside* an already-launched kernel.

        Persistent worklist kernels iterate in-kernel instead of
        relaunching, so their per-round traffic must be charged without
        incrementing ``kernel_launches``/``global_barriers`` (a grid-wide
        software barrier inside a persistent kernel costs memory traffic,
        not a launch).  Same byte conventions as :meth:`launch`.
        """
        self.edge_work += edges
        self.vertex_work += vertices
        self.bytes_moved += edges * bytes_per_edge + vertices * bytes_per_vertex
        self.bytes_streamed += streamed_bytes
        self.atomics += atomics

    def serial(self, ops: int) -> None:
        """Record *ops* operations of inherently serial (critical-path) work."""
        self.serial_work += ops

    def round(self, count: int = 1) -> None:
        self.rounds += count

    def note(self, key: str, value: float) -> None:
        self.notes[key] = self.notes.get(key, 0.0) + value

    # ------------------------------------------------------------------
    def merge(self, other: "KernelCounters") -> None:
        """Accumulate *other* into self (for multi-stage algorithms)."""
        for name in COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for k, v in other.notes.items():
            self.note(k, v)

    def copy(self) -> "KernelCounters":
        """An independent copy (its own ``notes`` dict), for checkpoints."""
        return replace(self, notes=dict(self.notes))

    def snapshot(self) -> "dict[str, int]":
        # a literal dict: it is built twice per traced charge, and a
        # comprehension over COUNTER_FIELDS takes 1.5-2.5x as long
        return {
            "kernel_launches": self.kernel_launches,
            "global_barriers": self.global_barriers,
            "edge_work": self.edge_work,
            "vertex_work": self.vertex_work,
            "bytes_moved": self.bytes_moved,
            "atomics": self.atomics,
            "serial_work": self.serial_work,
            "rounds": self.rounds,
            "blocks_scheduled": self.blocks_scheduled,
            "bytes_streamed": self.bytes_streamed,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.snapshot()
        inner = " ".join(f"{k}={v}" for k, v in s.items() if v)
        return f"<KernelCounters {inner}>"
