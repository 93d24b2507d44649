"""Incremental SCC maintenance for dynamic graphs.

The static pipeline answers "what are the SCCs of this snapshot?";
this subpackage answers the serving question — "keep the SCCs correct
while the graph mutates":

* :class:`DynamicGraph` — the mutable handle: batched
  :meth:`~DynamicGraph.insert_edges` / :meth:`~DynamicGraph.delete_edges`
  maintain per-vertex labels *incrementally* (deletions re-seed the
  frontier Phase-2 engine from the invalidated components, insertions
  merge components of the cached condensation DAG), with
  every update kernel device-accounted and ledger-attributed.  Labels
  stay bit-identical to a cold solve of the current graph after every
  batch.
* :class:`UpdateReport` / :class:`DynamicCheckpoint` — per-batch cost
  attribution and fault-tolerant state snapshots.
* :class:`EdgeLog` / :func:`generate_edge_log` / :func:`replay` — the
  streaming workload: a deterministic timestamped edge-event log
  replayed in batches, measuring the incremental-vs-recompute
  crossover (``repro dynamic``, ``repro bench smoke``).

See ``docs/dynamic.md``.
"""

from .graph import DynamicCheckpoint, DynamicGraph, UpdateReport
from .replay import BatchStats, EdgeLog, ReplayResult, generate_edge_log, replay

__all__ = [
    "DynamicGraph",
    "UpdateReport",
    "DynamicCheckpoint",
    "EdgeLog",
    "generate_edge_log",
    "replay",
    "BatchStats",
    "ReplayResult",
]
