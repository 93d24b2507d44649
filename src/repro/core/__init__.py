"""The paper's contribution: the ECL-SCC algorithm.

Typical use::

    from repro.core import ecl_scc
    result = ecl_scc(graph)
    result.labels        # per-vertex SCC labels (max member ID)
"""

from .options import (
    ALL_OFF,
    ALL_ON,
    ENGINE_NAMES,
    EclOptions,
    ablation_variants,
)
from .signatures import Signatures
from .propagation import (
    BlockPartition,
    EdgeGrouping,
    dense_round,
    frontier_round,
    propagate_async,
    propagate_frontier,
    propagate_sync,
)
from .worklist import DoubleBufferWorklist, VertexFrontier, phase3_filter
from .eclscc import EclResult, ecl_scc
from .reference import ecl_scc_reference
from .minmax import minmax_scc

__all__ = [
    "ALL_OFF",
    "ALL_ON",
    "EclOptions",
    "ablation_variants",
    "ENGINE_NAMES",
    "Signatures",
    "BlockPartition",
    "EdgeGrouping",
    "dense_round",
    "frontier_round",
    "propagate_async",
    "propagate_frontier",
    "propagate_sync",
    "DoubleBufferWorklist",
    "VertexFrontier",
    "phase3_filter",
    "EclResult",
    "ecl_scc",
    "ecl_scc_reference",
    "minmax_scc",
]
