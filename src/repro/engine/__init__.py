"""Shared SCC engine: primitives, array backends, device accounting.

This package is the seam between the algorithms and everything below
them.  The nine baselines and the core ECL-SCC implementations compose
the device-accounted primitives in :mod:`repro.engine.primitives`; the
primitives charge the device through :mod:`repro.engine.accounting`;
and one of the two :class:`~repro.engine.backend.ArrayBackend` instances
decides how the modelled kernels sweep vertex state (topology-driven
``"dense"`` vs worklist-driven ``"frontier"``).  Labels never depend on the backend —
only the accounting does.

The Phase-2 round shape is a choice too: the
:class:`~repro.engine.scheduler.AdaptiveScheduler` picks a dense sweep or
a frontier round per round for the ``adaptive`` engine (the two round
functions live beside the drain that calls them,
:mod:`repro.core.propagation`).  Labels never depend on the sequence of
shapes either — monotone max-propagation has a schedule-independent
fixed point.  Every Phase-2 engine runs its rounds through the one copy
of each relaxation body (scatter-max push, path compression) in
:mod:`repro.engine.relax`.
"""

from .accounting import (
    ADJACENCY_EDGE_BYTES,
    DEGREE_EDGE_BYTES,
    PAIR_FLAG_BYTES,
    QUAD_SIGNATURE_EDGE_BYTES,
    SIGNATURE_PAIR_BYTES,
    STATUS_FLAG_BYTES,
    charge_degree_pass,
    charge_dense_round,
    charge_edge_filter,
    charge_frontier_compaction,
    charge_frontier_launch,
    charge_frontier_level,
    charge_frontier_round,
    charge_relaxation_round,
    charge_scheduler_scan,
    charge_serial_scan,
    charge_vertex_scan,
    charge_winning_write,
)
from .backend import (
    DEFAULT_BACKEND,
    ArrayBackend,
    DenseNumpyBackend,
    FrontierBackend,
    backend_names,
    get_backend,
)
from .primitives import (
    active_degrees,
    backward_reach,
    incident_edges,
    colored_fb_rounds,
    colored_reach,
    forward_reach,
    masked_bfs,
    normalize_labels_to_max,
    pivot_fb_step,
    scc_edge_filter_mask,
    select_pivot,
    trim1,
    trim2,
    trim3,
)
from .scheduler import (
    DENSITY_THRESHOLD,
    LAUNCH_BOUND_RATIO,
    AdaptiveScheduler,
    PolicyDecision,
    RoundStats,
    dense_round_cost,
    frontier_round_cost,
)

__all__ = [
    # backends
    "ArrayBackend",
    "DenseNumpyBackend",
    "FrontierBackend",
    "get_backend",
    "backend_names",
    "DEFAULT_BACKEND",
    # accounting
    "STATUS_FLAG_BYTES",
    "ADJACENCY_EDGE_BYTES",
    "DEGREE_EDGE_BYTES",
    "PAIR_FLAG_BYTES",
    "SIGNATURE_PAIR_BYTES",
    "QUAD_SIGNATURE_EDGE_BYTES",
    "charge_frontier_level",
    "charge_degree_pass",
    "charge_vertex_scan",
    "charge_winning_write",
    "charge_serial_scan",
    "charge_relaxation_round",
    "charge_edge_filter",
    "charge_frontier_compaction",
    "charge_frontier_launch",
    "charge_frontier_round",
    "charge_dense_round",
    "charge_scheduler_scan",
    # scheduler
    "AdaptiveScheduler",
    "PolicyDecision",
    "RoundStats",
    "dense_round_cost",
    "frontier_round_cost",
    "DENSITY_THRESHOLD",
    "LAUNCH_BOUND_RATIO",
    # primitives
    "masked_bfs",
    "forward_reach",
    "backward_reach",
    "colored_fb_rounds",
    "colored_reach",
    "active_degrees",
    "trim1",
    "trim2",
    "trim3",
    "select_pivot",
    "pivot_fb_step",
    "scc_edge_filter_mask",
    "normalize_labels_to_max",
    "incident_edges",
]
