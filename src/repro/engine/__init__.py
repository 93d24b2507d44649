"""Shared SCC engine: primitives, array backends, device accounting.

This package is the seam between the algorithms and everything below
them.  The nine baselines and the core ECL-SCC implementations compose
the device-accounted primitives in :mod:`repro.engine.primitives`; the
primitives charge the device through :mod:`repro.engine.accounting`;
and one of the two :class:`~repro.engine.backend.ArrayBackend` instances
decides how the modelled kernels sweep vertex state (topology-driven
``"dense"`` vs worklist-driven ``"frontier"``).  Labels never depend on the backend —
only the accounting does.

The Phase-2 round step is a choice too: a
:class:`~repro.engine.policy.PropagationPolicy` (the dense sweep or the
frontier worklist) performs one relaxation round, and the
:class:`~repro.engine.scheduler.AdaptiveScheduler` picks the policy per
round for the ``adaptive`` engine.  Labels never depend on the policy
sequence either — monotone max-propagation has a schedule-independent
fixed point.  Every Phase-2 engine and policy runs its rounds through
the one copy of each relaxation body (scatter-max push, path
compression) in :mod:`repro.engine.relax`.
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
from .policy import (
    DENSE,
    FRONTIER,
    DensePolicy,
    FrontierPolicy,
    PropagationPolicy,
    RoundState,
    RoundStats,
)
from .primitives import (
    active_degrees,
    backward_reach,
    incident_edges,
    colored_fb_rounds,
    colored_reach,
    forward_reach,
    frontier_expand,
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
    # policies + scheduler
    "PropagationPolicy",
    "RoundState",
    "RoundStats",
    "DensePolicy",
    "FrontierPolicy",
    "DENSE",
    "FRONTIER",
    "AdaptiveScheduler",
    "PolicyDecision",
    "DENSITY_THRESHOLD",
    "LAUNCH_BOUND_RATIO",
    # primitives
    "frontier_expand",
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
