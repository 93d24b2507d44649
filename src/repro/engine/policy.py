"""The two per-round propagation policies of ECL-SCC's Phase 2.

Historically the dense sweep and the frontier worklist were whole-run
*engines*: the driver picked one organization up front and every
propagation round of the run used it.  This module extracts the round
step itself — consume the current frontier/invalidated state, raise
signatures, emit device charges, return the changed-vertex set — into a
:class:`PropagationPolicy` so the organization can be chosen *per round*
(:mod:`repro.engine.scheduler`).

The two policies differ in *coverage*, the edges a round relaxes:
:data:`DENSE` relaxes every worklist edge (the sync engine's round) and
:data:`FRONTIER` only the edges incident to the current frontier (the
frontier engine's round — the *same* object
:func:`~repro.core.propagation.propagate_frontier` drains through, so
the two can never diverge in labels or charges).  How one edge is
relaxed is the same for both: a policy holds no relaxation code; its
round selects its edges, calls one round of :mod:`repro.engine.relax`
(``full_round`` or ``push_round``, shared by every Phase-2 engine) and
charges the device.  The frontier round finds its edges with one scan
over the worklist (:func:`~repro.engine.primitives.incident_edges`)
and is charged for those edges as the modelled kernel's bucket reads.

Correctness of mixing policies across rounds: every policy performs a
monotone step of the same max-propagation join semilattice, a round that
changes nothing certifies that no plain relaxation can make progress
(edges not incident to a changed vertex relax to values they already
hold), and a monotone iteration's fixed point is schedule-independent —
so any per-round policy sequence converges to the *same* signatures,
and labels stay bit-identical to the dense engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..device.costmodel import STREAM_EFF, effective_bandwidth
from ..device.spec import DeviceSpec
from .accounting import (
    ADJACENCY_EDGE_BYTES,
    PAIR_FLAG_BYTES,
    SIGNATURE_PAIR_BYTES,
    STATUS_FLAG_BYTES,
    charge_dense_round,
    charge_frontier_round,
)
from .primitives import incident_edges
from .relax import full_round, push_round

__all__ = [
    "RoundState",
    "RoundStats",
    "PropagationPolicy",
    "DensePolicy",
    "FrontierPolicy",
    "DENSE",
    "FRONTIER",
]


@dataclass
class RoundState:
    """Everything one propagation round consumes (duck-typed core state).

    The policy layer deliberately never imports :mod:`repro.core` (the
    dependency arrow points core -> engine); the driver hands the live
    core objects over through this bundle and the policies use only
    their array surface.
    """

    #: Signatures-like object exposing ``sig_in``/``sig_out`` arrays.
    sigs: object
    #: EdgeGrouping-like object over the current edge worklist
    #: (``src``/``dst``/``touched``/``num_edges``).
    grouping: object
    #: sorted unique ids of vertices whose signatures changed last round.
    frontier: np.ndarray
    #: ``num_vertices`` membership mask of ``frontier``; the frontier
    #: round's edge scan reads it at both endpoints of every worklist
    #: edge (:func:`~repro.engine.primitives.incident_edges`).
    frontier_mask: np.ndarray
    num_vertices: int
    #: apply the paper's path-compression refinements this round.
    compress: bool


@dataclass(frozen=True)
class RoundStats:
    """Backend-invariant inputs of one scheduling decision.

    ``degree_sum`` is the incidence-degree sum over the frontier (out-
    plus in-degree, a self-loop counted twice); it counts an edge under
    both endpoints, so it overcounts the unique incident edges a push
    round actually gathers by at most 2x — a deliberate conservative
    bias toward the dense policy (documented in
    ``docs/performance_model.md``).
    """

    frontier_size: int
    degree_sum: int
    worklist_edges: int
    touched: int
    num_vertices: int
    compress: bool

    @property
    def density(self) -> float:
        """Frontier-incident degree mass relative to the worklist size."""
        return self.degree_sum / max(1, self.worklist_edges)

    @property
    def avg_degree(self) -> float:
        return self.degree_sum / max(1, self.frontier_size)


class PropagationPolicy:
    """One round-step strategy; stateless."""

    #: the name decision logs and trace events record.
    name: str = ""

    def run_round(self, state: RoundState, dev) -> np.ndarray:
        """Run one relaxation round; charge *dev*; return changed mask."""
        raise NotImplementedError

    def round_cost(
        self, stats: RoundStats, spec: DeviceSpec, working_set_bytes: float
    ) -> float:
        """Modelled seconds one round under *stats* would cost.

        Uses the same bandwidth arithmetic as the cost model
        (:func:`~repro.device.costmodel.effective_bandwidth`,
        ``STREAM_EFF``) on the same byte conventions the policy's charge
        helper applies, so the scheduler's forecasts and the profiler's
        attributions share one vocabulary.  Next-frontier enqueue
        atomics are identical across policies (same changed set) and are
        left out of the comparison.
        """
        raise NotImplementedError


class DensePolicy(PropagationPolicy):
    """Full-worklist Jacobi round (the sync engine's step)."""

    name = "dense"

    def run_round(self, state: RoundState, dev) -> np.ndarray:
        g = state.grouping
        changed_v, compress_work = full_round(
            state.sigs, g.src, g.dst, g.touched, state.num_vertices,
            compress=state.compress,
        )
        enqueues = int(np.count_nonzero(changed_v))
        charge_dense_round(
            dev, edges=g.num_edges, vertices=compress_work, enqueues=enqueues
        )
        return changed_v

    def round_cost(
        self, stats: RoundStats, spec: DeviceSpec, working_set_bytes: float
    ) -> float:
        bw_irr = effective_bandwidth(spec, working_set_bytes)
        bw_str = spec.mem_bw_gbs * 1e9 * STREAM_EFF
        m = stats.worklist_edges
        seconds = m * ADJACENCY_EDGE_BYTES / bw_irr + m * PAIR_FLAG_BYTES / bw_str
        if stats.compress:
            seconds += (
                (stats.num_vertices + stats.touched)
                * SIGNATURE_PAIR_BYTES
                / bw_irr
            )
        return seconds


class FrontierPolicy(PropagationPolicy):
    """Frontier-incident round (the frontier engine's step)."""

    name = "frontier"

    def run_round(self, state: RoundState, dev) -> np.ndarray:
        g = state.grouping
        idx = incident_edges(state.frontier_mask, g.src, g.dst)
        changed_v, compress_work = push_round(
            state.sigs, g.src[idx], g.dst[idx], state.num_vertices,
            compress=state.compress,
        )
        enqueues = int(np.count_nonzero(changed_v))
        charge_frontier_round(
            dev,
            edges=idx.size,
            frontier_size=state.frontier.size,
            vertices=compress_work,
            enqueues=enqueues,
        )
        return changed_v

    def round_cost(
        self, stats: RoundStats, spec: DeviceSpec, working_set_bytes: float
    ) -> float:
        bw_irr = effective_bandwidth(spec, working_set_bytes)
        bw_str = spec.mem_bw_gbs * 1e9 * STREAM_EFF
        # unique incident edges never exceed the worklist, however large
        # the (double-counting) degree sum gets
        edges = min(stats.degree_sum, stats.worklist_edges)
        seconds = (
            edges * (ADJACENCY_EDGE_BYTES + PAIR_FLAG_BYTES) / bw_irr
            + stats.frontier_size * STATUS_FLAG_BYTES / bw_str
        )
        if stats.compress:
            # compression work is 2 * |[s; d]| = 4 * edges touched
            seconds += 4 * edges * SIGNATURE_PAIR_BYTES / bw_irr
        return seconds


#: the dense sweep; the adaptive scheduler's first candidate, so ties
#: in its forecasts break toward it.
DENSE = DensePolicy()
#: the frontier worklist round.
FRONTIER = FrontierPolicy()
