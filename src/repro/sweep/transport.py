"""Multi-ordinate transport: source iteration over all discrete ordinates.

This is the paper's full application context (§1): the radiative transfer
equation is solved by sweeping each discrete ordinate's graph in upwind
order; with isotropic scattering, the ordinates couple through the scalar
flux, so the whole sweep set iterates ("source iteration") until the
scalar flux converges.  SCC detection runs once per ordinate up front —
the paper's point that "SCC detection must be performed separately for
each discrete ordinate" — and the schedules are then reused across all
source iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.eclscc import ecl_scc
from ..errors import ConvergenceError
from ..graph.csr import CSRGraph
from ..mesh.core import Mesh
from ..mesh.sweepgraph import sweep_graphs
from ..types import FLOAT_DTYPE
from .scheduler import SweepSchedule, sweep_schedule
from .solver import solve_transport_sweep

__all__ = ["TransportProblem", "TransportSolution", "solve_transport"]


@dataclass
class TransportProblem:
    """A model steady-state transport problem on a mesh.

    Attributes
    ----------
    mesh:
        the spatial mesh (graph vertices = elements).
    num_ordinates:
        size of the angular quadrature (equal weights 1/N).
    sigma_t, sigma_s:
        total and isotropic-scattering cross sections (constant);
        ``sigma_s < sigma_t`` guarantees source iteration contracts.
    source:
        external isotropic source per element (scalar or array).
    coupling:
        upwind face-coupling weight (see :mod:`repro.sweep.solver`).
    """

    mesh: Mesh
    num_ordinates: int = 8
    sigma_t: float = 2.0
    sigma_s: float = 0.5
    source: "float | np.ndarray" = 1.0
    coupling: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma_s < self.sigma_t:
            raise ConvergenceError(
                "need 0 <= sigma_s < sigma_t for source iteration to converge"
            )


@dataclass
class TransportSolution:
    """Converged scalar flux plus per-ordinate diagnostics."""

    scalar_flux: np.ndarray
    source_iterations: int
    flux_residual: float
    ordinates: np.ndarray
    num_sccs_per_ordinate: "list[int]"
    schedule_depths: "list[int]"
    scc_detect_model_seconds: float


def solve_transport(
    problem: TransportProblem,
    *,
    tol: float = 1e-10,
    max_source_iterations: int = 200,
) -> TransportSolution:
    """Solve *problem* by source iteration over SCC-scheduled sweeps.

    Returns the converged scalar flux ``phi`` with
    ``sigma_t * psi_d = q + sigma_s * phi / N + coupling * sum_upwind psi_d``
    per ordinate d and ``phi = (1/N) * sum_d psi_d``.
    """
    mesh = problem.mesh
    n = mesh.num_elements
    pairs = sweep_graphs(mesh, problem.num_ordinates)
    ordinates = np.asarray([omega for omega, _ in pairs])

    # --- SCC detection + scheduling, once per ordinate -------------------
    schedules: "list[tuple[CSRGraph, SweepSchedule, np.ndarray]]" = []
    num_sccs = []
    depths = []
    detect_seconds = 0.0
    for _, graph in pairs:
        res = ecl_scc(graph)
        sch = sweep_schedule(graph, res.labels)
        schedules.append((graph, sch, res.labels))
        num_sccs.append(res.num_sccs)
        depths.append(sch.depth)
        detect_seconds += res.estimated_seconds

    q_ext = np.broadcast_to(
        np.asarray(problem.source, dtype=FLOAT_DTYPE), (n,)
    ).copy()
    phi = np.zeros(n, dtype=FLOAT_DTYPE)
    weight = 1.0 / problem.num_ordinates

    for iteration in range(1, max_source_iterations + 1):
        scatter = problem.sigma_s * phi * weight
        new_phi = np.zeros(n, dtype=FLOAT_DTYPE)
        for graph, sch, labels in schedules:
            sweep = solve_transport_sweep(
                graph,
                sch,
                labels,
                sigma_t=problem.sigma_t,
                source=q_ext + scatter,
                coupling=problem.coupling,
            )
            new_phi += weight * sweep.psi
        residual = float(np.max(np.abs(new_phi - phi))) if n else 0.0
        phi = new_phi
        if residual <= tol:
            return TransportSolution(
                scalar_flux=phi,
                source_iterations=iteration,
                flux_residual=residual,
                ordinates=ordinates,
                num_sccs_per_ordinate=num_sccs,
                schedule_depths=depths,
                scc_detect_model_seconds=detect_seconds,
            )
    raise ConvergenceError(
        f"source iteration did not reach {tol} in {max_source_iterations}"
        " iterations (scattering ratio too close to 1?)"
    )
