"""The unified solve API: :func:`solve` and :class:`Solver`.

This module is the one public entry point for running an SCC code:

* :func:`solve` — one call for the static question: ``solve(g)`` runs
  ECL-SCC on the default device and returns the
  :class:`~repro.bench.RunResult`; every axis (``algorithm``,
  ``engine``, ``backend``, ``device``, ``options``, ``faults``,
  ``tracer``, verification, wall timing) is a keyword.
* :class:`Solver` — the same axes frozen into a reusable
  configuration: ``Solver(engine="frontier").solve(g)`` for snapshots,
  ``Solver(...).dynamic(g)`` for a mutable
  :class:`~repro.dynamic.DynamicGraph` handle with the same
  configuration.  A static solve is exactly the degenerate dynamic
  case: ``Solver().dynamic(g).query()`` yields the same labels as
  ``Solver().solve(g)``.

Both run through :func:`repro.bench.runners.run_algorithm`, the
implementation behind :meth:`Solver.solve`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bench.runners import RunResult, run_algorithm
from .core.options import EclOptions
from .device.spec import A100, DeviceSpec
from .dynamic.graph import DynamicGraph
from .errors import AlgorithmError
from .faults.plan import FaultPlan
from .graph.csr import CSRGraph
from .trace import Tracer

__all__ = ["solve", "Solver"]


@dataclass(frozen=True)
class Solver:
    """A reusable solve configuration (every axis of the pipeline).

    Attributes
    ----------
    algorithm:
        registered algorithm name (default ``"ecl-scc"``; see
        :data:`repro.bench.ALGORITHM_NAMES`).
    device:
        :class:`~repro.device.DeviceSpec` the run is modelled on.
    engine:
        ECL-SCC Phase-2 engine name, validated against the registry
        (``None`` keeps the options' resolution).
    backend:
        registered :class:`~repro.engine.ArrayBackend` name.
    options:
        base :class:`~repro.core.options.EclOptions`.
    faults:
        optional :class:`~repro.faults.FaultPlan` injected per run.
    """

    algorithm: str = "ecl-scc"
    device: DeviceSpec = field(default_factory=lambda: A100)
    engine: "str | None" = None
    backend: "str | None" = None
    options: "EclOptions | None" = None
    faults: "FaultPlan | None" = None

    def solve(
        self,
        graph: CSRGraph,
        *,
        tracer: "Tracer | None" = None,
        verify: bool = False,
        time_wall: bool = False,
        repeats: int = 9,
    ) -> RunResult:
        """Solve one static snapshot under this configuration."""
        return run_algorithm(
            graph,
            self.algorithm,
            self.device,
            options=self.options,
            backend=self.backend,
            engine=self.engine,
            tracer=tracer,
            faults=self.faults,
            verify=verify,
            time_wall=time_wall,
            repeats=repeats,
        )

    def dynamic(
        self,
        graph: CSRGraph,
        *,
        tracer: "Tracer | None" = None,
    ) -> DynamicGraph:
        """A mutable :class:`~repro.dynamic.DynamicGraph` handle.

        The handle maintains labels incrementally under batched edge
        insertions/deletions; its internal re-solves default to the
        frontier engine when this solver does not pin one.  Only
        ECL-SCC has incremental maintenance semantics.
        """
        if self.algorithm != "ecl-scc":
            raise AlgorithmError(
                "dynamic maintenance is only supported for 'ecl-scc',"
                f" not {self.algorithm!r}"
            )
        return DynamicGraph(
            graph,
            options=self.options,
            engine=self.engine,
            backend=self.backend,
            tracer=tracer,
            faults=self.faults,
        )


def solve(
    graph: CSRGraph,
    algorithm: str = "ecl-scc",
    *,
    device: "DeviceSpec | None" = None,
    engine: "str | None" = None,
    backend: "str | None" = None,
    options: "EclOptions | None" = None,
    faults: "FaultPlan | None" = None,
    tracer: "Tracer | None" = None,
    verify: bool = False,
    time_wall: bool = False,
    repeats: int = 9,
) -> RunResult:
    """Solve *graph* for SCCs — the one-call front door.

    ``solve(g)`` runs ECL-SCC on the default device;
    ``solve(g, "ispan")`` runs a baseline; ``engine=`` / ``backend=`` /
    ``options=`` / ``faults=`` select the pipeline axes exactly as
    :class:`Solver` does (this function is ``Solver(...).solve(...)``).
    """
    solver = Solver(
        algorithm=algorithm,
        device=device if device is not None else A100,
        engine=engine,
        backend=backend,
        options=options,
        faults=faults,
    )
    return solver.solve(
        graph, tracer=tracer, verify=verify,
        time_wall=time_wall, repeats=repeats,
    )
