"""The algorithm runner: :func:`run_algorithm` is :func:`repro.solve`.

One call runs any of the SCC codes on any virtual device, optionally
wall-clock timing it with the paper's median-of-9 protocol and
verifying the labels against Tarjan.  The returned :class:`RunResult`
carries both the *model* runtime (virtual device cost estimate — the
number the paper-style tables use) and the Python wall time (reported
alongside for transparency).

Every algorithm returns an :class:`~repro.results.AlgoResult`, so the
dispatch is a flat name -> entry-point table; pass ``tracer=`` to
record the run's phase spans (attached to the result as
``RunResult.trace``).  Serve's SOLVE jobs look :func:`run_algorithm` up
on this module at call time, so a wrapper installed here sees them all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ..analysis.verify import verify_labels
from ..core.eclscc import ecl_scc
from ..core.minmax import minmax_scc
from ..core.options import ALL_ON, EclOptions
from ..baselines import (
    coloring_scc,
    fb_scc,
    fbtrim_scc,
    gpu_scc,
    hong_scc,
    ispan_scc,
    kosaraju_scc,
    multistep_scc,
    tarjan_scc,
)
from ..device.spec import A100, DeviceSpec
from ..engine import ArrayBackend
from ..errors import AlgorithmError
from ..faults.plan import FaultPlan
from ..graph.csr import CSRGraph
from ..profile.ledger import instrument
from ..results import AlgoResult, Status
from ..trace import NULL_TRACER, Trace, Tracer
from .timing import TimedRun, median_time

__all__ = ["RunResult", "run_algorithm", "ALGORITHM_NAMES"]


def _run_oracle(fn: Callable, graph: CSRGraph, spec: DeviceSpec, tracer) -> AlgoResult:
    """Serial oracle run: attach a device charged with all-serial work."""
    dev, tr = instrument(None, spec, tracer)
    res = fn(graph, tracer=tracer)
    # serial oracle: all work on the critical path
    with tr.span("serial-oracle"):
        dev.serial(4 * (graph.num_vertices + graph.num_edges))
    res.device = dev
    return res


#: name -> entry point.  The device-backed codes take ``(graph, *,
#: device, backend, tracer)``; the serial oracles take ``(graph, *,
#: tracer)`` and run through :func:`_run_oracle`.
_ENTRY_POINTS: "dict[str, Callable[..., AlgoResult]]" = {
    "ecl-scc": ecl_scc,
    "ecl-scc-minmax": minmax_scc,
    "gpu-scc": gpu_scc,
    "ispan": ispan_scc,
    "hong": hong_scc,
    "multistep": multistep_scc,
    "coloring": coloring_scc,
    "fb": fb_scc,
    "fb-trim": fbtrim_scc,
    "tarjan": tarjan_scc,
    "kosaraju": kosaraju_scc,
}

ALGORITHM_NAMES = tuple(_ENTRY_POINTS)

_ORACLES = ("tarjan", "kosaraju")

#: signature arrays resident per vertex (memory term of the cost model)
_SIGNATURE_ARRAYS = {"ecl-scc": 2, "ecl-scc-minmax": 4}


@dataclass
class RunResult:
    """Outcome of one (algorithm, device, graph) benchmark cell."""

    algorithm: str
    device: str
    graph_name: str
    num_vertices: int
    num_edges: int
    num_sccs: int
    model_seconds: float
    wall: Optional[TimedRun]
    counters: "dict[str, int]"
    labels: np.ndarray
    trace: Optional[Trace] = None
    status: Status = Status.CLEAN
    fault_report: Optional[object] = None
    #: the adaptive scheduler's per-round decisions (``ecl-scc`` with
    #: ``engine="adaptive"`` only; None otherwise)
    decision_log: Optional[list] = None

    @property
    def model_throughput_mvs(self) -> float:
        return self.num_vertices / self.model_seconds / 1e6

    @property
    def wall_throughput_mvs(self) -> float:
        if self.wall is None:
            return float("nan")
        return self.num_vertices / self.wall.median_s / 1e6


def _execute(
    name: str,
    graph: CSRGraph,
    spec: DeviceSpec,
    options: "EclOptions | None",
    tracer: "Tracer | None" = None,
    backend: "ArrayBackend | str | None" = None,
    faults: "FaultPlan | None" = None,
) -> AlgoResult:
    """One run of the (validated) algorithm *name*; returns its AlgoResult."""
    fn = _ENTRY_POINTS[name]
    if name in _ORACLES:
        return _run_oracle(fn, graph, spec, tracer)
    if name == "ecl-scc":
        return ecl_scc(
            graph, options=options, device=spec, backend=backend,
            tracer=tracer, faults=faults,
        )
    return fn(graph, device=spec, backend=backend, tracer=tracer)


def run_algorithm(
    graph: CSRGraph,
    algorithm: str = "ecl-scc",
    *,
    device: "DeviceSpec | None" = None,
    engine: "str | None" = None,
    backend: "ArrayBackend | str | None" = None,
    options: "EclOptions | None" = None,
    faults: "FaultPlan | None" = None,
    tracer: "Tracer | None" = None,
    verify: bool = False,
    time_wall: bool = False,
    repeats: int = 9,
) -> RunResult:
    """Solve *graph* for SCCs with *algorithm* — the one front door.

    ``solve(g)`` runs ECL-SCC on the default device (an A100 model);
    ``solve(g, "ispan")`` runs a baseline (any of
    :data:`ALGORITHM_NAMES`).  ``device`` is the
    :class:`~repro.device.DeviceSpec` the run is modelled on.
    ``backend`` selects the :class:`~repro.engine.ArrayBackend` the
    run's engine primitives account against (default: the dense
    backend, which reproduces the historical launch costs; the oracles
    ignore it).  ``engine`` selects ECL-SCC's Phase-2 engine by name —
    any entry of :data:`~repro.core.options.ENGINE_NAMES`, set on a copy
    of ``options`` (default all optimizations on).  The ``adaptive``
    engine's per-round policy decisions are carried on the result as
    ``RunResult.decision_log``.  ``faults`` injects a
    :class:`~repro.faults.FaultPlan`; the outcome lands in
    ``RunResult.status`` / ``RunResult.fault_report``.  Only ``ecl-scc``
    has Phase-2 engines, options and sound fault recovery, so passing
    ``engine``, ``options`` or ``faults`` for any other algorithm raises
    :class:`~repro.errors.AlgorithmError`.
    ``tracer`` records the run's phase spans; the trace is carried on
    the result.  ``verify`` checks labels against Tarjan (paper §4
    methodology) — skipped for the oracles themselves.  ``time_wall``
    additionally measures Python wall time with the median-of-``repeats``
    protocol (each repeat uses a fresh device so counters stay
    single-run; repeats run untraced so the caller's tracer sees exactly
    one run).
    """
    if algorithm not in _ENTRY_POINTS:
        raise AlgorithmError(
            f"unknown algorithm {algorithm!r}; known: {ALGORITHM_NAMES}"
        )
    if algorithm != "ecl-scc":
        # the one-shot BFS baselines would silently return wrong labels
        # under injected faults: only ECL-SCC's monotone re-sweeping
        # loops give them sound recovery semantics
        for what, value in (
            ("engine selection", engine),
            ("EclOptions", options),
            ("fault injection", faults),
        ):
            if value is not None:
                raise AlgorithmError(
                    f"{what} is only supported for 'ecl-scc', not"
                    f" {algorithm!r}"
                )
    elif engine is not None:
        options = replace(options or ALL_ON, engine=engine)
    spec = device if device is not None else A100
    res = _execute(algorithm, graph, spec, options, tracer, backend, faults)
    sigs = _SIGNATURE_ARRAYS.get(algorithm, 1)
    estimate = res.device.estimate(
        graph.num_vertices, graph.num_edges, signatures=sigs
    )
    wall = None
    if time_wall:
        wall = median_time(
            lambda: _execute(
                algorithm, graph, spec, options, NULL_TRACER, backend, faults
            ),
            repeats=repeats,
        )
    if verify and algorithm not in _ORACLES:
        verify_labels(graph, res.labels)
    return RunResult(
        algorithm=algorithm,
        device=spec.name,
        graph_name=graph.name or "graph",
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        num_sccs=res.num_sccs,
        model_seconds=estimate.total,
        wall=wall,
        counters=res.device.counters.snapshot(),
        labels=res.labels,
        trace=res.trace,
        status=res.status,
        fault_report=res.fault_report,
        decision_log=getattr(res, "decision_log", None),
    )
