"""repro — a from-scratch Python reproduction of ECL-SCC (SC '23).

"A GPU Algorithm for Detecting Strongly Connected Components",
Alabandi, Sands, Biros & Burtscher, SC '23 (doi 10.1145/3581784.3607071).

Quick start::

    from repro import ecl_scc, CSRGraph

    g = CSRGraph.from_edges([0, 1, 2, 2], [1, 2, 0, 3])
    result = ecl_scc(g)
    result.labels          # -> [2, 2, 2, 3]: vertices 0,1,2 form one SCC

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.core` — the ECL-SCC algorithm and its optimizations;
* :mod:`repro.graph` — CSR graphs, generators, synthetic SuiteSparse suite;
* :mod:`repro.mesh` — radiative-transfer meshes and sweep-graph builder;
* :mod:`repro.baselines` — Tarjan/Kosaraju oracles, FB, GPU-SCC, iSpan, Hong;
* :mod:`repro.device` — virtual GPU/CPU specs, counters, cost model;
* :mod:`repro.sweep` — the downstream transport-sweep application;
* :mod:`repro.bench` — the paper's tables/figures as runnable experiments;
* :mod:`repro.trace` — structured tracing (nested spans, counters, JSONL);
* :mod:`repro.faults` — fault injection, checkpoint/restart, self-healing.

Every ``*_scc`` entry point returns an :class:`~repro.results.AlgoResult`
(or a subclass) and accepts an optional ``tracer=`` keyword; see
``docs/observability.md``.

The one front door is :func:`repro.solve` (one call, every pipeline axis
as a keyword); it is :func:`repro.bench.runners.run_algorithm` under its
public name.  Mutable graphs are served by :class:`repro.DynamicGraph`
(:mod:`repro.dynamic`), whose :meth:`~repro.dynamic.DynamicGraph.query`
is the dynamic generalization of a static solve.  See
``docs/dynamic.md``.
"""

from .core.eclscc import EclResult, ecl_scc
from .core.options import EclOptions
from .faults.plan import FaultPlan
from .graph.csr import CSRGraph
from .baselines.tarjan import tarjan_scc
from .bench.runners import run_algorithm as solve
from .mesh.sweepgraph import build_sweep_graph
from .analysis.verify import verify_labels
from .dynamic.graph import DynamicGraph
from .results import AlgoResult, Status, count_sccs
from .trace import NULL_TRACER, NullTracer, Trace, Tracer

__version__ = "1.0.0"

__all__ = [
    "solve",
    "DynamicGraph",
    "AlgoResult",
    "Status",
    "EclResult",
    "ecl_scc",
    "EclOptions",
    "FaultPlan",
    "count_sccs",
    "Trace",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "CSRGraph",
    "tarjan_scc",
    "build_sweep_graph",
    "verify_labels",
    "__version__",
]
