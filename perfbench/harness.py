"""Statistics, span folding and metric tables for perfbench.

A run has four stages:

1. **Set-up**: the workload's inputs, handles and services are built
   :data:`SETUP_REPEATS` times from scratch, one build before the first
   pass and the others between passes, so they sample the whole run;
   the median is ``setup_s``.
2. **Memory pass**, after the first set-up: one more set-up and one
   pass over it with allocations traced (tracemalloc) and the cyclic
   collector paused give ``peak_mem_mb``; its op times are not used,
   and its wall, less verification, comes out of ``--seconds``.
3. **Timed passes**, each running the workload's whole input set once,
   repeated until the rest of ``--seconds`` is spent (but at least the
   workload's ``min_passes``).  Every pass runs the same ops in the same
   order, so each op is timed once per pass; the wall metrics take each
   op's fastest time over the passes.  With ``--trace 1`` untraced and
   traced passes alternate, so both see the same machine state.
4. **Checks**: every pass's modelled and simulated numbers and counts
   must equal the first pass's (determinism guard); traced passes must
   reproduce the untraced passes' modelled numbers exactly (tracing does
   not perturb accounting); every span must be closed and the reported
   per-layer parts of an op must add up to the benchmark's span around it.

The metrics' names, units and directions are read from ``BENCHMARK.json``;
this module adds what each one measures, on which clock, and (per-layer)
which end-to-end metric it should move on which workload.
"""

from __future__ import annotations

import functools
import json
import resource
import statistics
import time
import tracemalloc
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 7
#: candidate tail percentiles, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: slack of the parts check per span: two clock reads of rounding
_FOLD_SLACK_S = 2 * max(time.get_clock_info("perf_counter").resolution, 1e-9)

WALL = "wall"
MODEL = "modelled"
MEMORY = "memory"
ENGINES = ("async", "frontier", "adaptive")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    clock: str
    #: what the metric measures (printed in the report)
    doc: str
    #: per-layer only: the end-to-end metric it should move, and where
    moves: str = ""


#: End-to-end metrics, emitted by every workload from untraced passes:
#: name -> (clock, doc).  What one "op" is depends on the workload.
_END_TO_END = {
    "setup_s": (WALL, "median set-up: inputs, handles/services with cold solves, warm-up"),
    "ops_per_s": (WALL, "ops per wall second, each op at its fastest over the passes"),
    "op_p50_ms": (WALL, "median over ops of each op's fastest wall time"),
    "op_tail_ms": (WALL, "tail over ops of each op's fastest wall time"),
    "peak_mem_mb": (MEMORY, "peak traced Python/NumPy allocation over a pass, inputs"
                    " included, cyclic collector paused"),
    "model_s": (MODEL, "modelled device seconds charged per pass"),
    "model_ops_per_s": (MODEL, "ops per modelled second"
                        " (serve-zipf: DONE jobs per simulated second)"),
    "model_p50_ms": (MODEL, "median modelled op latency"
                     " (serve-zipf: simulated latency from arrival)"),
}

def _per_layer_docs() -> "dict[str, tuple[str, str, str]]":
    """Per-layer metrics: name -> (clock, doc, what it should move)."""
    out = {
        "mesh.build_s": (WALL, "mesh builders and sweep-graph builds per set-up",
                         "setup_s on mesh-solve, mesh-churn"),
        "graph.build_s": (WALL, "graph generators (gnm graphs, edge logs) per set-up",
                          "setup_s on mesh-churn, serve-zipf"),
    }
    for e in ENGINES:
        out.update({
            f"core.{e}.mvs": (WALL, f"million vertices solved per wall second by engine {e}"
                              " (untraced, each solve at its fastest)",
                              "ops_per_s on mesh-solve"),
            f"core.{e}.phase1_ms": (WALL, "phase1-init span self time per pass",
                                    "op_p50_ms on mesh-solve"),
            f"core.{e}.phase2_ms": (WALL, "phase2-propagate span self time per pass",
                                    "op_p50_ms on mesh-solve (per-round overhead)"),
            f"core.{e}.phase3_ms": (WALL, "phase3-filter span self time per pass",
                                    "op_p50_ms on mesh-solve"),
            f"core.{e}.outer_ms": (WALL, "outer-iteration span self time per pass"
                                   " (completion detection, vertex scan)",
                                   "op_p50_ms on mesh-solve"),
            f"core.{e}.outer_iterations": (MODEL, "outer-iteration spans per pass",
                                           "op_p50_ms, model_s on mesh-solve"),
            f"core.{e}.rounds": (MODEL, "relaxation-round counter total per pass",
                                 "op_p50_ms, model_s on mesh-solve"),
            f"solver.{e}.overhead_ms": (WALL, "solve wall outside the outer-iteration spans"
                                        " per pass", "op_p50_ms on mesh-solve"),
            f"device.{e}.kernel_launches": (MODEL, "KernelCounters.kernel_launches per pass",
                                            "model_s on mesh-solve"),
            f"device.{e}.edge_work": (MODEL, "KernelCounters.edge_work per pass",
                                      "model_s on mesh-solve"),
            f"device.{e}.bytes_moved": (MODEL, "KernelCounters.bytes_moved per pass"
                                        " (computed from counts)", "model_s on mesh-solve"),
        })
    out.update({
        "engine.adaptive.dense_rounds": (MODEL, "decision_log rounds run by a dense policy"
                                         " per pass",
                                         "model_s, core.adaptive.mvs on mesh-solve"),
        "engine.adaptive.frontier_rounds": (MODEL, "decision_log rounds run by the frontier"
                                            " policy per pass",
                                            "model_s, core.adaptive.mvs on mesh-solve"),
        "dynamic.init_s": (WALL, "DynamicGraph construction (cold solve) per set-up",
                           "setup_s on mesh-churn, serve-zipf"),
        "dynamic.delete_ms": (WALL, "dynamic-delete span time outside nested re-solves"
                              " per pass", "op_p50_ms, op_tail_ms on mesh-churn"),
        "dynamic.insert_ms": (WALL, "dynamic-insert span time outside nested re-solves"
                              " per pass", "op_p50_ms, op_tail_ms on mesh-churn"),
        "dynamic.resolve_ms": (WALL, "ECL re-solve (outer-iteration) spans nested in"
                               " updates per pass", "op_tail_ms on mesh-churn"),
        "dynamic.query_ms": (WALL, "dynamic-query span time per pass",
                             "ops_per_s on mesh-churn"),
        "dynamic.api_ms": (WALL, "apply()/query() wall outside their dynamic-* spans"
                           " per pass", "op_p50_ms on mesh-churn"),
        "dynamic.read_p50_ms": (WALL, "median over queries of each query()'s fastest"
                                " untraced wall time", "ops_per_s on mesh-churn"),
        "dynamic.invalidated": (MODEL, "UpdateReport.invalidated summed per pass",
                                "model_s on mesh-churn"),
        "dynamic.resolve_vertices": (MODEL, "UpdateReport.resolve_vertices summed per pass",
                                     "model_s on mesh-churn"),
        "dynamic.merged_components": (MODEL, "UpdateReport.merged_components summed per"
                                      " pass", "model_s on mesh-churn"),
        "dynamic.split_components": (MODEL, "UpdateReport.split_components summed per pass",
                                     "model_s on mesh-churn"),
        "serve.control_us": (WALL, "median per-event wall outside the observer and"
                             " data-plane calls", "ops_per_s, op_p50_ms on serve-zipf"),
        "serve.dataplane_share": (WALL, "share of SccService.run wall inside data-plane"
                                  " calls", "ops_per_s on serve-zipf"),
        "serve.events": (MODEL, "simulated events per pass", "ops_per_s on serve-zipf"),
        "serve.dispatched": (MODEL, "execution attempts dispatched per pass",
                             "model_s on serve-zipf"),
        "serve.cache_hit_ratio": (MODEL, "solve-cache hits / lookups",
                                  "model_p50_ms on serve-zipf"),
        "serve.coalesced": (MODEL, "coalesced reads plus merged updates per pass",
                            "model_s on serve-zipf"),
        "serve.queue_peak": (MODEL, "deepest the run queue got", "model_p50_ms on serve-zipf"),
        "serve.worker_util": (MODEL, "mean worker occupancy over the simulated makespan",
                              "model_ops_per_s on serve-zipf"),
        "serve.sim_tail_ms": (MODEL, "simulated DONE-job latency at the tail percentile",
                              "model_p50_ms on serve-zipf"),
        "serve.drop_rate": (MODEL, "jobs shed, budget-rejected or dead-lettered / jobs"
                            " submitted", "model_ops_per_s on serve-zipf"),
        "obs.on_event_us": (WALL, "median wall per ObsRecorder.on_event",
                            "ops_per_s, op_tail_ms on serve-zipf"),
        "obs.share": (WALL, "share of SccService.run wall inside ObsRecorder.on_event",
                      "ops_per_s, op_tail_ms on serve-zipf"),
        "trace.overhead_frac": (WALL, "traced timed wall / untraced timed wall - 1"
                                " (median passes)", "none: the cost of observing"),
    })
    return out


_DOCS = {"end_to_end": _END_TO_END, "per_layer": _per_layer_docs()}


@functools.cache
def declared() -> dict:
    """``BENCHMARK.json``: the workloads and metrics the benchmark declares."""
    return json.loads(BENCHMARK_JSON.read_text())


def metrics(key: str) -> "tuple[Metric, ...]":
    """The declared ``end_to_end`` or ``per_layer`` metrics, in order."""
    docs = _DOCS[key]
    return tuple(Metric(m["name"], m["unit"], m["better"], *docs[m["name"]])
                 for m in declared()[key])


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail_percentile(samples: int) -> float:
    """Highest :data:`TAIL_LADDER` percentile with >= 10 samples beyond it."""
    for q in TAIL_LADDER:
        if samples * (100.0 - q) / 100.0 >= 10:
            return q
    return TAIL_LADDER[-1]


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values))


def fastest(per_pass: "list[list[float]]") -> np.ndarray:
    """Each op's fastest time over passes that time the same ops in order."""
    n = min(len(times) for times in per_pass)
    return np.min([times[:n] for times in per_pass], axis=0)


def peak_rss_mb() -> float:
    """Peak resident set size, for the report only: it moves with how the
    host maps and reclaims pages, not only with the program."""
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def checksum(array) -> int:
    """CRC of an array's bytes: a cheap bit-identity fingerprint."""
    return zlib.crc32(np.ascontiguousarray(array).tobytes())


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class SpanFold:
    """Wall time of a set of spans attributed to named parts.

    *parts* maps span names to the part they report.  A span's self time
    (its duration minus its children's) goes to the part of the nearest
    span, itself or an ancestor, whose name is mapped; so a span the
    program adds later inside a mapped one counts to that part.  Self
    time outside every mapped span is not attributed.
    """

    def __init__(self, spans, parts: "dict[str, str]") -> None:
        self.spans = list(spans)
        ids = {s.span_id for s in self.spans}
        children: "dict[int, float]" = {}
        for s in self.spans:
            if s.parent_id in ids:
                children[s.parent_id] = children.get(s.parent_id, 0.0) + s.duration
        self.part_s: "dict[str, float]" = {}
        owner: "dict[int, str | None]" = {}
        for s in self.spans:  # start order: a parent comes before its children
            part = parts.get(s.name, owner.get(s.parent_id))
            owner[s.span_id] = part
            if part is not None:
                own = s.duration - children.get(s.span_id, 0.0)
                self.part_s[part] = self.part_s.get(part, 0.0) + own

    def total(self, *names: str) -> float:
        """Summed duration (not self time) of the spans called *names*."""
        return sum(s.duration for s in self.spans if s.name in names)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def check(self, reported_s: float, *roots: str) -> "str | None":
        """Fail on an open span, or unless *reported_s* is the *roots*' time."""
        left_open = sorted({s.name for s in self.spans if not s.closed})
        if left_open:
            return f"spans never closed: {left_open}"
        gap = reported_s - self.total(*roots)
        if abs(gap) > _FOLD_SLACK_S * max(len(self.spans), 1):
            return f"reported parts miss the {'/'.join(roots)} spans by {gap:.3g} s"
        return None


class Instrumented:
    """Temporarily wrap callables in benchmark spans.

    Each target is ``(owner, attribute, span name)``; the owner may be a
    module or an instance.  A missing attribute fails the run.
    """

    _MISSING = object()

    def __init__(self, tracer, targets) -> None:
        self._tracer = tracer
        self._targets = targets
        self._saved: "list[tuple[Any, str, Any]]" = []

    def __enter__(self) -> "Instrumented":
        for owner, attr, span in self._targets:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, vars(owner).get(attr, self._MISSING)))
            setattr(owner, attr, _spanned(self._tracer, span, fn))
        return self

    def __exit__(self, *exc) -> bool:
        for owner, attr, old in reversed(self._saved):
            if old is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._saved.clear()
        return False


def _spanned(tracer, name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    """One pass over a workload's whole input set."""

    #: timed wall of the pass (ops and reads; no re-setup or checks)
    wall_s: float = 0.0
    #: what ``ops_per_s`` counts (solves, applies, or serve jobs)
    ops: int = 0
    #: wall time of each timed op, in the same order in every pass
    op_ms: "list[float]" = field(default_factory=list)
    #: when the timed wall is more than the ops: the timed steps it is
    #: made of (mesh-churn: apply plus query), in the same order
    step_ms: "list[float]" = field(default_factory=list)
    #: mesh-churn: wall time of each query()
    read_ms: "list[float]" = field(default_factory=list)
    #: modelled/simulated numbers and counts: identical in every pass
    model: "dict[str, Any]" = field(default_factory=dict)
    #: counts only a traced pass sees: identical in every traced pass
    traced_counts: "dict[str, Any]" = field(default_factory=dict)
    #: per-layer numbers (wall numbers and the counts to report)
    layers: "dict[str, float]" = field(default_factory=dict)
    attempted: int = 0
    failures: "list[str]" = field(default_factory=list)
    #: wall spent on verification, not charged to the time budget
    check_s: float = 0.0
    #: peak traced bytes outside verification (when tracemalloc traces)
    peak_b: int = 0


@contextmanager
def checking(res: PassResult):
    """Run a verification step: its wall goes to ``check_s`` and its
    allocations stay out of the pass's memory peak."""
    res.peak_b = max(res.peak_b, tracemalloc.get_traced_memory()[1])
    t0 = time.perf_counter()
    try:
        yield
    finally:
        res.check_s += time.perf_counter() - t0
        tracemalloc.reset_peak()


def mismatches(ref: dict, other: dict) -> "list[str]":
    return sorted(k for k in ref.keys() | other.keys() if ref.get(k) != other.get(k))
