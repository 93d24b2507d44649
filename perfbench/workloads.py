"""The three perfbench workloads.

Each workload builds its inputs from the seed (``setup``) and runs them
through the public ``repro`` API once per pass (``run_pass``).  A pass
returns the wall time of each op, in the same order in every pass, the
modelled/simulated numbers and counts the determinism guard compares,
and, when traced, the per-layer numbers folded from spans.  Why each
workload was chosen is recorded in ``BENCHMARK.json``.

| workload       | one op                         | what it stresses            |
|----------------|--------------------------------|-----------------------------|
| mesh-solve     | ``repro.solve`` of a sweep graph | per-round overhead (narrow rounds) |
| mesh-churn     | ``DynamicGraph.apply`` of a 12-event batch | the dynamic layer |
| serve-zipf     | one simulated event of ``SccService.run`` | control plane and recorder |
"""

from __future__ import annotations

import zlib
from dataclasses import astuple
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import repro
import repro.bench.runners
import repro.serve.service
from repro.dynamic import generate_edge_log
from repro.dynamic.replay import _net_effect
from repro.graph.generators import random_gnm
from repro.mesh import SweepGraphBuilder, ordinates_for
from repro.mesh.suite import SMALL_MESH_SPECS
from repro.obs import ObsRecorder
from repro.serve import SccService, ServeBenchConfig
from repro.serve.bench import _resolve_deletions, build_workload, verify_report

from harness import (ENGINES, Instrumented, PassResult, SpanFold, checking, checksum, fastest,
                     median, percentile, tail_percentile)

#: builder resolution scale of ``small_mesh_suite`` at laptop size
MESH_SCALE = 0.32
#: the spans of one ECL solve, mapped to the core-layer part they report
CORE_PARTS = {"outer-iteration": "outer", "phase1-init": "phase1",
              "phase2-propagate": "phase2", "phase3-filter": "phase3"}


def _failure(where: str, exc: Exception) -> str:
    return f"{where}: {type(exc).__name__}: {exc}"


def _mesh_graphs(name: str, scale: float, rotation: np.ndarray, ordinates: int, tracer):
    """Sweep graphs of one Table-1 mesh for a (rotated) ordinate set."""
    spec = next(s for s in SMALL_MESH_SPECS if s.name == name)
    with tracer.span("mesh.build", mesh=name):
        mesh = spec.builder(max(2, int(round(spec.paper_n * scale))))
        builder = SweepGraphBuilder(mesh)
        return [
            builder.build(rotation @ omega, name=f"{name}-o{i}")
            for i, omega in enumerate(ordinates_for(mesh.embedding_dim, ordinates))
        ]


def _tilt(rng: np.random.Generator, max_deg: float) -> np.ndarray:
    """Rotation by at most *max_deg* degrees about a random axis."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    theta = np.deg2rad(max_deg) * rng.random()
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(theta) * k + (1 - np.cos(theta)) * k @ k


def _fold_core(fold: SpanFold, events, layers: dict, counts: dict, engine: str) -> float:
    """Add traced ECL solves' core-layer numbers for *engine*.

    *fold* maps at least :data:`CORE_PARTS`.  Returns the milliseconds
    reported, so callers can check them.
    """
    reported = 0.0
    for part in ("phase1", "phase2", "phase3", "outer"):
        ms = fold.part_s.get(part, 0.0) * 1e3
        layers[f"core.{engine}.{part}_ms"] = layers.get(f"core.{engine}.{part}_ms", 0.0) + ms
        reported += ms
    rounds = sum(int(e.value) for e in events if e.name == "relaxation-round")
    for key, value in (("outer_iterations", fold.count("outer-iteration")), ("rounds", rounds)):
        counts[f"core.{engine}.{key}"] = counts.get(f"core.{engine}.{key}", 0) + value
    return reported


class Workload:
    """``setup(seed, tracer)`` builds a context; ``run_pass`` runs it once."""

    name = ""
    #: passes every run makes, whatever ``--seconds`` says (two, so the
    #: determinism guard always has a pass to compare); with the ops per
    #: pass it sets the percentile ``op_tail_ms`` reports
    min_passes = 2

    def __init__(self, tiny: bool = False) -> None:
        self.tiny = tiny

    def fastest_layers(self, ctx, passes: "list[PassResult]") -> "dict[str, float]":
        """Per-layer wall numbers taken from the untraced passes' op times."""
        return {}


# ----------------------------------------------------------------------
# static solves
# ----------------------------------------------------------------------
class MeshSolve(Workload):
    """Every sweep graph solved by every Phase-2 engine; op = one solve."""

    name = "mesh-solve"
    min_passes = 5
    meshes = ("toroid-hex", "toroid-wedge", "torch-hex", "beam-hex")
    #: the seed tilts the paper's ordinate set by at most this much: the
    #: graphs change with the seed while the outer-iteration counts, and
    #: so the cost, stay close to the paper's configuration
    max_tilt_deg = 1.0

    def setup(self, seed: int, tracer):
        rotation = _tilt(np.random.default_rng(seed), self.max_tilt_deg)
        scale = 0.12 if self.tiny else MESH_SCALE
        graphs = [g for name in self.meshes
                  for g in _mesh_graphs(name, scale, rotation, 2, tracer)]
        warm = random_gnm(256, 1024, seed=seed)
        for engine in ENGINES:
            repro.solve(warm, engine=engine)
        return SimpleNamespace(graphs=graphs, reference={})

    def sizes(self, ctx) -> dict:
        return {
            "graphs": len(ctx.graphs),
            "vertices": sum(g.num_vertices for g in ctx.graphs),
            "edges": sum(g.num_edges for g in ctx.graphs),
            "solves_per_pass": len(ctx.graphs) * len(ENGINES),
        }

    def run_pass(self, ctx, *, traced: bool, first: bool) -> PassResult:
        res = PassResult()
        op_model = []
        for gi, g in enumerate(ctx.graphs):
            for engine in ENGINES:
                res.attempted += 1
                tracer = repro.Tracer() if traced else None
                try:
                    t0 = perf_counter()
                    if traced:
                        with tracer.span("solve", engine=engine):
                            out = repro.solve(g, engine=engine, tracer=tracer)
                    else:
                        out = repro.solve(g, engine=engine)
                    dt = perf_counter() - t0
                except Exception as exc:  # a failed op is counted, not fatal
                    res.failures.append(_failure(f"{g.name}/{engine}", exc))
                    continue
                res.wall_s += dt
                res.ops += 1
                res.op_ms.append(dt * 1e3)
                op_model.append(out.model_seconds)
                self._account(res, out, engine, f"{gi}/{engine}")
                if traced:
                    self._fold(res, tracer, engine, g.name)
                if first:
                    with checking(res):
                        if gi not in ctx.reference:
                            ctx.reference[gi] = repro.tarjan_scc(g).labels
                        if not np.array_equal(out.labels, ctx.reference[gi]):
                            res.failures.append(
                                f"{g.name}/{engine}: labels differ from tarjan_scc")
        model_s = sum(op_model)
        res.model.update(
            model_s=model_s,
            model_ops_per_s=len(op_model) / model_s if model_s else 0.0,
            model_p50_ms=median(op_model) * 1e3 if op_model else 0.0,
        )
        res.layers.update({k: v for k, v in res.model.items() if "." in k})
        res.layers.update(res.traced_counts)
        return res

    def fastest_layers(self, ctx, passes) -> "dict[str, float]":
        best = fastest([p.op_ms for p in passes])
        if best.size != len(ctx.graphs) * len(ENGINES):
            return {}  # a solve failed; the run reports it
        # ops run graph by graph, every engine on each graph
        best = best.reshape(len(ctx.graphs), len(ENGINES))
        vertices = sum(g.num_vertices for g in ctx.graphs)
        return {f"core.{e}.mvs": vertices / best[:, i].sum() / 1e3
                for i, e in enumerate(ENGINES)}

    @staticmethod
    def _fold(res: PassResult, tracer, engine: str, graph: str) -> None:
        layers = res.layers
        fold = SpanFold(tracer.trace.spans, {"solve": "overhead", **CORE_PARTS})
        reported = _fold_core(fold, tracer.trace.events, layers, res.traced_counts, engine)
        overhead = fold.part_s.get("overhead", 0.0) * 1e3
        layers[f"solver.{engine}.overhead_ms"] = (
            layers.get(f"solver.{engine}.overhead_ms", 0.0) + overhead)
        problem = fold.check((reported + overhead) / 1e3, "solve")
        if problem:
            res.failures.append(f"{graph}/{engine}: {problem}")

    @staticmethod
    def _account(res: PassResult, out, engine: str, key: str) -> None:
        """Modelled numbers and counts of one solve (determinism guard)."""
        counters = out.counters
        decisions = out.decision_log or []
        res.model[key] = (
            out.model_seconds,
            tuple(sorted(counters.items())),
            out.num_sccs,
            checksum(out.labels),
            zlib.crc32(repr(decisions).encode()),
        )
        for name in ("kernel_launches", "edge_work", "bytes_moved"):
            k = f"device.{engine}.{name}"
            res.model[k] = res.model.get(k, 0) + int(counters.get(name, 0))
        if engine == "adaptive":
            for label, test in (("dense_rounds", lambda p: p.startswith("dense")),
                                ("frontier_rounds", lambda p: p == "frontier")):
                k = f"engine.adaptive.{label}"
                res.model[k] = res.model.get(k, 0) + sum(1 for d in decisions if test(d.policy))


# ----------------------------------------------------------------------
# dynamic churn
# ----------------------------------------------------------------------
#: the spans of a traced apply/query, mapped to the dynamic-layer part
#: they report; re-solves nested in an update are reported on their own
DYNAMIC_PARTS = {"apply": "api", "query": "api", "dynamic-delete": "delete",
                 "dynamic-insert": "insert", "dynamic-query": "query",
                 "outer-iteration": "resolve"}


class MeshChurn(Workload):
    name = "mesh-churn"
    batch_events = 12
    #: toroid-hex at 3,072 vertices: an apply costs half what it does at
    #: ``MESH_SCALE`` (6,000 vertices), so a run times each apply twice as
    #: often and its fastest time is steadier
    scale = 0.24

    def __init__(self, tiny: bool = False) -> None:
        super().__init__(tiny)
        # several short logs replayed from the same base graph: random
        # inserts collapse a sweep graph into one giant SCC at a
        # seed-dependent pace, so one long log makes the cost of a pass
        # depend on the seed far more than on the code.  Sixteen keep a
        # pass near 3 s, so a run times each apply about ten times
        self.logs, self.events = (2, 48) if tiny else (16, 144)

    def setup(self, seed: int, tracer):
        scale = 0.12 if self.tiny else self.scale
        graph = _mesh_graphs("toroid-hex", scale, np.eye(3), 2, tracer)[0]
        n = graph.num_vertices
        with tracer.span("graph.build"):
            seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=self.logs)
            logs = [generate_edge_log(graph, events=self.events, seed=int(s)) for s in seeds]
        batches = []
        for log in logs:
            batches.append([])
            for lo, hi in log.batches(self.batch_events):
                dels, ins = _net_effect(n, log.op[lo:hi], log.src[lo:hi], log.dst[lo:hi])
                batches[-1].append({"deletions": dels if dels[0].size else None,
                                    "insertions": ins if ins[0].size else None})
        with tracer.span("dynamic.init"):
            dg = repro.DynamicGraph(graph, tracer=tracer)
        ckpt = dg.checkpoint()
        dg.apply(**batches[0][0])
        dg.query()
        dg.restore(ckpt)
        return SimpleNamespace(graph=graph, batches=batches, dg=dg, ckpt=ckpt,
                               tracer=tracer, events=sum(log.num_events for log in logs))

    def sizes(self, ctx) -> dict:
        return {
            "vertices": ctx.graph.num_vertices,
            "edges": ctx.graph.num_edges,
            "logs": len(ctx.batches),
            "events": ctx.events,
            "applies_per_pass": sum(len(b) for b in ctx.batches),
        }

    def run_pass(self, ctx, *, traced: bool, first: bool) -> PassResult:
        res = PassResult()
        dg, tracer = ctx.dg, ctx.tracer
        span_start, event_start = len(tracer.trace.spans), len(tracer.trace.events)
        counts = dict.fromkeys(("invalidated", "resolve_vertices", "merged_components",
                                "split_components"), 0)
        op_model, reports_seen, model_s = [], [], 0.0
        for li, log_batches in enumerate(ctx.batches):
            dg.restore(ctx.ckpt)
            before = dg.model_seconds()
            for bi, kwargs in enumerate(log_batches):
                res.attempted += 1
                try:
                    t0 = perf_counter()
                    if traced:
                        with tracer.span("apply"):
                            reports = dg.apply(**kwargs)
                        t1 = perf_counter()
                        with tracer.span("query"):
                            dg.query()
                    else:
                        reports = dg.apply(**kwargs)
                        t1 = perf_counter()
                        dg.query()
                    t2 = perf_counter()
                except Exception as exc:  # the handle's state is unknown now
                    res.failures.append(_failure(f"log {li} batch {bi}", exc))
                    break
                res.wall_s += t2 - t0
                res.ops += 1
                res.op_ms.append((t1 - t0) * 1e3)
                res.read_ms.append((t2 - t1) * 1e3)
                res.step_ms.append((t2 - t0) * 1e3)
                op_model.append(sum(r.model_seconds for r in reports))
                reports_seen.extend(astuple(r) for r in reports)
                for r in reports:
                    for key in counts:
                        counts[key] += getattr(r, key)
            model_s += dg.model_seconds() - before
            res.model[f"labels/{li}"] = checksum(dg.labels)
            if first or li == len(ctx.batches) - 1:
                with checking(res):
                    if not np.array_equal(dg.labels, repro.tarjan_scc(dg.graph()).labels):
                        res.failures.append(f"log {li}: labels differ from tarjan_scc")
        res.model.update(
            model_s=model_s,
            model_ops_per_s=len(op_model) / model_s if model_s else 0.0,
            model_p50_ms=median(op_model) * 1e3 if op_model else 0.0,
            reports=zlib.crc32(repr(reports_seen).encode()),
            **{f"dynamic.{k}": v for k, v in counts.items()},
        )
        if traced:
            self._fold(res, dg, tracer.trace.spans[span_start:], tracer.trace.events[event_start:])
        res.layers.update({k: v for k, v in res.model.items() if k.startswith("dynamic.")})
        res.layers.update(res.traced_counts)
        return res

    def fastest_layers(self, ctx, passes) -> "dict[str, float]":
        return {"dynamic.read_p50_ms": median(fastest([p.read_ms for p in passes]))}

    @staticmethod
    def _fold(res: PassResult, dg, spans, events) -> None:
        fold = SpanFold(spans, DYNAMIC_PARTS)
        layers = res.layers
        for part in ("delete", "insert", "resolve", "query", "api"):
            layers[f"dynamic.{part}_ms"] = fold.part_s.get(part, 0.0) * 1e3
        reported = sum(layers[f"dynamic.{part}_ms"] for part in
                       ("delete", "insert", "resolve", "query", "api"))
        problem = fold.check(reported / 1e3, "apply", "query")
        if problem:
            res.failures.append(f"traced pass: {problem}")
        _fold_core(SpanFold(spans, CORE_PARTS), events, layers, res.traced_counts,
                   dg.options.phase2_engine)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class _ClockObserver:
    """Stamps the wall clock at every observer call, then records."""

    def __init__(self, recorder: ObsRecorder, tracer=None) -> None:
        self.recorder = recorder
        self.tracer = tracer
        self.stamps: "list[float]" = []

    def on_event(self, service) -> None:
        self.stamps.append(perf_counter())
        if self.tracer is None:
            self.recorder.on_event(service)
        else:
            with self.tracer.span("obs.on_event"):
                self.recorder.on_event(service)


class ServeZipf(Workload):
    name = "serve-zipf"
    dataplane_methods = ("apply", "query", "graph", "checkpoint", "restore")

    def __init__(self, tiny: bool = False) -> None:
        super().__init__(tiny)
        self.jobs = 120 if tiny else 2000

    def setup(self, seed: int, tracer):
        # zipf-clean (cache and coalescing on) widened to 8 graphs; the
        # seed drives the job stream.  The graphs keep seeds 0-7: the cold
        # solve of a gnm graph costs one of two amounts depending on its
        # seed, and the hot graph's cost sets the arrival rate, so per-seed
        # graphs would switch the offered load between two levels 1.7x apart
        cfg = ServeBenchConfig(num_graphs=8, num_jobs=self.jobs, seed=seed)
        with tracer.span("graph.build"):
            graphs = {
                f"g{i}": random_gnm(cfg.graph_vertices, cfg.graph_edges, seed=i)
                for i in range(cfg.num_graphs)
            }
        initial = {name: g.edges() for name, g in graphs.items()}
        # arrivals are calibrated to the hot graph's cold solve, as in
        # ``repro serve bench``
        mean_service_s = float(repro.solve(graphs["g0"]).model_seconds)
        stream = [(at, _resolve_deletions(spec, initial))
                  for at, spec in build_workload(cfg, mean_service_s=mean_service_s)]
        ctx = SimpleNamespace(cfg=cfg, graphs=graphs, stream=stream)
        warm = ObsRecorder()
        self._service(ctx, _ClockObserver(warm), tracer, jobs=64).run()
        return ctx

    @staticmethod
    def _service(ctx, observer, tracer, jobs=None) -> SccService:
        cfg = ctx.cfg
        svc = SccService(
            workers=cfg.workers, wip_limit=cfg.wip_limit,
            queue_capacity=cfg.queue_capacity, shed_policy=cfg.shed_policy,
            engine=cfg.engine, backend=cfg.backend, faults=cfg.plan,
            breakers_enabled=cfg.breakers_enabled,
            breaker_threshold=cfg.breaker_threshold,
            cache_enabled=cfg.cache_enabled, cache_bytes=cfg.cache_bytes,
            coalesce_enabled=cfg.coalesce_enabled, merge_updates=cfg.merge_updates,
            observer=observer, seed=cfg.seed,
        )
        for name, g in ctx.graphs.items():
            with tracer.span("dynamic.init"):
                svc.register_graph(name, g)
        for at, spec in ctx.stream[:jobs]:
            svc.submit(spec, at=at)
        return svc

    def sizes(self, ctx) -> dict:
        return {
            "graphs": len(ctx.graphs),
            "vertices": ctx.cfg.graph_vertices,
            "edges": ctx.cfg.graph_edges,
            "jobs": len(ctx.stream),
            "events": getattr(ctx, "events", None),
        }

    def run_pass(self, ctx, *, traced: bool, first: bool) -> PassResult:
        res = PassResult()
        recorder = ObsRecorder()
        tracer = repro.Tracer() if traced else None
        observer = _ClockObserver(recorder, tracer)
        svc = self._service(ctx, observer, repro.NULL_TRACER)
        if traced:
            targets = [(svc.graph_handle(name), m, f"dataplane.{m}")
                       for name in ctx.graphs for m in self.dataplane_methods]
            targets += [(repro.bench.runners, "run_algorithm", "dataplane.run_algorithm"),
                        (repro.serve.service, "profile_run", "dataplane.profile_run")]
            with Instrumented(tracer, targets):
                t0 = perf_counter()
                with tracer.span("serve.run"):
                    report = svc.run()
                t1 = perf_counter()
        else:
            t0 = perf_counter()
            report = svc.run()
            t1 = perf_counter()
        recorder.finalize(report)
        ctx.events = len(observer.stamps)
        # event i runs from the previous observer call to observer call i
        stamps = [t0] + observer.stamps
        res.op_ms = list(np.diff(stamps) * 1e3)
        res.step_ms = res.op_ms + [(t1 - stamps[-1]) * 1e3]
        res.wall_s = t1 - t0
        res.attempted = res.ops = len(report.jobs)
        self._account(res, svc, report, len(observer.stamps))
        if traced:
            self._fold(res, tracer)
        if first:
            with checking(res):
                outcome = verify_report(report, ctx.graphs, engine=ctx.cfg.engine,
                                        backend=ctx.cfg.backend)
            res.failures.extend(outcome["failures"])
        return res

    @staticmethod
    def _account(res: PassResult, svc, report, events: int) -> None:
        jobs = report.jobs
        states = report.by_state()
        counters = report.metrics.as_dict()["counters"]
        latencies = report.done_latencies()
        done = states.get("done", 0)
        cache = report.cache or {}
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        dropped = sum(states.get(s, 0) for s in ("shed", "rejected", "dead-letter"))
        res.model.update(
            model_s=sum(d["service_s"] for j in jobs for d in j.attempts_detail),
            model_ops_per_s=done / report.makespan_s if report.makespan_s else 0.0,
            model_p50_ms=median(latencies) * 1e3 if latencies else 0.0,
            jobs=zlib.crc32(repr([
                (j.id, str(j.state), j.finish_s, j.attempts,
                 [d["decision"] for d in j.decisions])
                for j in jobs
            ]).encode()),
            labels=zlib.crc32(b"".join(
                checksum(j.result.labels).to_bytes(4, "little")
                for j in jobs if j.result is not None and hasattr(j.result, "labels")
            )),
            states=tuple(sorted(states.items())),
            counters=tuple(sorted(counters.items())),
        )
        res.model.update({
            "serve.events": events,
            "serve.dispatched": counters.get("dispatched", 0),
            "serve.cache_hit_ratio": cache.get("hits", 0) / lookups if lookups else 0.0,
            "serve.coalesced": (counters.get("coalesced_reads", 0)
                                + counters.get("coalesced_updates", 0)),
            "serve.queue_peak": report.queue_peak_depth,
            "serve.worker_util": svc.pool.utilization(report.makespan_s),
            "serve.sim_tail_ms": (percentile(latencies, tail_percentile(len(latencies))) * 1e3
                                  if latencies else 0.0),
            "serve.drop_rate": dropped / len(jobs) if jobs else 0.0,
        })
        res.layers.update({k: v for k, v in res.model.items() if k.startswith("serve.")})

    def _fold(self, res: PassResult, tracer) -> None:
        dataplane = [f"dataplane.{m}" for m in self.dataplane_methods + ("run_algorithm",
                                                                         "profile_run")]
        fold = SpanFold(tracer.trace.spans, {"serve.run": "control", "obs.on_event": "obs",
                                             **dict.fromkeys(dataplane, "dataplane")})
        root = next(s for s in fold.spans if s.name == "serve.run")
        top = [s for s in fold.spans if s.parent_id == root.span_id]
        observed = [s for s in top if s.name == "obs.on_event"]
        calls = sorted((s for s in top if s.name in dataplane), key=lambda s: s.t_start)
        # control time of event i: from the end of observer call i-1 to
        # the start of observer call i, minus the data-plane calls between
        control, j = [], 0
        start = root.t_start
        for obs in observed + [None]:
            stop = root.t_end if obs is None else obs.t_start
            busy = 0.0
            while j < len(calls) and calls[j].t_start < stop:
                busy += calls[j].duration
                j += 1
            control.append(stop - start - busy)
            start = None if obs is None else obs.t_end
        layers = res.layers
        layers["serve.control_us"] = median(control[:-1]) * 1e6 if observed else 0.0
        layers["serve.dataplane_share"] = fold.part_s.get("dataplane", 0.0) / root.duration
        layers["obs.on_event_us"] = (median([s.duration for s in observed]) * 1e6
                                     if observed else 0.0)
        layers["obs.share"] = fold.part_s.get("obs", 0.0) / root.duration
        reported = (sum(control) + fold.part_s.get("dataplane", 0.0)
                    + fold.part_s.get("obs", 0.0))
        problem = fold.check(reported, "serve.run")
        if problem:
            res.failures.append(f"traced pass: {problem}")


WORKLOADS = {w.name: w for w in (MeshSolve, MeshChurn, ServeZipf)}
