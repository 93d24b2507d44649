"""Command-line interface.

Run as ``python -m repro`` (or ``python -m repro.cli``).  Subcommands:

* ``scc``      — detect SCCs in a graph file with any of the nine codes;
* ``stats``    — print Table-1/2/3-style properties of a graph file;
* ``gen``      — generate a workload (mesh sweep graph or power-law
  stand-in) and write it to a graph file;
* ``bench``    — regenerate one of the paper's tables/figures (plus the
  ``smoke`` CI run and the ``engines`` adaptive-vs-static matrix);
* ``trace``    — run one algorithm with the structured tracer and print
  a span/counter summary (optionally dumping the trace as JSONL);
* ``dynamic``  — replay a deterministic edge log through the incremental
  SCC engine (repro.dynamic) and print the incremental-vs-recompute
  crossover table;
* ``chaos``    — run ECL-SCC under a seeded fault plan (repro.faults)
  and report the injected faults, recoveries, and cost overhead;
* ``serve``    — run the SCC-as-a-service control plane (repro.serve):
  a seeded Zipf bench with the breaker-win gate, or a chaos run under
  a service-layer fault plan with full terminal-state verification;
* ``devices``  — list the virtual device models;
* ``sweep``    — run the full RTE pipeline (mesh -> SCC -> schedule ->
  model transport solve) and report per-ordinate results.

Graph file formats are inferred from the extension (.mtx Matrix Market,
.txt/.edges edge list, .gr DIMACS) or forced with ``--format``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .bench import gates

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _load_graph(path: str, fmt: str):
    from .graph import read_dimacs, read_edge_list, read_matrix_market, read_npz

    p = Path(path)
    if fmt == "auto":
        fmt = {
            ".mtx": "mtx",
            ".txt": "edges",
            ".edges": "edges",
            ".gr": "dimacs",
            ".npz": "npz",
        }.get(p.suffix.lower(), "")
        if not fmt:
            raise SystemExit(
                f"cannot infer format from {p.suffix!r}; pass --format"
            )
    if fmt == "mtx":
        return read_matrix_market(p)
    if fmt == "edges":
        return read_edge_list(p)
    if fmt == "dimacs":
        return read_dimacs(p)
    if fmt == "npz":
        return read_npz(p)
    raise SystemExit(f"unknown format {fmt!r}")


def _save_graph(graph, path: str) -> None:
    from .graph import write_dimacs, write_edge_list, write_matrix_market, write_npz

    p = Path(path)
    writer = {
        ".mtx": write_matrix_market,
        ".txt": write_edge_list,
        ".edges": write_edge_list,
        ".gr": write_dimacs,
        ".npz": write_npz,
    }.get(p.suffix.lower())
    if writer is None:
        raise SystemExit(f"unsupported output extension {p.suffix!r}")
    writer(p, graph)


def _device(name: str):
    from .device import device_by_name

    return device_by_name(name)


def _backend_choices() -> "list[str]":
    from .engine import backend_names

    return backend_names()


def _int_list(spec: str) -> "list[int]":
    """argparse type: comma-separated positive ints ("1,4,16")."""
    try:
        values = [int(v) for v in spec.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {spec!r}"
        ) from None
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(
            f"batch sizes must be positive integers, got {spec!r}"
        )
    return values


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_scc(args: argparse.Namespace) -> int:
    from . import solve

    graph = _load_graph(args.graph, args.format)
    if args.randomize_ids:
        from .graph.ops import permute_random

        graph, _ = permute_random(graph, seed=0)
    result = solve(
        graph,
        args.algo,
        device=_device(args.device),
        backend=args.backend,
        engine=args.engine,
        time_wall=args.time,
        repeats=args.repeats,
        verify=args.verify,
    )
    uniq, counts = np.unique(result.labels, return_counts=True)
    print(f"graph:            {args.graph}")
    print(f"vertices/edges:   {graph.num_vertices} / {graph.num_edges}")
    print(f"algorithm:        {result.algorithm} on {result.device} (model)")
    print(f"SCCs:             {result.num_sccs}")
    print(f"largest SCC:      {int(counts.max()) if counts.size else 0}")
    print(f"trivial SCCs:     {int((counts == 1).sum())}")
    print(f"model runtime:    {result.model_seconds:.6f} s"
          f"  ({result.model_throughput_mvs:.3f} Mv/s)")
    if result.wall is not None:
        print(f"wall runtime:     {result.wall.median_s:.6f} s"
              f" (median of {result.wall.repeats})")
    if args.verify:
        print("verification:     labels match Tarjan's algorithm")
    if args.output:
        np.savetxt(args.output, result.labels, fmt="%d")
        print(f"labels written to {args.output}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .analysis import scc_statistics
    from .baselines import tarjan_scc

    graph = _load_graph(args.graph, args.format)
    stats = scc_statistics(graph, tarjan_scc(graph).labels, with_depth=not args.no_depth)
    for key, value in stats.as_row().items():
        print(f"{key:10s} {value}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "mesh":
        from .mesh.suite import LARGE_MESH_SPECS, SMALL_MESH_SPECS, build_group

        specs = {s.name: s for s in SMALL_MESH_SPECS}
        specs.update({s.name: s for s in LARGE_MESH_SPECS})
        if args.name not in specs:
            raise SystemExit(
                f"unknown mesh {args.name!r}; known: {sorted(specs)}"
            )
        grp = build_group(
            specs[args.name], scale=args.scale, num_ordinates=args.ordinate + 1
        )
        graph = grp.graphs[args.ordinate]
        print(
            f"{args.name} ordinate {args.ordinate}: |V|={graph.num_vertices}"
            f" |E|={graph.num_edges}"
        )
    else:
        from .graph import build_powerlaw

        graph, planted = build_powerlaw(args.name, scale=args.scale, seed=args.seed)
        print(
            f"{args.name}: |V|={graph.num_vertices} |E|={graph.num_edges}"
            f" (planted {planted['num_sccs']} SCCs, largest {planted['largest']})"
        )
    _save_graph(graph, args.output)
    print(f"written to {args.output}")
    return 0


def _bench_smoke(args: argparse.Namespace) -> int:
    """Fast cost-model smoke run: 3 codes on a mesh + power-law corpus.

    Writes one JSON document (``--json PATH``; default stdout) with the
    cost-model estimate and kernel counters per (algorithm, graph) cell.
    CI uses it to confirm the engine refactor keeps the accounting live.

    With ``--baseline PATH`` the run is gated by :mod:`repro.bench.gates`
    (the CI bench-regression job: ``--engine frontier`` against
    ``BENCH_smoke.json``).
    """
    import json

    from . import solve
    from .graph.suite import powerlaw_suite
    from .mesh.suite import small_mesh_suite
    from .profile import profile_run
    from .trace import Tracer

    dev = _device(args.device)
    graphs: "list[tuple[str, object]]" = []
    for grp in small_mesh_suite(names=["toroid-hex"], num_ordinates=2):
        graphs.extend(
            (f"{grp.name}:o{i}", g) for i, g in enumerate(grp.graphs)
        )
    for g, _planted in powerlaw_suite(names=["flickr"], scale=1 / 32):
        graphs.append((g.name or "flickr", g))
    engine = getattr(args, "engine", None)
    rows = []
    for gname, g in graphs:
        for algo in ("ecl-scc", "ispan", "fb"):
            # trace ecl-scc cells so the gate can attribute regressions
            # to a phase; the ledger does not perturb counters
            tracer = Tracer() if algo == "ecl-scc" else None
            res = solve(
                g, algo, device=dev, backend=args.backend,
                engine=engine if algo == "ecl-scc" else None,
                verify=True, tracer=tracer,
            )
            row = {
                "algorithm": algo,
                "graph": gname,
                "num_vertices": res.num_vertices,
                "num_edges": res.num_edges,
                "num_sccs": res.num_sccs,
                "model_seconds": res.model_seconds,
                "kernel_launches": res.counters.get("kernel_launches", 0),
                "bytes_moved": res.counters.get("bytes_moved", 0),
                "bytes_streamed": res.counters.get("bytes_streamed", 0),
                "global_barriers": res.counters.get("global_barriers", 0),
                "atomics": res.counters.get("atomics", 0),
                "rounds": res.counters.get("rounds", 0),
            }
            if tracer is not None:
                tracer.finish()
                report = profile_run(res)
                row["phases"] = {
                    ph.name: {
                        "seconds": ph.total,
                        "launches": ph.launches,
                        "classification": ph.classification,
                    }
                    for ph in report.phases
                }
            rows.append(row)
    # edge-log replay workload: incremental maintenance vs recompute on
    # the power-law graph's event stream (deterministic, seeded)
    from .dynamic import generate_edge_log, replay

    replay_graph_name, replay_graph = graphs[-1]
    log = generate_edge_log(replay_graph, events=120, seed=7)
    for batch_size in (12, 60):
        rep = replay(
            log, batch_size=batch_size, engine=engine,
            backend=args.backend, device=dev, verify=True,
        )
        rows.append(
            {
                "algorithm": "dynamic-replay",
                "graph": f"{replay_graph_name}:replay-b{batch_size}",
                "num_vertices": rep.num_vertices,
                "num_edges": log.final_graph().num_edges,
                "num_sccs": rep.final_num_sccs,
                "events": rep.num_events,
                "batch_size": batch_size,
                "model_seconds": rep.incremental_seconds,
                "recompute_seconds": rep.recompute_seconds,
                "speedup": rep.speedup,
                "invalidated": sum(b.invalidated for b in rep.batches),
            }
        )
    payload = {
        "device": dev.name,
        "backend": args.backend or "dense",
        "engine": engine or "default",
        "results": rows,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.json:
        Path(args.json).write_text(text + "\n")
        print(f"smoke results written to {args.json} ({len(rows)} cells)")
    else:
        print(text)
    if args.baseline:
        return gates.check(payload, args.baseline)
    return 0


#: engines compared by ``repro bench engines`` (dense "async", static
#: frontier, and the adaptive per-round scheduler on top of both).
_ENGINE_MATRIX = ("async", "frontier", "adaptive")


def _bench_engines(args: argparse.Namespace) -> int:
    """``repro bench engines``: the engine-comparison matrix + gate.

    Runs ecl-scc under every entry of :data:`_ENGINE_MATRIX` over the
    shared 27-graph corpus (:func:`repro.graph.suite.engine_corpus` —
    the same graphs the test suite's fixtures use), verifies every cell
    against Tarjan, and asserts on the spot that all engines produce
    bit-identical labels per graph.  ``--json`` writes the matrix (the
    committed ``BENCH_engines.json`` baseline); ``--decisions`` dumps
    the adaptive scheduler's full per-round decision log per graph (the
    CI artifact).  :mod:`repro.bench.gates` then gates the run.
    """
    import json

    from . import solve
    from .graph.suite import engine_corpus

    dev = _device(args.device)
    rows: "list[dict]" = []
    decision_logs: "dict[str, list]" = {}
    for gname, g in engine_corpus():
        labels_ref = None
        for engine in _ENGINE_MATRIX:
            res = solve(
                g, "ecl-scc", device=dev, backend=args.backend, engine=engine,
                verify=True,
            )
            if labels_ref is None:
                labels_ref = res.labels
            elif not np.array_equal(res.labels, labels_ref):
                raise SystemExit(
                    f"engine {engine!r} changed labels on {gname}"
                )
            row = {
                "algorithm": "ecl-scc",
                "engine": engine,
                "graph": gname,
                "num_vertices": res.num_vertices,
                "num_edges": res.num_edges,
                "num_sccs": res.num_sccs,
                "model_seconds": res.model_seconds,
                "kernel_launches": res.counters.get("kernel_launches", 0),
                "bytes_moved": res.counters.get("bytes_moved", 0),
                "rounds": res.counters.get("rounds", 0),
            }
            if res.decision_log is not None:
                picks: "dict[str, int]" = {}
                for d in res.decision_log:
                    picks[d.policy] = picks.get(d.policy, 0) + 1
                row["decisions"] = picks
                decision_logs[gname] = [d.to_dict() for d in res.decision_log]
            rows.append(row)
    by_graph: "dict[str, dict[str, dict]]" = {}
    for r in rows:
        by_graph.setdefault(r["graph"], {})[r["engine"]] = r
    print(f"engine matrix on {dev.name}"
          f" ({len(by_graph)} graphs x {len(_ENGINE_MATRIX)} engines):")
    print(f"  {'graph':<14s}"
          + "".join(f" {e:>12s}" for e in _ENGINE_MATRIX)
          + "  picks")
    for gname, cells in by_graph.items():
        picks = cells.get("adaptive", {}).get("decisions", {})
        pick_str = " ".join(f"{k}:{v}" for k, v in sorted(picks.items()))
        print(f"  {gname:<14s}"
              + "".join(
                  f" {cells[e]['model_seconds'] * 1e6:10.3f}us"
                  for e in _ENGINE_MATRIX
              )
              + f"  {pick_str}")
    payload = {
        "device": dev.name,
        "backend": args.backend or "dense",
        "engines": list(_ENGINE_MATRIX),
        "results": rows,
    }
    if args.json:
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"engine matrix written to {args.json} ({len(rows)} cells)")
    if args.decisions:
        Path(args.decisions).write_text(
            json.dumps(decision_logs, indent=2, sort_keys=True) + "\n"
        )
        print(f"decision logs written to {args.decisions}"
              f" ({len(decision_logs)} graphs)")
    return gates.check(payload, args.baseline)


def _cmd_bench(args: argparse.Namespace) -> int:
    gates.refuse_self_comparison(args.json, args.baseline)
    if args.experiment == "smoke":
        return _bench_smoke(args)
    if args.experiment == "engines":
        return _bench_engines(args)
    from .bench import (
        ablation_figure,
        expanded_meshes,
        mesh_table_properties,
        powerlaw_table_properties,
        runtime_table,
        throughput_figures,
    )

    name = args.experiment
    if name == "table1":
        res = mesh_table_properties("small")
    elif name == "table2":
        res = mesh_table_properties("large")
    elif name == "table3":
        res = powerlaw_table_properties()
    elif name in ("table5", "table6"):
        from .mesh.suite import large_mesh_suite, small_mesh_suite

        suite = small_mesh_suite() if name == "table5" else large_mesh_suite()
        res = runtime_table(
            [(g.name, g.graphs) for g in suite], table_name=name
        )
        print(res.rendered)
        res = throughput_figures(res, figure_name=name + "-figures")
    elif name == "table7":
        from .graph.suite import powerlaw_suite

        res = runtime_table(
            [(g.name, [g]) for g, _ in powerlaw_suite()], table_name=name
        )
        print(res.rendered)
        res = throughput_figures(res, figure_name="table7-figures")
    elif name == "fig14":
        from .graph.suite import powerlaw_suite
        from .mesh.suite import small_mesh_suite

        small = small_mesh_suite(names=["toroid-hex", "torch-hex"], num_ordinates=2)
        power = powerlaw_suite(names=["flickr", "web-Google"], scale=1 / 32)
        res = ablation_figure(
            [
                ("meshes", [g for grp in small for g in grp.graphs]),
                ("power-law", [g for g, _ in power]),
            ]
        )
    elif name == "expanded":
        res = expanded_meshes(copies=10, scale=0.2)
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown experiment {name}")
    print(res.rendered)
    print(f"[{res.elapsed_s:.1f}s]")
    return 0


def _trace_workload(args: argparse.Namespace):
    """Resolve the ``trace`` subcommand's workload argument.

    Accepts, in order of precedence: an existing graph file, a Table-3
    power-law name (``flickr``, ``wiki-Talk``, ...), or a generator spec
    (``cycle:N``, ``ladder:RUNGS``, ``gnm:N:M``, ``mesh:NAME[:ORD]``).
    """
    spec = args.workload
    if Path(spec).exists():
        return _load_graph(spec, args.format)
    from .graph.generators import cycle_graph, random_gnm, scc_ladder
    from .graph.suite import POWER_LAW_SPECS, build_powerlaw

    if spec in {s.name for s in POWER_LAW_SPECS}:
        graph, _ = build_powerlaw(spec, scale=args.scale, seed=args.seed)
        return graph
    kind, _, rest = spec.partition(":")
    try:
        if kind == "cycle":
            return cycle_graph(int(rest))
        if kind == "ladder":
            return scc_ladder(int(rest))
        if kind == "gnm":
            n, m = rest.split(":")
            return random_gnm(int(n), int(m), seed=args.seed)
        if kind == "mesh":
            from .mesh.suite import LARGE_MESH_SPECS, SMALL_MESH_SPECS, build_group

            name, _, ordn = rest.partition(":")
            meshes = {s.name: s for s in SMALL_MESH_SPECS}
            meshes.update({s.name: s for s in LARGE_MESH_SPECS})
            if name not in meshes:
                raise SystemExit(
                    f"unknown mesh {name!r}; known: {sorted(meshes)}"
                )
            ordinate = int(ordn) if ordn else 0
            grp = build_group(
                meshes[name], scale=args.scale, num_ordinates=ordinate + 1
            )
            return grp.graphs[ordinate]
    except ValueError:
        pass
    names = sorted(s.name for s in POWER_LAW_SPECS)
    raise SystemExit(
        f"unknown workload {spec!r}: not a file, power-law name"
        f" ({', '.join(names)}), or generator spec"
        " (cycle:N | ladder:RUNGS | gnm:N:M | mesh:NAME[:ORD])"
    )


def _trace_diff(args: argparse.Namespace) -> int:
    """``repro trace diff A B``: explain per-phase deltas of two traces."""
    from .profile import diff_traces, render_diff
    from .trace import load_jsonl

    paths = args.diff_paths
    if len(paths) != 2:
        raise SystemExit(
            "trace diff needs exactly two JSONL trace files:"
            " repro trace diff BASE NEW"
        )
    for p in paths:
        if not Path(p).exists():
            raise SystemExit(f"no such trace file: {p}")
    base = load_jsonl(paths[0])
    new = load_jsonl(paths[1])
    try:
        diff = diff_traces(base, new)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if args.json is not None:
        text = _json_dumps(diff.to_dict())
        if args.json == "-":
            print(text)
        else:
            Path(args.json).write_text(text + "\n")
            print(f"diff written to {args.json}")
        return 0
    print(f"base: {paths[0]}")
    print(f"new:  {paths[1]}")
    print(render_diff(diff))
    return 0


def _json_dumps(obj) -> str:
    import json

    return json.dumps(obj, indent=2, sort_keys=True)


def _cmd_trace(args: argparse.Namespace) -> int:
    from .trace import Tracer, dump_jsonl, load_jsonl, render_summary

    if args.workload == "diff":
        return _trace_diff(args)
    if args.load:
        if not Path(args.load).exists():
            raise SystemExit(f"no such trace file: {args.load}")
        trace = load_jsonl(args.load)
        print(render_summary(trace))
        return 0
    from . import solve

    graph = _trace_workload(args)
    tracer = Tracer(
        meta={
            "algorithm": args.algo,
            "workload": args.workload,
            "device": args.device,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
        }
    )
    result = solve(
        graph, args.algo, device=_device(args.device),
        backend=args.backend, engine=args.engine, tracer=tracer,
    )
    trace = tracer.finish()
    print(f"workload:         {args.workload}"
          f"  (|V|={graph.num_vertices} |E|={graph.num_edges})")
    print(f"algorithm:        {result.algorithm} on {result.device} (model)")
    print(f"SCCs:             {result.num_sccs}")
    print(f"spans recorded:   {len(trace.spans)}"
          f"  events: {len(trace.events)}")
    if args.jsonl:
        dump_jsonl(trace, args.jsonl)
        print(f"trace written to  {args.jsonl}")
    if not args.no_summary:
        print()
        print(render_summary(trace))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run one algorithm traced and print its per-phase attribution."""
    from . import solve
    from .profile import profile_run, render_profile, to_prometheus
    from .trace import Tracer, dump_jsonl

    graph = _trace_workload(args)
    if args.ranks:
        return _profile_distributed(args, graph)
    meta = {
        "algorithm": args.algo,
        "workload": args.workload,
        "device": args.device,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
    }
    if args.engine:
        meta["engine"] = args.engine
    if args.backend:
        meta["backend"] = args.backend
    tracer = Tracer(meta=meta)
    result = solve(
        graph, args.algo, device=_device(args.device),
        backend=args.backend, engine=args.engine, tracer=tracer,
    )
    tracer.finish()
    report = profile_run(result)
    if args.jsonl:
        dump_jsonl(result.trace, args.jsonl)
        print(f"trace written to {args.jsonl}")
    if args.prom is not None:
        text = to_prometheus(report)
        if args.prom == "-":
            print(text, end="")
        else:
            Path(args.prom).write_text(text)
            print(f"prometheus exposition written to {args.prom}")
        return 0
    if args.json is not None:
        text = report.to_json()
        if args.json == "-":
            print(text)
        else:
            Path(args.json).write_text(text + "\n")
            print(f"profile written to {args.json}")
        return 0
    print(f"workload:         {args.workload}"
          f"  (|V|={graph.num_vertices} |E|={graph.num_edges})")
    print(render_profile(report))
    return 0


def _profile_distributed(args: argparse.Namespace, graph) -> int:
    """``repro profile --ranks N``: per-rank BSP profile of the
    distributed ECL-SCC run, with the straggler/imbalance summary."""
    from .distributed import block_partition, distributed_ecl_scc
    from .distributed.cluster import ClusterSpec
    from .errors import DeviceError
    from .profile import profile_cluster, render_cluster_profile

    stragglers = None
    if args.stragglers:
        stragglers = tuple(float(f) for f in args.stragglers.split(","))
    try:
        spec = ClusterSpec(num_ranks=args.ranks, stragglers=stragglers)
    except DeviceError as exc:
        raise SystemExit(f"bad --stragglers: {exc}") from exc
    res = distributed_ecl_scc(graph, block_partition(graph, args.ranks), spec)
    prof = profile_cluster(
        res.cluster,
        meta={"workload": args.workload, "algorithm": "distributed-ecl-scc"},
    )
    if args.json is not None:
        text = _json_dumps(prof.to_dict())
        if args.json == "-":
            print(text)
        else:
            Path(args.json).write_text(text + "\n")
            print(f"profile written to {args.json}")
        return 0
    print(f"workload:         {args.workload}"
          f"  (|V|={graph.num_vertices} |E|={graph.num_edges},"
          f" SCCs={res.num_sccs})")
    print(render_cluster_profile(prof))
    return 0


def _cmd_dynamic(args: argparse.Namespace) -> int:
    """Replay a deterministic edge log and print the crossover table.

    Generates a seeded stream of edge insertions/deletions over the
    workload graph, replays it through a
    :class:`~repro.dynamic.DynamicGraph` at each requested batch size,
    and compares the incremental update cost against a cold re-solve of
    every post-batch snapshot — the measurement that shows incremental
    maintenance crossing below recompute as batches shrink.
    """
    from .dynamic import generate_edge_log, replay

    graph = _trace_workload(args)
    dev = _device(args.device)
    log = generate_edge_log(
        graph, events=args.events, seed=args.seed,
        insert_fraction=args.insert_fraction,
    )
    inserts = int(np.count_nonzero(log.op == 1))
    print(f"workload:   {args.workload}"
          f"  (|V|={graph.num_vertices} |E|={graph.num_edges})")
    print(f"events:     {log.num_events}"
          f" (insert {inserts} / delete {log.num_events - inserts},"
          f" seed {args.seed})")
    print(f"engine:     {args.engine or 'frontier'}   device: {dev.name}"
          f" (model){'   [verified]' if args.verify else ''}")
    print()
    print(f"  {'batch':>6s} {'batches':>8s} {'incr ms':>10s}"
          f" {'recomp ms':>10s} {'speedup':>8s} {'invalidated':>12s}"
          f" {'sccs':>6s}")
    results = []
    for batch_size in args.batches:
        rep = replay(
            log, batch_size=batch_size, engine=args.engine,
            backend=args.backend, device=dev, verify=args.verify,
        )
        results.append(rep)
        print(f"  {batch_size:>6d} {len(rep.batches):>8d}"
              f" {rep.incremental_seconds * 1e3:>10.4f}"
              f" {rep.recompute_seconds * 1e3:>10.4f}"
              f" {rep.speedup:>8.2f}"
              f" {sum(b.invalidated for b in rep.batches):>12d}"
              f" {rep.final_num_sccs:>6d}")
    winners = [r.batch_size for r in results if r.speedup > 1.0]
    print()
    if winners:
        print(f"crossover:  incremental wins at batch <= {max(winners)}"
              " (speedup > 1)")
    else:
        print("crossover:  recompute wins at every requested batch size")
    if args.json:
        import json

        payload = {
            "workload": args.workload,
            "device": dev.name,
            "engine": args.engine or "frontier",
            "events": log.num_events,
            "seed": args.seed,
            "results": [
                {
                    "batch_size": r.batch_size,
                    "batches": len(r.batches),
                    "incremental_seconds": r.incremental_seconds,
                    "recompute_seconds": r.recompute_seconds,
                    "speedup": r.speedup,
                    "num_sccs": r.final_num_sccs,
                }
                for r in results
            ],
        }
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"results written to {args.json}")
    return 0


def _chaos_plan(args: argparse.Namespace):
    """Resolve a ``--plan`` argument (``chaos`` and ``serve`` commands).

    Accepts any named preset (:data:`repro.faults.PRESET_PLAN_NAMES`)
    or a path to a JSON file produced by :meth:`FaultPlan.to_json`.
    """
    from .faults import PRESET_PLAN_NAMES, FaultPlan, preset_plan

    spec = args.plan
    if spec in PRESET_PLAN_NAMES:
        return preset_plan(spec, args.seed)
    if Path(spec).exists():
        return FaultPlan.from_json(Path(spec).read_text())
    raise SystemExit(
        f"unknown fault plan {spec!r}: not one of"
        f" {list(PRESET_PLAN_NAMES)} or a JSON file"
    )


def _chaos_smoke(args: argparse.Namespace) -> int:
    """Fast chaos smoke: clean vs faulted ECL-SCC on 3 corpus graphs.

    For each graph, runs a fault-free baseline plus the ``monotone`` and
    ``chaos`` presets, verifies every run against Tarjan, checks that
    monotone plans leave the labels bit-identical to the clean run, and
    writes one JSON document (``--json PATH``; default stdout) with the
    estimated-seconds overhead per cell.  CI uses it to confirm fault
    injection and recovery stay live and correctly charged.
    """
    import json

    from . import solve
    from .faults import FaultPlan
    from .graph.suite import powerlaw_suite
    from .mesh.suite import small_mesh_suite

    dev = _device(args.device)
    graphs: "list[tuple[str, object]]" = []
    for grp in small_mesh_suite(names=["toroid-hex"], num_ordinates=2):
        graphs.extend(
            (f"{grp.name}:o{i}", g) for i, g in enumerate(grp.graphs)
        )
    for g, _planted in powerlaw_suite(names=["flickr"], scale=1 / 32):
        graphs.append((g.name or "flickr", g))
    plans = [
        ("monotone", FaultPlan.monotone(args.seed)),
        ("chaos", FaultPlan.chaos(args.seed)),
    ]
    engine = getattr(args, "engine", None)
    rows = []
    for gname, g in graphs:
        clean = solve(
            g, "ecl-scc", device=dev, backend=args.backend, engine=engine,
            verify=True,
        )
        rows.append(
            {
                "graph": gname,
                "plan": "none",
                "status": clean.status,
                "model_seconds": clean.model_seconds,
                "overhead": 1.0,
                "faults_injected": 0,
                "recoveries": 0,
            }
        )
        for pname, plan in plans:
            res = solve(
                g, "ecl-scc", device=dev, backend=args.backend, engine=engine,
                verify=True, faults=plan,
            )
            if pname == "monotone" and not np.array_equal(
                res.labels, clean.labels
            ):
                raise SystemExit(
                    f"monotone plan changed labels on {gname}"
                )
            rep = res.fault_report
            rows.append(
                {
                    "graph": gname,
                    "plan": pname,
                    "status": res.status,
                    "model_seconds": res.model_seconds,
                    "overhead": res.model_seconds / clean.model_seconds,
                    "faults_injected": rep.faults_injected,
                    "recoveries": rep.recoveries,
                }
            )
    payload = {
        "device": dev.name,
        "backend": args.backend or "dense",
        "seed": args.seed,
        "results": rows,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.json:
        Path(args.json).write_text(text + "\n")
        print(f"chaos results written to {args.json} ({len(rows)} cells)")
    else:
        print(text)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.workload == "smoke":
        return _chaos_smoke(args)
    from . import solve
    from .trace import Tracer

    plan = _chaos_plan(args)
    graph = _trace_workload(args)
    tracer = Tracer(meta={"workload": args.workload, "plan": plan.to_dict()})
    clean = solve(
        graph, "ecl-scc", device=_device(args.device), backend=args.backend,
        engine=args.engine, verify=True,
    )
    res = solve(
        graph, "ecl-scc", device=_device(args.device),
        backend=args.backend, engine=args.engine, verify=True,
        tracer=tracer, faults=plan,
    )
    rep = res.fault_report
    print(f"workload:         {args.workload}"
          f"  (|V|={graph.num_vertices} |E|={graph.num_edges})")
    print(f"plan:             {args.plan} (seed {plan.seed})")
    print(f"status:           {res.status}")
    print(f"SCCs:             {res.num_sccs} (verified against Tarjan)")
    print(f"labels match clean run: {np.array_equal(res.labels, clean.labels)}")
    print(f"faults injected:  {rep.faults_injected}")
    for kind, count in sorted(rep.counts.items()):
        print(f"  {kind:24s} {count}")
    print(f"recoveries:       {rep.recoveries}"
          f"  (checkpoints saved {rep.checkpoints_saved},"
          f" restores {rep.restores}, heal passes {rep.heal_passes})")
    print(f"model runtime:    {res.model_seconds:.6f} s"
          f"  (clean {clean.model_seconds:.6f} s,"
          f" overhead x{res.model_seconds / clean.model_seconds:.3f})")
    if args.jsonl:
        from .trace import dump_jsonl

        dump_jsonl(tracer.finish(), args.jsonl)
        print(f"trace written to  {args.jsonl}")
    return 0


def _cmd_distributed(args: argparse.Namespace) -> int:
    from .distributed import (
        block_partition,
        distributed_ecl_scc,
        distributed_fbtrim,
        random_partition,
    )

    graph = _load_graph(args.graph, args.format)
    part_fn = random_partition if args.random_partition else block_partition
    partition = part_fn(graph, args.ranks)
    print(
        f"partition: {args.ranks} ranks,"
        f" edge cut {partition.edge_cut_fraction():.1%}"
    )
    for name, fn in (("ecl-scc", distributed_ecl_scc), ("fb-trim", distributed_fbtrim)):
        res = fn(graph, partition)
        s = res.cluster.summary()
        print(
            f"{name:8s} SCCs={res.num_sccs}  supersteps={res.supersteps}"
            f"  messages={s['total_messages']}"
            f"  est={res.estimated_seconds * 1e3:.3f} ms"
        )
    return 0


def _serve_config(args: argparse.Namespace, scenario: str, plan, *,
                  shortcircuit: "bool | None" = None):
    from .serve.bench import ServeBenchConfig

    # shortcircuit=False forces the cache+coalescing layer off for a
    # row regardless of the flags (the nocache twin and the crash
    # pair, which measure the raw dispatch path)
    cache = not args.no_cache if shortcircuit is None else shortcircuit
    coalesce = not args.no_coalesce if shortcircuit is None else shortcircuit
    return ServeBenchConfig(
        scenario=scenario,
        num_graphs=args.graphs,
        num_jobs=args.jobs,
        workers=args.workers,
        queue_capacity=args.queue,
        utilization=args.utilization,
        cache_enabled=cache,
        coalesce_enabled=coalesce,
        engine=args.engine,
        backend=args.backend,
        plan=plan,
        seed=args.seed,
    )


def _print_serve_row(row: "dict") -> None:
    p50, p99 = row["p50_ms"], row["p99_ms"]
    if p50 is None:
        print(f"  {row['graph']:<24s} done=0/{row['jobs']} (no completions)")
        return
    print(
        f"  {row['graph']:<24s} done={row['done']:3d}/{row['jobs']:<3d}"
        f" thr={row['throughput_jps']:10.1f}/s p50={p50:8.4f}ms"
        f" p99={p99:8.4f}ms"
    )
    print(
        f"  {'':<24s} shed={row['shed_rate']:.3f}"
        f" breaker-shed={row['breaker_shed_rate']:.3f}"
        f" dead-letter={row['dead_letter_rate']:.3f}"
        f" retries={row['retries']}"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """The serve control-plane bench + chaos harness.

    ``bench`` runs the scenario matrix (clean with and without the
    short-circuit layer, crash with and without breakers, delay) and
    writes the rows (the committed ``BENCH_serve.json`` baseline);
    ``chaos`` drives the service under one fault plan with full
    verification (terminal states + label bit-identity against
    unserved solves).
    """
    import json as _json

    from .faults import preset_plan
    from .serve.bench import breaker_comparison, run_serve_bench

    if args.mode == "chaos":
        plan = _chaos_plan(args)
        if not plan.has_serve_faults:
            raise SystemExit(
                f"plan {args.plan!r} has no service-layer faults"
                " (worker_crash_rate or message_delay_rate)"
            )
        cfg = _serve_config(args, f"chaos-{args.plan}", plan)
        try:
            row = run_serve_bench(cfg, verify=True)
        except AssertionError as exc:
            print(f"chaos-serve: FAIL — {exc}")
            return 1
        print(f"chaos-serve under {args.plan!r} (seed {args.seed}):")
        _print_serve_row(row)
        v = row["verified"]
        print(
            f"  every job terminal; {v['checked']} solve/query result(s)"
            " bit-identical to unserved solves"
        )
        if args.json:
            Path(args.json).write_text(
                _json.dumps(row, indent=2, sort_keys=True, default=str) + "\n"
            )
            print(f"written to {args.json}")
        return 0

    gates.refuse_self_comparison(args.json, args.baseline)
    # bench: the scenario matrix; the breaker win and the cache win are
    # measured here and *enforced* by the --baseline gate (the CI
    # serve-smoke job).  zipf-clean runs with the short-circuit layer
    # on (the flags' default) plus a forced-off twin so the cache win
    # is a same-workload pair; the crash pair stays cache-off — the
    # breaker win is a property of the raw dispatch path, which the
    # cache would mostly absorb at this load.
    rows = [
        run_serve_bench(_serve_config(args, "zipf-clean", None)),
        run_serve_bench(_serve_config(args, "zipf-clean-nocache", None,
                                      shortcircuit=False)),
    ]
    crash = _serve_config(
        args, "zipf-crash", preset_plan("serve-crash", args.seed),
        shortcircuit=False,
    )
    cmp = breaker_comparison(crash)
    rows += [cmp["enabled"], cmp["disabled"]]
    rows.append(run_serve_bench(
        _serve_config(args, "zipf-delay", preset_plan("serve-delay", args.seed))
    ))
    print(f"serve bench (seed {args.seed}):")
    for row in rows:
        _print_serve_row(row)
    win = cmp["breaker_win"]
    status = "" if win["ok"] else " (NOT a win at this load)"
    print(
        f"  breaker win: p99 x{win['p99_degradation']:.2f},"
        f" shed +{win['shed_rate_delta']:.3f} without breakers{status}"
    )
    cached, cold = rows[0], rows[1]
    if cached["cache_enabled"]:
        print(
            f"  cache win: thr {cold['throughput_jps']:.1f} ->"
            f" {cached['throughput_jps']:.1f}/s"
            f" (hits={cached['cache_hits']}"
            f" coalesced={cached['coalesced_reads']}"
            f"+{cached['coalesced_updates']})"
        )
    doc = {
        "schema": "serve-bench/1",
        "seed": args.seed,
        "breaker_win": win,
        "results": rows,
    }
    if args.json:
        Path(args.json).write_text(
            _json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
        )
        print(f"written to {args.json}")
    if args.baseline:
        return gates.check(doc, args.baseline)
    return 0


def _obs_run(args: argparse.Namespace):
    """One observed serve run: ``(row, recorder)`` for the obs modes."""
    from .obs import ObsRecorder
    from .serve.bench import run_serve_bench

    plan = _chaos_plan(args) if args.plan else None
    scenario = args.scenario if plan is None else f"{args.scenario}+{args.plan}"
    cfg = _serve_config(args, scenario, plan)
    obs = ObsRecorder(growth=args.growth)
    row = run_serve_bench(cfg, obs=obs)
    return row, obs


def _cmd_obs(args: argparse.Namespace) -> int:
    """The observability pipeline over one serve run.

    ``report`` prints the over-time digest (latency quantiles with
    their error bound, per-phase decomposition, sampled series);
    ``export`` writes the Chrome-trace/Perfetto ``trace.json`` (and,
    with ``--jsonl``, the schema-v3 trace with ``sample``/``timeline``
    lines); ``slo`` judges a declarative SLO spec against the run and
    exits nonzero on a violated objective — the ``obs-slo`` CI gate.
    """
    import json as _json

    row, obs = _obs_run(args)
    report = obs.report

    if args.mode == "slo":
        from .obs import SLOSpec, evaluate_slo

        if not args.spec:
            raise SystemExit("obs slo needs --spec SLO_JSON")
        spec = SLOSpec.from_json(Path(args.spec).read_text())
        outcome = evaluate_slo(spec, report)
        print(f"SLO spec {spec.name!r} over {row['graph']}"
              f" (seed {args.seed}):")
        for r in outcome.results:
            o = r.objective
            what = (
                f"latency <= {o.threshold_ms:g}ms" if o.kind == "latency"
                else "availability"
            )
            verdict = "ok" if r.ok else "VIOLATED"
            print(
                f"  {o.name:<20s} {what:<24s} target={o.target:.3%}"
                f" bad={r.bad}/{r.population}"
                f" budget={r.budget_consumed:6.1%}  {verdict}"
            )
            for alert in r.alerts:
                rate = alert["burn_rate"]
                rate_s = f" burn x{rate:.1f}" if rate is not None else ""
                print(f"    alert t={alert['t']:.4f}s"
                      f" {alert['type']}{rate_s} (bad={alert['bad']})")
        if args.json:
            Path(args.json).write_text(
                _json.dumps(outcome.as_dict(), indent=2, sort_keys=True)
                + "\n"
            )
            print(f"written to {args.json}")
        print(f"obs-slo gate: {'pass' if outcome.ok else 'FAIL'}")
        return 0 if outcome.ok else 1

    if args.mode == "export":
        from .obs import dump_perfetto

        out = args.out or "trace.json"
        obj = dump_perfetto(report, out, recorder=obs)
        print(
            f"perfetto trace written to {out}:"
            f" {len(obj['traceEvents'])} events over"
            f" {report.makespan_s:.4f}s simulated"
            f" ({len(report.jobs)} jobs, {len(obs.timelines)} timelines,"
            f" {len(obs.registry)} samples)"
        )
        if args.jsonl:
            from .trace import Trace

            trace = obs.to_trace(Trace(meta={"scenario": row["graph"],
                                             "seed": args.seed}))
            trace.to_jsonl(args.jsonl)
            print(f"schema-v{trace.schema} trace written to {args.jsonl}"
                  f" ({len(trace.samples)} sample lines,"
                  f" {len(trace.timelines)} timeline lines)")
        return 0

    # report
    _print_serve_row(row)
    q = obs.quantiles_ms(0.5, 0.9, 0.99, 0.999)
    err = obs.latency_hist.quantile_error
    parts = ", ".join(
        f"{name}={v:.4f}ms" for name, v in q.items() if v is not None
    )
    print(f"  latency ({obs.latency_hist.total} done): {parts}"
          f"  (rel err <= {err:.2%})")
    print("  phase decomposition (seconds in phase, across all jobs):")
    for phase in sorted(obs.phase_hists):
        h = obs.phase_hists[phase]
        p50 = h.quantile(0.5)
        p99 = h.quantile(0.99)
        print(f"    {phase:<12s} n={h.total:4d}"
              f" p50={p50 * 1e3:9.4f}ms p99={p99 * 1e3:9.4f}ms"
              f" max={h.max * 1e3:9.4f}ms")
    print(f"  series sampled on the simulated clock"
          f" ({len(obs.registry)} points):")
    for name in obs.registry.names():
        samples = obs.registry.series(name)
        peak = obs.registry.peak(name)
        print(f"    {name:<28s} {obs.registry.kind_of(name):<8s}"
              f" points={len(samples):4d} peak={peak:g}")
    if args.json:
        Path(args.json).write_text(
            _json.dumps(obs.summary(), indent=2, sort_keys=True,
                        default=str) + "\n"
        )
        print(f"written to {args.json}")
    return 0


def _cmd_devices(_args: argparse.Namespace) -> int:
    from .device import ALL_DEVICES

    for d in ALL_DEVICES:
        print(
            f"{d.name:12s} {d.kind:3s}  lanes={d.lanes:5d}  sms={d.sms:4d}"
            f"  clock={d.clock_ghz:.2f}GHz  bw={d.mem_bw_gbs:7.1f}GB/s"
            f"  llc={d.l2_mb:5.1f}MB  launch={d.launch_us:.0f}us"
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .core import ecl_scc
    from .mesh.suite import LARGE_MESH_SPECS, SMALL_MESH_SPECS, build_group
    from .sweep import solve_transport_sweep, sweep_schedule

    specs = {s.name: s for s in SMALL_MESH_SPECS}
    specs.update({s.name: s for s in LARGE_MESH_SPECS})
    if args.mesh not in specs:
        raise SystemExit(f"unknown mesh {args.mesh!r}; known: {sorted(specs)}")
    grp = build_group(specs[args.mesh], scale=args.scale, num_ordinates=args.ordinates)
    print(f"{args.mesh}: {grp.mesh.num_elements} elements, {args.ordinates} ordinates")
    for i, graph in enumerate(grp.graphs):
        res = ecl_scc(graph)
        schedule = sweep_schedule(graph, res.labels)
        out = solve_transport_sweep(graph, schedule, res.labels)
        print(
            f"  ordinate {i}: SCCs={res.num_sccs}"
            f" (non-trivial {schedule.num_nontrivial}),"
            f" levels={schedule.depth},"
            f" inner iters={out.scc_inner_iterations},"
            f" residual={out.residual:.2e}"
        )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for all subcommands."""
    from .bench.runners import ALGORITHM_NAMES
    from .core.options import ENGINE_NAMES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="ECL-SCC reproduction toolkit (SC '23)",
    )
    # the registry is the single source of engine names: help text is
    # derived, never hand-maintained, so new engines list automatically
    engine_list = " | ".join(ENGINE_NAMES)
    sub = parser.add_subparsers(dest="command", required=True)

    def option(*flags, **kwargs) -> argparse.ArgumentParser:
        """A parent parser holding one option shared by several subcommands."""
        shared = argparse.ArgumentParser(add_help=False)
        shared.add_argument(*flags, **kwargs)
        return shared

    # every shared option is defined once, here.  --seed is accepted by
    # every subcommand: it seeds whatever randomness the subcommand has
    # (workload generators, fault plans, service workloads) and is inert
    # where there is none
    common = option(
        "--seed", type=int, default=0,
        help="RNG seed for generators / fault plans / workloads"
        " (default 0)",
    )
    device = option("--device", default="A100",
                    help="device model: Titan V | A100 | Ryzen 2950X | Xeon 6226R")
    fmt = option("--format", default="auto",
                 choices=["auto", "mtx", "edges", "dimacs", "npz"])
    backend = option("--backend", default=None, choices=_backend_choices(),
                     help="engine accounting backend (default: dense)")
    engine = option("--engine", default=None, choices=list(ENGINE_NAMES),
                    help=f"ecl-scc Phase-2 engine: {engine_list} (default:"
                    " the options' engine; frontier for dynamic re-solves)")
    scale = option("--scale", type=float, default=None,
                   help="workload scale factor")
    # the serve workload and service shape, shared by serve and obs
    serving = argparse.ArgumentParser(add_help=False)
    serving.add_argument("--jobs", type=int, default=60,
                         help="jobs in the generated workload (default 60)")
    serving.add_argument("--graphs", type=int, default=4,
                         help="named graphs in the Zipf world (default 4)")
    serving.add_argument("--workers", type=int, default=2,
                         help="worker pool size (default 2)")
    serving.add_argument("--queue", type=int, default=8,
                         help="bounded run-queue capacity (default 8)")
    serving.add_argument("--utilization", type=float, default=1.5,
                         help="open-loop arrival rate as a multiple of service"
                         " capacity (default 1.5 = overload)")
    serving.add_argument("--no-cache", action="store_true",
                         help="disable the generation-keyed solve cache")
    serving.add_argument("--no-coalesce", action="store_true",
                         help="disable request coalescing (read attach +"
                         " update merging)")

    p = sub.add_parser("scc", parents=[common, device, fmt, backend, engine],
                       help="detect SCCs in a graph file")
    p.add_argument("graph", help="input graph file (.mtx/.txt/.edges/.gr)")
    p.add_argument("--algo", default="ecl-scc", choices=ALGORITHM_NAMES)
    p.add_argument("--verify", action="store_true",
                   help="check labels against Tarjan (paper §4)")
    p.add_argument("--time", action="store_true",
                   help="also measure Python wall time (median protocol)")
    p.add_argument("--repeats", type=int, default=9)
    p.add_argument("--output", help="write per-vertex labels to this file")
    p.add_argument("--randomize-ids", action="store_true",
                   help="random internal relabelling (see docs/algorithm.md §6)")
    p.set_defaults(func=_cmd_scc)

    p = sub.add_parser("stats", parents=[common, fmt],
                       help="print SCC statistics of a graph file")
    p.add_argument("graph")
    p.add_argument("--no-depth", action="store_true",
                   help="skip the (expensive) condensation DAG depth")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("gen", parents=[common, scale], help="generate a workload graph")
    p.add_argument("kind", choices=["mesh", "powerlaw"])
    p.add_argument("name", help="mesh group or Table-3 graph name")
    p.add_argument("output", help="output file (.mtx/.txt/.edges/.gr)")
    p.add_argument("--ordinate", type=int, default=0,
                   help="which ordinate's sweep graph (meshes)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", parents=[common, device, backend, engine],
                       help="regenerate a paper table/figure")
    p.add_argument(
        "experiment",
        choices=["table1", "table2", "table3", "table5", "table6", "table7",
                 "fig14", "expanded", "smoke", "engines"],
    )
    p.add_argument("--json", default=None,
                   help="(smoke/engines) write results to this JSON file")
    p.add_argument("--baseline", default=None,
                   help="(smoke/engines) gate the run against this committed"
                   " baseline JSON (rules: repro.bench.gates)")
    p.add_argument("--decisions", default=None,
                   help="(engines) write the adaptive per-round decision"
                   " logs to this JSON file (the CI artifact)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "trace", parents=[common, device, fmt, scale, backend, engine],
        help="run one algorithm with the structured tracer",
    )
    p.add_argument(
        "workload",
        nargs="?",
        default="ladder:64",
        help="graph file, power-law name, generator spec"
        " (cycle:N | ladder:RUNGS | gnm:N:M | mesh:NAME[:ORD]), or"
        " 'diff' to compare two JSONL traces; default ladder:64",
    )
    p.add_argument(
        "diff_paths",
        nargs="*",
        default=[],
        metavar="TRACE",
        help="(diff) the two JSONL traces to compare: BASE NEW",
    )
    p.add_argument("--algo", default="ecl-scc", choices=ALGORITHM_NAMES)
    p.add_argument("--jsonl", help="write the trace to this JSONL file")
    p.add_argument("--load",
                   help="summarize an existing JSONL trace instead of running")
    p.add_argument("--no-summary", action="store_true",
                   help="skip the span-tree summary")
    p.add_argument("--json", nargs="?", const="-", default=None,
                   help="(diff) write the diff as JSON to PATH (or stdout)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "profile",
        parents=[common, device, fmt, scale, backend, engine],
        help="per-phase time attribution and roofline classification",
    )
    p.add_argument(
        "workload",
        nargs="?",
        default="ladder:64",
        help="graph file, power-law name, or generator spec"
        " (cycle:N | ladder:RUNGS | gnm:N:M | mesh:NAME[:ORD]);"
        " default ladder:64",
    )
    p.add_argument("--algo", default="ecl-scc", choices=ALGORITHM_NAMES)
    p.add_argument("--json", nargs="?", const="-", default=None,
                   help="write the ProfileReport as JSON to PATH (or stdout)")
    p.add_argument("--prom", nargs="?", const="-", default=None,
                   help="write a Prometheus text exposition to PATH"
                   " (or stdout)")
    p.add_argument("--jsonl",
                   help="also write the underlying trace to this JSONL file")
    p.add_argument("--ranks", type=int, default=0,
                   help="distributed mode: per-rank BSP profile of"
                   " distributed ECL-SCC on this many ranks")
    p.add_argument("--stragglers", default=None,
                   help="(distributed) comma-separated per-rank slowdown"
                   " factors, e.g. 1.0,1.0,1.3,1.0")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "dynamic",
        parents=[common, device, fmt, scale, backend, engine],
        help="replay an edge log through the incremental SCC engine",
    )
    p.add_argument(
        "workload",
        nargs="?",
        default="gnm:512:2048",
        help="graph file, power-law name, or generator spec"
        " (cycle:N | ladder:RUNGS | gnm:N:M | mesh:NAME[:ORD]);"
        " default gnm:512:2048",
    )
    p.add_argument("--events", type=int, default=200,
                   help="edge events to generate (default 200)")
    p.add_argument("--batches", type=_int_list, default=[1, 4, 16, 64],
                   help="comma-separated batch sizes (default 1,4,16,64)")
    p.add_argument("--insert-fraction", type=float, default=0.5,
                   help="fraction of events that insert (default 0.5)")
    p.add_argument("--verify", action="store_true",
                   help="check every batch's labels against a cold solve")
    p.add_argument("--json", default=None,
                   help="write the crossover table to this JSON file")
    p.set_defaults(func=_cmd_dynamic)

    p = sub.add_parser(
        "chaos", parents=[common, device, fmt, scale, backend, engine],
        help="run ECL-SCC under a seeded fault plan",
    )
    p.add_argument(
        "workload",
        nargs="?",
        default="smoke",
        help="'smoke' (3-graph CI matrix), a graph file, power-law name,"
        " or generator spec (cycle:N | ladder:RUNGS | gnm:N:M);"
        " default smoke",
    )
    p.add_argument("--plan", default="chaos",
                   help="'monotone', 'chaos', or a FaultPlan JSON file")
    p.add_argument("--json", default=None,
                   help="(smoke) write results to this JSON file")
    p.add_argument("--jsonl", help="write the faulted run's trace to JSONL")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "serve", parents=[common, serving, backend, engine],
        help="SCC-as-a-service control-plane bench + chaos harness",
    )
    p.add_argument(
        "mode", nargs="?", default="bench", choices=["bench", "chaos"],
        help="'bench': Zipf scenario matrix with the breaker-win gate;"
        " 'chaos': one fault plan with full verification",
    )
    p.add_argument("--plan", default="serve-crash",
                   help="(chaos) preset name or FaultPlan JSON file"
                   " (must carry service-layer faults)")
    p.add_argument("--json", default=None,
                   help="write results to this JSON file")
    p.add_argument("--baseline", default=None,
                   help="(bench) gate the run against this committed"
                   " baseline JSON (rules: repro.bench.gates)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "obs", parents=[common, serving, backend, engine],
        help="observability pipeline: time series, timelines, Perfetto"
        " export, SLO gate over a serve run",
    )
    p.add_argument(
        "mode", nargs="?", default="report",
        choices=["report", "export", "slo"],
        help="'report': over-time digest; 'export': Chrome-trace"
        " trace.json for ui.perfetto.dev; 'slo': judge --spec and exit"
        " nonzero on violation (the obs-slo CI gate)",
    )
    p.add_argument("--scenario", default="zipf-clean",
                   help="scenario label for the observed run"
                   " (default zipf-clean)")
    p.add_argument("--plan", default=None,
                   help="optional fault plan: preset name or FaultPlan"
                   " JSON file")
    p.add_argument("--spec", default=None,
                   help="(slo) SLO spec JSON (objectives + burn-rate"
                   " alert policy)")
    p.add_argument("--out", default=None,
                   help="(export) Perfetto trace path (default"
                   " trace.json)")
    p.add_argument("--jsonl", default=None,
                   help="(export) also write the schema-v3 JSONL trace"
                   " with sample/timeline lines")
    p.add_argument("--growth", type=float, default=1.04,
                   help="histogram bucket growth factor; quantile"
                   " relative error is sqrt(growth)-1 (default 1.04)")
    p.add_argument("--json", default=None,
                   help="write the mode's JSON document to this file")
    p.set_defaults(func=_cmd_obs)

    p = sub.add_parser("distributed", parents=[common, fmt], help="BSP cluster run: ECL vs FB-Trim")
    p.add_argument("graph")
    p.add_argument("--ranks", type=int, default=8)
    p.add_argument("--random-partition", action="store_true")
    p.set_defaults(func=_cmd_distributed)

    p = sub.add_parser("devices", parents=[common], help="list virtual device models")
    p.set_defaults(func=_cmd_devices)

    p = sub.add_parser("sweep", parents=[common, scale], help="run the full RTE pipeline on a mesh")
    p.add_argument("mesh", help="mesh group name (e.g. toroid-hex)")
    p.add_argument("--ordinates", type=int, default=4)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
