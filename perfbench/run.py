"""perfbench: the dual-clock benchmark of the repro SCC package.

Run from the repository root::

    python3 perfbench/run.py --workload mesh-solve --seed 1 --seconds 40 --trace 0

Workloads: ``mesh-solve``, ``mesh-churn``, ``serve-zipf`` (see
workloads.py and ``BENCHMARK.json``).  The program is imported from
``src/`` of the same checkout; the seed drives every generated input.

``--trace 0`` prints the end-to-end metrics: wall clock, measured
untraced, next to the modelled/simulated clock and the allocation peak
of a separate memory pass.  ``--trace 1`` alternates
untraced and traced passes over the same inputs and prints the
per-layer metrics folded from spans, plus the cost of tracing.  Outputs
are verified outside the timed ops (Tarjan, the serve replay verifier,
the determinism guard).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable report and a ``report:`` JSON line with
the run's inputs and environment.  The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path; fail if it is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {src / 'repro'} is missing")
    # one thread: the workloads are single-process, single-threaded
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def memory_pass(workload, seed: int):
    """One pass over a fresh set-up with allocations traced.

    Python and NumPy allocations are traced from the start of the
    set-up; the peak is taken while the pass runs, so the inputs and
    handles the set-up left live count, and verification does not (see
    ``harness.checking``).  The cyclic garbage collector is paused, so
    the reference cycles the pass leaves count in full instead of up to
    wherever the collector happens to run.  The peak then depends on the
    program and the seed, not on collector timing or on how the host
    maps pages.  Returns the pass and the peak in MB.
    """
    import repro

    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        ctx = workload.setup(seed, repro.NULL_TRACER)
        tracemalloc.reset_peak()
        p = workload.run_pass(ctx, traced=False, first=False)
        peak_b = max(p.peak_b, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        gc.enable()
    del ctx
    gc.collect()
    return p, peak_b / 2**20


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run passes for *seconds*, check; returns every number."""
    import repro
    from harness import (SETUP_REPEATS, fastest, median, metrics, mismatches, peak_rss_mb,
                         percentile, tail_percentile)

    setup_walls: "list[float]" = []
    setup_layers: "dict[str, list[float]]" = {}

    def set_up():
        """One timed set-up from scratch; traced set-ups give the build layers."""
        tracer = repro.Tracer() if trace else repro.NULL_TRACER
        t0 = perf_counter()
        ctx = workload.setup(seed, tracer)
        setup_walls.append(perf_counter() - t0)
        if trace:
            for span in ("mesh.build", "graph.build", "dynamic.init"):
                setup_layers.setdefault(f"{span}_s", []).append(
                    sum(s.duration for s in tracer.trace.spans if s.name == span))
        return ctx

    ctx_t = set_up() if trace else None
    ctx_u = workload.setup(seed, repro.NULL_TRACER) if trace else set_up()
    # after a set-up, so lazy imports and warm-ups are not in its peak;
    # tracing slows it, and its wall, less verification, comes out of
    # the timed passes' share of *seconds*
    t0 = perf_counter()
    mem_pass, peak_mem_mb = memory_pass(workload, seed)
    budget = seconds - (perf_counter() - t0 - mem_pass.check_s)

    passes: "dict[bool, list]" = {False: [], True: []}
    modes = (False, True) if trace else (False,)
    need = 2 if trace else workload.min_passes
    spent = 0.0
    while True:
        for traced in modes:
            t0 = perf_counter()
            p = workload.run_pass(ctx_t if traced else ctx_u, traced=traced,
                                  first=not passes[traced])
            spent += perf_counter() - t0 - p.check_s
            passes[traced].append(p)
        done = len(passes[False])
        if done >= need and spent * (done + 1) / done > budget:
            break
        if len(setup_walls) < SETUP_REPEATS:
            set_up()  # spread over the run, between passes
            gc.collect()  # the discarded set-up's garbage, not the next pass's
    while len(setup_walls) < SETUP_REPEATS:
        set_up()
        gc.collect()
    untraced, traced_passes = passes[False], passes[True]

    failures = [f for p in [mem_pass] + untraced + traced_passes for f in p.failures]
    ref = untraced[0].model
    for i, p in enumerate(untraced[1:], 1):
        keys = mismatches(ref, p.model)
        if keys:
            failures.append(f"untraced pass {i}: modelled numbers differ from pass 0: {keys}")
    keys = mismatches(ref, mem_pass.model)
    if keys:
        failures.append(f"memory pass: modelled numbers differ from pass 0: {keys}")
    for i, p in enumerate(traced_passes):
        keys = mismatches(ref, p.model)
        if keys:
            failures.append(f"traced pass {i}: modelled numbers differ from untraced: {keys}")
        keys = mismatches(traced_passes[0].traced_counts, p.traced_counts)
        if keys:
            failures.append(f"traced pass {i}: traced counts differ from traced pass 0: {keys}")

    best = fastest([p.op_ms for p in untraced])
    steps = fastest([p.step_ms or p.op_ms for p in untraced])
    q = tail_percentile(workload.min_passes * best.size)
    e2e = {
        "setup_s": median(setup_walls),
        "ops_per_s": untraced[0].ops / (steps.sum() / 1e3) if steps.sum() > 0 else 0.0,
        "op_p50_ms": median(best) if best.size else 0.0,
        "op_tail_ms": percentile(best, q) if best.size else 0.0,
        "peak_mem_mb": peak_mem_mb,
        **{m.name: ref.get(m.name, 0.0) for m in metrics("end_to_end")
           if m.name.startswith("model_")},
    }
    fastest_layers = workload.fastest_layers(ctx_u, untraced)
    layers = {}
    for m in metrics("per_layer"):
        values = ([p.layers[m.name] for p in traced_passes if m.name in p.layers]
                  or [p.layers[m.name] for p in untraced if m.name in p.layers]
                  or setup_layers.get(m.name, []))
        layers[m.name] = fastest_layers.get(m.name, median(values) if values else 0.0)
    if trace:
        layers["trace.overhead_frac"] = (
            median([p.wall_s for p in traced_passes]) / median([p.wall_s for p in untraced]) - 1
        )
    for name, value in {**e2e, **layers}.items():
        if not math.isfinite(value):
            failures.append(f"metric {name} is not finite: {value}")

    attempted = sum(p.attempted for p in [mem_pass] + untraced + traced_passes)
    return {
        "e2e": e2e,
        "layers": layers,
        "failures": failures,
        "attempted": max(attempted, 1),
        "failed": min(len(failures), max(attempted, 1)),
        "tail": {"percentile": q, "ops": int(best.size), "samples": best.size * len(untraced)},
        "passes": {"untraced": len(untraced), "traced": len(traced_passes),
                   "setups": len(setup_walls)},
        "inputs": workload.sizes(ctx_u),
        "peak_rss_mb": peak_rss_mb(),
    }


def result(out: dict, trace: bool) -> dict:
    """The result object of a run: the end-to-end or the per-layer metrics."""
    from harness import metrics

    key, values = ("per_layer", out["layers"]) if trace else ("end_to_end", out["e2e"])
    return {
        "correct": not out["failures"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m.name: {"value": float(values[m.name]), "unit": m.unit}
                    for m in metrics(key)},
    }


def _report_lines(name: str, args, out: dict) -> "list[str]":
    import numpy as np
    from harness import metrics

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        nproc = os.cpu_count()
    info = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
        "inputs": out["inputs"], "passes": out["passes"], "op_tail": out["tail"],
        "error_rate": out["failed"] / out["attempted"], "failures": out["failures"][:20],
        "peak_rss_mb": out["peak_rss_mb"],
    }
    lines = [
        f"perfbench {name} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        f"  nproc={nproc} python={info['python']} numpy={info['numpy']}",
        "  inputs: " + " ".join(f"{k}={v}" for k, v in out["inputs"].items()),
        f"  passes: {out['passes']['untraced']} untraced, {out['passes']['traced']} traced;"
        f" {out['passes']['setups']} set-ups",
        f"  error_rate {info['error_rate']:.6g} ({out['failed']} failed /"
        f" {out['attempted']} attempted)",
        f"  peak RSS {out['peak_rss_mb']:.1f} MB (as the host maps pages; not a metric)",
    ]
    lines += [f"  FAIL {f}" for f in out["failures"][:20]]
    tail = out["tail"]
    tail = (f"p{tail['percentile']:g} of {tail['ops']} ops' fastest times"
            f" ({tail['samples']} samples)")
    for m in metrics("end_to_end"):
        note = tail if m.name == "op_tail_ms" else m.doc
        lines.append(f"  {m.name:<34} {out['e2e'][m.name]:>14.6g} {m.unit:<8} [{m.clock}] {note}")
    if args.trace:
        for m in metrics("per_layer"):
            lines.append(f"  {m.name:<34} {out['layers'][m.name]:>14.6g} {m.unit:<8}"
                         f" [{m.clock}] -> {m.moves}")
    lines.append("report: " + json.dumps(info, sort_keys=True, default=str))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from harness import declared
    from workloads import WORKLOADS

    known = [w["name"] for w in declared()["workloads"]]
    if args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(known)}")
    out = run_workload(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    for line in _report_lines(args.workload, args, out):
        print(line)
    print(json.dumps(result(out, bool(args.trace))))
    return 0 if not out["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
