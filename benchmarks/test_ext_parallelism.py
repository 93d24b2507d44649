"""Extension: the available-parallelism argument of §1, quantified.

The paper motivates ECL-SCC by the low parallelism of BFS/trim-based
codes on mesh graphs ("initially low parallelism of FB and FB-Trim can
be an issue on GPUs that require 100,000s of threads").  This experiment
measures, per input class:

* FB's BFS frontier width per level (from the max-degree pivot);
* Trim-1's best-case peel width per round (condensation level sizes);
* ECL-SCC's constant full-worklist width (|E| every round).

and summarizes each profile's work-weighted parallelism.
"""

import numpy as np

from repro.analysis import parallelism_summary
from repro.analysis.profiles import bfs_frontier_profile, peel_profile
from repro.baselines import tarjan_scc
from repro.bench import render_table
from repro.core import EclOptions, ecl_scc
from repro.device import A100
from repro.graph.suite import powerlaw_suite
from repro.mesh.suite import small_mesh_suite
from repro.trace import Tracer

from conftest import save_and_print


def measured_ecl_profile(g) -> np.ndarray:
    """Per-round active-edge widths from a traced sync-engine run: the
    ``edge_work`` of every kernel launch in the run's launch ledger."""
    tracer = Tracer()
    ecl_scc(g, options=EclOptions(async_phase2=False), device=A100, tracer=tracer)
    return np.asarray(
        [r.edge_work for r in tracer.trace.launches
         if r.kind == "launch" and r.edge_work > 0]
    )


def _inputs():
    mesh = small_mesh_suite(names=["torch-tet"], num_ordinates=1)[0].graphs[0]
    pl, _ = powerlaw_suite(names=["soc-LiveJournal1"], scale=1 / 32)[0]
    return [("torch-tet (mesh)", mesh), ("soc-LiveJournal1 (power-law)", pl)]


def test_parallelism_profiles(benchmark, results_dir):
    rows = []
    details = {}

    def run():
        for name, g in _inputs():
            labels = tarjan_scc(g).labels
            deg = g.out_degree() + g.in_degree()
            pivot = int(np.argmax(deg))
            bfs = bfs_frontier_profile(g, pivot)
            peel = peel_profile(g, labels)
            details[name] = (bfs, peel)
            for kind, prof in (("FB frontier", bfs), ("Trim peel", peel)):
                s = parallelism_summary(prof, saturation=g.num_edges // 10)
                rows.append(
                    [name, kind, s["steps"], int(s["max_width"]),
                     round(s["weighted_parallelism"], 1),
                     round(s["saturated_fraction"], 3)]
                )
            ecl = measured_ecl_profile(g)
            s = parallelism_summary(ecl, saturation=g.num_edges // 10)
            rows.append(
                [name, "ECL-SCC round (measured)", s["steps"],
                 int(s["max_width"]), round(s["weighted_parallelism"], 1),
                 round(s["saturated_fraction"], 3)]
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    table = render_table(
        ["input", "phase", "steps", "max width", "weighted width", "saturated frac"],
        rows,
        title="Extension: available parallelism per step (paper §1 motivation)",
    )
    save_and_print(results_dir, "ext_parallelism", table)

    mesh_bfs, mesh_peel = details["torch-tet (mesh)"]
    # ECL keeps nearly the whole worklist active: its measured weighted
    # width dwarfs FB's on the mesh
    mesh_rows = {r[1]: r for r in rows if r[0] == "torch-tet (mesh)"}
    assert (
        mesh_rows["ECL-SCC round (measured)"][4]
        > 20 * mesh_rows["FB frontier"][4]
    )
    pl_bfs, _ = details["soc-LiveJournal1 (power-law)"]
    g_mesh = _inputs()[0][1]
    # the mesh's BFS/trim profiles are hundreds of steps of thin fronts
    assert mesh_bfs.size > 50 and mesh_peel.size > 50
    assert mesh_bfs.max() < g_mesh.num_edges / 10
    # the power-law BFS saturates in a handful of levels
    assert pl_bfs.size < 30
    assert pl_bfs.max() > 0.2 * _inputs()[1][1].num_edges
