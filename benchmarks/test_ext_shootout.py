"""Extension: the full algorithm shootout.

Every SCC code in the library (the paper's three contenders plus the
wider lineage: Hong '13, Multistep '14, Orzan coloring, FB-Trim, plain
FB, and the serial oracles) on one representative input per class, each
on its natural device model.  Not a paper table — a map of where ECL-SCC
sits in the whole design space.
"""

from repro import solve
from repro.bench import format_seconds, render_table
from repro.device import A100, XEON_6226R
from repro.graph.suite import powerlaw_suite
from repro.mesh.suite import small_mesh_suite

from conftest import save_and_print

GPU_ALGOS = ("ecl-scc", "ecl-scc-minmax", "gpu-scc", "coloring")
CPU_ALGOS = ("ispan", "hong", "multistep", "fb-trim", "fb", "tarjan")


def test_algorithm_shootout(benchmark, results_dir):
    mesh_grp = small_mesh_suite(names=["toroid-hex"], num_ordinates=1)[0]
    mesh_g = mesh_grp.graphs[0].with_name("toroid-hex")
    pl_g, _ = powerlaw_suite(names=["soc-LiveJournal1"], scale=1 / 64)[0]
    rows = []

    def run():
        for g in (mesh_g, pl_g):
            for algo in GPU_ALGOS:
                r = solve(g, algo, device=A100, verify=True)
                rows.append([g.name, algo, "A100", format_seconds(r.model_seconds),
                             round(r.model_throughput_mvs, 2)])
            for algo in CPU_ALGOS:
                r = solve(g, algo, device=XEON_6226R, verify=algo != "tarjan")
                rows.append([g.name, algo, "Xeon", format_seconds(r.model_seconds),
                             round(r.model_throughput_mvs, 2)])
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    table = render_table(
        ["graph", "algorithm", "device", "model s", "Mv/s"],
        rows,
        title="Extension: full algorithm shootout (one input per class)",
    )
    save_and_print(results_dir, "ext_shootout", table)

    by = {(r[0], r[1]): r[4] for r in rows}
    mesh = mesh_g.name
    # ECL-SCC leads every other parallel code on the mesh input
    ecl = by[(mesh, "ecl-scc")]
    for algo in ("gpu-scc", "coloring", "ispan", "hong", "multistep", "fb-trim", "fb"):
        assert ecl > by[(mesh, algo)], algo
    # the lineage ordering on meshes: multistep/coloring-style codes sit
    # between recursive FB and ECL
    assert by[(mesh, "multistep")] >= by[(mesh, "fb")]
