"""Paper-scale spot check: two small-mesh groups at their exact Table 1
sizes (one ordinate each), demonstrating that the reduced-scale factor
inflation documented in EXPERIMENTS.md vanishes with size.

Known anchor: GPU-SCC on beam-hex at 262,144 vertices — paper throughput
58 Mv/s (0.0045 s on the A100), our model ~65 Mv/s.
"""

from repro import solve
from repro.bench import render_table
from repro.device import A100, XEON_6226R
from repro.mesh.suite import SMALL_MESH_SPECS, build_group

from conftest import save_and_print


def test_fullscale_small_meshes(benchmark, results_dir):
    rows = []

    def run():
        for name in ("beam-hex", "toroid-hex"):
            spec = next(s for s in SMALL_MESH_SPECS if s.name == name)
            grp = build_group(spec, scale=1.0, num_ordinates=1)
            g = grp.graphs[0]
            cells = {}
            for algo, dev in (
                ("ecl-scc", A100), ("gpu-scc", A100), ("ispan", XEON_6226R)
            ):
                r = solve(g, algo, device=dev, verify=algo == "ecl-scc")
                cells[algo] = r
                rows.append(
                    [name, g.num_vertices, algo, dev.name,
                     round(r.model_seconds, 4),
                     round(r.model_throughput_mvs, 2)]
                )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    table = render_table(
        ["mesh", "vertices", "algorithm", "device", "model s", "Mv/s"],
        rows,
        title="Paper-scale spot check (Table 1 sizes, 1 ordinate)",
    )
    save_and_print(results_dir, "fullscale_spotcheck", table)

    by = {(r[0], r[2]): r[5] for r in rows}
    # anchor: GPU-SCC on beam-hex within 2x of the paper's 58 Mv/s
    assert 29 < by[("beam-hex", "gpu-scc")] < 116
    # ECL-SCC still leads both comparison codes at full scale
    for mesh in ("beam-hex", "toroid-hex"):
        assert by[(mesh, "ecl-scc")] > by[(mesh, "gpu-scc")]
        assert by[(mesh, "ecl-scc")] > by[(mesh, "ispan")]
    # toroid ECL/GPU ratio within an order of magnitude of the paper's 9.7x
    ratio = by[("toroid-hex", "ecl-scc")] / by[("toroid-hex", "gpu-scc")]
    assert 3 < ratio < 100
