"""Table 6 + Figures 8-10: runtimes/throughput on the large mesh graphs.

Paper claims checked: ECL-SCC outperforms GPU-SCC on all large mesh
groups on the A100 (Fig 9; geomean 8.4x) and on all but twist-hex on the
Titan V (Fig 8); iSpan is competitive only on the two groups dominated by
one giant SCC (klein-bottle, twist-hex) and collapses on the rest
(Fig 10).
"""

from repro import solve
from repro.bench import runtime_table, throughput_figures
from repro.device import A100

from conftest import save_and_print


def test_table6_and_figs8910(benchmark, results_dir, large_meshes):
    groups = [(g.name, g.graphs) for g in large_meshes]
    res = benchmark.pedantic(
        lambda: runtime_table(groups, table_name="table6"), rounds=1, iterations=1
    )
    fig = throughput_figures(res, figure_name="figs8-10")
    save_and_print(results_dir, "table6_large_runtimes", res.rendered, res)
    save_and_print(results_dir, "fig8to10_large_throughput", fig.rendered, fig)

    s = fig.series
    # Fig 9: on the A100 model, ECL-SCC wins every group
    ecl, li = s["ECL-SCC A100"], s["GPU-SCC A100"]
    for k in ecl:
        if k != "geomean":
            assert ecl[k] > li[k], k
    assert ecl["geomean"] > 2.0 * li["geomean"]
    # Fig 10: iSpan performs best on the giant-SCC groups and collapses
    # on the small-SCC deep-DAG groups (torch/toroid); mobius-strip sits
    # between the classes (half its ordinates are giant-SCC here)
    iy = s["iSpan Xeon"]
    giant = {"klein-bottle", "twist-hex"}
    deep = {"torch-hex", "torch-tet", "toroid-hex", "toroid-wedge"}
    assert min(iy[k] for k in giant) > 3 * max(iy[k] for k in deep)
    # and ECL still dominates iSpan overall
    assert ecl["geomean"] > 20 * iy["geomean"]


def test_ecl_kernel_large_mesh(benchmark, large_meshes):
    g = next(grp for grp in large_meshes if grp.name == "torch-hex").graphs[0]
    benchmark(lambda: solve(g, "ecl-scc", device=A100))
