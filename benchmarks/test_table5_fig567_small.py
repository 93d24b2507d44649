"""Table 5 + Figures 5-7: runtimes/throughput on the small mesh graphs.

Six columns: ECL-SCC and GPU-SCC on the Titan V / A100 models, iSpan on
the Ryzen / Xeon models.  The paper's qualitative claims checked here:

* Figs 5-6: ECL-SCC outperforms GPU-SCC on (nearly) all mesh groups —
  geomean 6.2x (Titan V) / 6.5x (A100) in the paper; the factor is larger
  at reduced scale because small inputs are launch-bound (EXPERIMENTS.md).
* Fig 7: ECL-SCC on either GPU model is orders of magnitude faster than
  iSpan on either CPU model (paper: ~4400x geomean).
"""

from repro import solve
from repro.bench import geometric_mean, runtime_table, throughput_figures
from repro.device import A100

from conftest import save_and_print


def test_table5_and_figs567(benchmark, results_dir, small_meshes):
    groups = [(g.name, g.graphs) for g in small_meshes]
    res = benchmark.pedantic(
        lambda: runtime_table(groups, table_name="table5"), rounds=1, iterations=1
    )
    fig = throughput_figures(res, figure_name="figs5-7")
    save_and_print(results_dir, "table5_small_runtimes", res.rendered, res)
    save_and_print(results_dir, "fig5to7_small_throughput", fig.rendered, fig)

    s = fig.series
    # Fig 5/6: ECL-SCC beats GPU-SCC on every small mesh group and in geomean
    for dev in ("Titan V", "A100"):
        ecl = s[f"ECL-SCC {dev}"]
        li = s[f"GPU-SCC {dev}"]
        assert ecl["geomean"] > 2.0 * li["geomean"], dev
        wins = sum(ecl[k] > li[k] for k in ecl if k != "geomean")
        assert wins >= len(ecl) - 2  # paper: all but beam-hex
    # Fig 7: ECL-SCC (GPU) vs iSpan (CPU): orders of magnitude
    assert s["ECL-SCC A100"]["geomean"] > 30 * s["iSpan Xeon"]["geomean"]
    assert s["ECL-SCC Titan V"]["geomean"] > 30 * s["iSpan Ryzen"]["geomean"]
    # A100 >= Titan V for ECL-SCC
    assert s["ECL-SCC A100"]["geomean"] >= s["ECL-SCC Titan V"]["geomean"]


def test_ecl_kernel_small_mesh(benchmark, small_meshes):
    """pytest-benchmark target: one full ECL-SCC run (wall time)."""
    g = next(grp for grp in small_meshes if grp.name == "toroid-hex").graphs[0]
    benchmark(lambda: solve(g, "ecl-scc", device=A100))
