"""Table 7 + Figures 11-13: runtimes/throughput on the power-law graphs.

Paper claims checked (§5.1.3): on this input class the three codes are
*competitive* — GPU-SCC and iSpan are optimized for power-law graphs, so
ECL-SCC's advantage largely disappears (paper geomeans: 1.18x over
GPU-SCC on the Titan V, 2.07x on the A100, 1.12-3.45x over iSpan).  The
assertion is deliberately two-sided: ECL-SCC must NOT dominate here the
way it does on meshes.
"""

from repro import solve
from repro.bench import runtime_table, throughput_figures
from repro.device import A100

from conftest import save_and_print


def test_table7_and_figs111213(benchmark, results_dir, powerlaw_graphs):
    groups = [(g.name, [g]) for g, _ in powerlaw_graphs]
    res = benchmark.pedantic(
        lambda: runtime_table(groups, table_name="table7"), rounds=1, iterations=1
    )
    fig = throughput_figures(res, figure_name="figs11-13")
    save_and_print(results_dir, "table7_powerlaw_runtimes", res.rendered, res)
    save_and_print(results_dir, "fig11to13_powerlaw_throughput", fig.rendered, fig)

    s = fig.series
    for dev in ("Titan V", "A100"):
        ratio = s[f"ECL-SCC {dev}"]["geomean"] / s[f"GPU-SCC {dev}"]["geomean"]
        # competitive, not dominant (paper: 1.18x / 2.07x).  At reduced
        # scale GPU-SCC's depth-dependent rounds shrink faster than
        # ECL-SCC's log-depth rounds, so the band is wider downward here;
        # REPRO_FULL=1 moves the ratio toward the paper's (EXPERIMENTS.md).
        assert 0.2 < ratio < 8.0, (dev, ratio)
    # GPU-SCC wins at least one power-law input (paper: 4 of 10 on Titan V)
    ecl, li = s["ECL-SCC Titan V"], s["GPU-SCC Titan V"]
    assert any(li[k] > ecl[k] for k in ecl if k != "geomean")
    # iSpan is far closer here than on meshes
    assert s["ECL-SCC A100"]["geomean"] < 20 * s["iSpan Xeon"]["geomean"]


def test_ecl_kernel_powerlaw(benchmark, powerlaw_graphs):
    g = next(g for g, _ in powerlaw_graphs if g.name == "flickr")
    benchmark(lambda: solve(g, "ecl-scc", device=A100))
