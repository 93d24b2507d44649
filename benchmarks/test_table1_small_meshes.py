"""Table 1: properties of the small mesh graphs.

Regenerates the paper's Table 1 at the active scale (per-group vertex and
edge counts, degree bounds, SCC statistics, DAG depth across ordinates)
and benchmarks the property-extraction pipeline on one representative
group.
"""

from repro.analysis import scc_statistics
from repro.baselines import tarjan_scc
from repro.bench import mesh_table_properties

from conftest import save_and_print


def test_table1_small_mesh_properties(benchmark, results_dir, small_meshes):
    res = benchmark.pedantic(
        lambda: mesh_table_properties("small"), rounds=1, iterations=1
    )
    save_and_print(results_dir, "table1_small_meshes", res.rendered)
    rows = {r["graph"]: r for r in res.rows}
    # Table 1's structural classes must reproduce at scale:
    assert rows["beam-hex"]["max_largest"] == 1          # all-trivial
    assert rows["star"]["max_largest"] == 1              # all-trivial
    assert rows["star"]["min_depth"] > rows["beam-hex"]["min_depth"]
    assert rows["torch-tet"]["max_size2"] > 100          # many 2-SCCs
    assert 1 < rows["toroid-hex"]["max_largest"] <= 2000  # small clusters
    assert rows["torch-hex"]["max_dout"] <= 6            # low constant degree


def test_scc_stats_kernel(benchmark, small_meshes):
    """pytest-benchmark target: the statistics kernel on one mesh graph."""
    g = small_meshes[0].graphs[0]
    labels = tarjan_scc(g).labels
    benchmark(lambda: scc_statistics(g, labels, with_depth=False))
