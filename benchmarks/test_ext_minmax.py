"""Extension: the 4-signature (2 max + 2 min) variant of §3.3.

The paper describes but rejects this variant (it halves the expected
iteration count at the cost of doubling signature memory).  We implement
it and measure the trade-off the authors declined to ship.
"""

from repro.bench import render_table
from repro.core import ecl_scc, minmax_scc
from repro.device import A100
from repro.graph.suite import powerlaw_suite
from repro.mesh.suite import small_mesh_suite

from conftest import save_and_print


def _workloads():
    meshes = small_mesh_suite(names=["toroid-hex", "torch-hex"], num_ordinates=2)
    power = powerlaw_suite(names=["web-Google", "flickr"], scale=1 / 64)
    out = [(grp.name, g) for grp in meshes for g in grp.graphs[:1]]
    out += [(g.name, g) for g, _ in power]
    return out


def test_minmax_variant_tradeoff(benchmark, results_dir):
    rows = []

    def run():
        for name, g in _workloads():
            base = ecl_scc(g, device=A100)
            quad = minmax_scc(g, device=A100)
            rows.append(
                [
                    name,
                    base.outer_iterations,
                    quad.outer_iterations,
                    round(base.estimated_seconds * 1e3, 4),
                    round(quad.estimated_seconds * 1e3, 4),
                ]
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    table = render_table(
        ["graph", "iters (max)", "iters (min/max)", "ms (max)", "ms (min/max)"],
        rows,
        title="Extension: 4-signature min/max variant vs shipped 2-signature",
    )
    save_and_print(results_dir, "ext_minmax", table)
    # the variant's whole point: it never needs more outer iterations
    for r in rows:
        assert r[2] <= r[1], r
