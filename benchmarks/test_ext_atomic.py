"""Extension: atomic vs atomic-free Phase 2 (paper §3.4).

"Phase 2 can easily be implemented with two atomic max operations.
However ... we opted for a faster atomic-free implementation."  We
implement both and measure the gap the authors describe: the atomic
variant issues two atomic RMWs per edge per round, which serialize on
the memory subsystem, while the shipped kernel's monotonic unsynchronized
writes cost plain stores.
"""

from repro.bench import render_table
from repro.core import ecl_scc
from repro.core.options import EclOptions
from repro.device import A100
from repro.graph.suite import powerlaw_suite
from repro.mesh.suite import small_mesh_suite

from conftest import save_and_print

ATOMIC = EclOptions(engine="atomic")


def _workloads():
    meshes = small_mesh_suite(names=["toroid-hex", "torch-hex"], num_ordinates=1)
    power = powerlaw_suite(names=["flickr", "soc-LiveJournal1"], scale=1 / 32)
    out = [(grp.name, grp.graphs[0]) for grp in meshes]
    out += [(g.name, g) for g, _ in power]
    return out


def test_atomic_vs_atomic_free(benchmark, results_dir):
    rows = []

    def run():
        for name, g in _workloads():
            free = ecl_scc(g, device=A100)
            atom = ecl_scc(g, options=ATOMIC, device=A100)
            rows.append(
                [
                    name,
                    round(free.estimated_seconds * 1e3, 4),
                    round(atom.estimated_seconds * 1e3, 4),
                    round(atom.estimated_seconds / free.estimated_seconds, 2),
                    atom.device.counters.atomics,
                ]
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    table = render_table(
        ["graph", "atomic-free ms", "atomic ms", "slowdown", "atomics issued"],
        rows,
        title="Extension: two-atomic-max Phase 2 vs the shipped atomic-free kernel (A100)",
    )
    save_and_print(results_dir, "ext_atomic", table)
    # the paper's stated reason for rejecting the atomic variant
    for r in rows:
        assert r[2] >= r[1], r       # atomic never faster
        assert r[4] > 0              # and it really issued atomics
    assert any(r[3] > 1.2 for r in rows)  # measurably slower somewhere
