"""Microbenchmarks of the building-block kernels (Python wall time).

Not a paper table — these track the implementation's own hot paths so
regressions in the NumPy formulations (reduceat segment-max, worklist
compaction, the frontier drain's gather + scatter-max rounds, CSR
construction, Tarjan) are visible in CI.
"""

import numpy as np
import pytest

from repro.baselines import tarjan_scc
from repro.core import (
    ALL_ON,
    DoubleBufferWorklist,
    EclOptions,
    EdgeGrouping,
    Signatures,
    phase3_filter,
    propagate_frontier,
)
from repro.device import A100, VirtualDevice
from repro.engine import get_backend
from repro.graph import CSRGraph, rmat_graph
from repro.mesh import beam_hex, build_sweep_graph, ordinates_3d


@pytest.fixture(scope="module")
def medium_graph():
    return rmat_graph(14, 8, seed=7)


def test_csr_construction(benchmark, medium_graph):
    src, dst = medium_graph.edges()
    benchmark(lambda: CSRGraph.from_edges(src, dst, medium_graph.num_vertices))


def test_transpose(benchmark, medium_graph):
    benchmark(lambda: medium_graph.reverse_copy())


def test_edge_grouping_build(benchmark, medium_graph):
    src, dst = medium_graph.edges()
    benchmark(lambda: EdgeGrouping.build(src, dst))


def test_relax_round(benchmark, medium_graph):
    src, dst = medium_graph.edges()
    grouping = EdgeGrouping.build(src, dst)
    sigs = Signatures.identity(medium_graph.num_vertices)

    def round_():
        grouping.relax(sigs, compress=True)

    benchmark(round_)


def test_phase3_compaction(benchmark, medium_graph):
    src, dst = medium_graph.edges()
    sigs = Signatures.identity(medium_graph.num_vertices)

    def run():
        wl = DoubleBufferWorklist(src.copy(), dst.copy())
        phase3_filter(wl, sigs, VirtualDevice(A100), ALL_ON)

    benchmark(run)


def test_tarjan_oracle(benchmark, medium_graph):
    benchmark(lambda: tarjan_scc(medium_graph))


def test_sweep_graph_construction(benchmark):
    mesh = beam_hex(4)
    omega = ordinates_3d(1)[0]
    benchmark(lambda: build_sweep_graph(mesh, omega))


def test_frontier_drain(benchmark):
    """One frontier Phase-2 drain, seeded with every vertex, to quiescence
    on a mesh sweep graph (many narrow rounds, like the paper's meshes)."""
    graph = build_sweep_graph(beam_hex(4), ordinates_3d(1)[0])
    src, dst = graph.edges()
    n = graph.num_vertices
    grouping = EdgeGrouping.build(src, dst)
    opts = EclOptions(engine="frontier")
    seed = np.arange(n)
    backend = get_backend("frontier")

    def drain():
        sigs = Signatures.identity(n)
        return propagate_frontier(
            sigs, grouping, VirtualDevice(A100), opts, n,
            seed=seed, backend=backend,
        )

    launches, rounds = benchmark(drain)
    assert launches == 2 and rounds > 1
