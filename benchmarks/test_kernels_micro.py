"""Microbenchmarks of the building-block kernels (Python wall time).

Not a paper table — these track the implementation's own hot paths so
regressions in the NumPy formulations (the relaxation library's push
and compression bodies, worklist compaction, one frontier round, the
frontier, adaptive and async drains, dynamic apply, CSR construction,
Tarjan) are visible in CI.
"""

import numpy as np
import pytest

from repro.baselines import tarjan_scc
from repro.core import (
    ALL_ON,
    BlockPartition,
    DoubleBufferWorklist,
    EclOptions,
    EdgeGrouping,
    Signatures,
    VertexFrontier,
    frontier_round,
    phase3_filter,
    propagate_async,
    propagate_frontier,
)
from repro.device import A100, VirtualDevice
from repro.dynamic import DynamicGraph, generate_edge_log
from repro.dynamic.replay import _net_effect
from repro.engine import AdaptiveScheduler, get_backend
from repro.engine.relax import push
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
    sigs = Signatures.identity(medium_graph.num_vertices)
    benchmark(lambda: push(sigs, src, dst, compress=True))


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


@pytest.fixture(scope="module")
def sweep_graph():
    """A mesh sweep graph: many narrow rounds, like the paper's meshes."""
    return build_sweep_graph(beam_hex(4), ordinates_3d(1)[0])


@pytest.mark.parametrize("width", ["full", "one-vertex"])
def test_frontier_round(benchmark, sweep_graph, width):
    """One frontier round from identity signatures.  The round
    scans every worklist edge for the frontier's, so a one-vertex
    frontier still costs O(m) host work; both ends are timed."""
    src, dst = sweep_graph.edges()
    n = sweep_graph.num_vertices
    grouping = EdgeGrouping.build(src, dst)
    seed = np.arange(n) if width == "full" else src[:1]
    frontier = VertexFrontier.seeded(seed, n)

    def run_round():
        return frontier_round(
            Signatures.identity(n), grouping, frontier, VirtualDevice(A100),
            n, True,
        )

    assert benchmark(run_round).any()


def test_frontier_drain(benchmark, sweep_graph):
    """One frontier Phase-2 drain, seeded with every vertex, to quiescence
    (push rounds with compression over the relaxed endpoints)."""
    src, dst = sweep_graph.edges()
    n = sweep_graph.num_vertices
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


def test_adaptive_drain(benchmark, sweep_graph):
    """The same drain with the adaptive scheduler picking each round's
    policy: dense rounds while the frontier is dense, frontier rounds
    after."""
    src, dst = sweep_graph.edges()
    n = sweep_graph.num_vertices
    grouping = EdgeGrouping.build(src, dst)
    opts = EclOptions(engine="adaptive")
    seed = np.arange(n)
    backend = get_backend("frontier")

    def drain():
        scheduler = AdaptiveScheduler(A100, num_vertices=n, num_edges=src.size)
        sigs = Signatures.identity(n)
        propagate_frontier(
            sigs, grouping, VirtualDevice(A100), opts, n,
            seed=seed, backend=backend, scheduler=scheduler,
        )
        return {d.policy for d in scheduler.decisions}

    assert benchmark(drain) == {"dense", "frontier"}


@pytest.mark.parametrize(
    "opts, expected",
    [
        # path compression converges in full-width rounds only
        (ALL_ON, (2, 5)),
        # plain relaxation: blocks exit, and the front turns narrow
        (ALL_ON.disabling("path_compression"), (2, 36)),
    ],
    ids=["compress", "plain"],
)
def test_async_drain(benchmark, sweep_graph, opts, expected):
    """One async Phase 2 from identity signatures, 64-edge blocks:
    full-width rounds while most blocks run, endpoint-compressing rounds
    once the active front is narrow."""
    src, dst = sweep_graph.edges()
    n = sweep_graph.num_vertices
    bounds = np.linspace(0, src.size, -(-src.size // 64) + 1).astype(np.int64)
    partition = BlockPartition.build(src, dst, bounds)

    def drain():
        sigs = Signatures.identity(n)
        return propagate_async(sigs, partition, VirtualDevice(A100), opts, n)

    assert benchmark(drain) == expected


def test_dynamic_apply(benchmark, sweep_graph):
    """One 12-event batch of inserts and deletes applied to a handle
    restored from a checkpoint.  An earlier batch of the same log merged
    components, so the deletions probe inside them and re-solve the ones
    that split; the insertions run the reachability traversals over the
    condensation, re-solve the affected cluster and merge."""
    n = sweep_graph.num_vertices
    log = generate_edge_log(sweep_graph, events=24, seed=3)
    first, second = (
        _net_effect(n, log.op[lo:hi], log.src[lo:hi], log.dst[lo:hi])
        for lo, hi in log.batches(12)
    )
    dg = DynamicGraph(sweep_graph)
    dg.apply(deletions=first[0], insertions=first[1])
    ckpt = dg.checkpoint()

    def apply():
        dg.restore(ckpt)
        return dg.apply(deletions=second[0], insertions=second[1])

    deleted, inserted = benchmark(apply)
    assert deleted.split_components > 0 and inserted.merged_components > 0
