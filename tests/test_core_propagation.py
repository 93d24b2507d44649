"""Tests for the Phase-2 propagation engines."""

import numpy as np
import pytest

from repro.core import (
    ALL_ON,
    BlockPartition,
    EclOptions,
    EdgeGrouping,
    Signatures,
    VertexFrontier,
    propagate_async,
    propagate_frontier,
    propagate_sync,
)
from repro.device import A100, VirtualDevice
from repro.engine import get_backend
from repro.errors import AlgorithmError, ConvergenceError
from repro.graph import cycle_graph, path_graph, permute_random


def run_sync(graph, opts):
    src, dst = graph.edges()
    sigs = Signatures.identity(graph.num_vertices)
    dev = VirtualDevice(A100)
    grouping = EdgeGrouping.build(src, dst)
    rounds = propagate_sync(sigs, grouping, dev, opts, graph.num_vertices)
    return sigs, rounds, dev


def run_async(graph, opts, blocks=4):
    src, dst = graph.edges()
    sigs = Signatures.identity(graph.num_vertices)
    dev = VirtualDevice(A100)
    bounds = np.linspace(0, src.size, blocks + 1).astype(np.int64)
    part = BlockPartition.build(src, dst, bounds)
    launches, rounds = propagate_async(sigs, part, dev, opts, graph.num_vertices)
    return sigs, launches, rounds, dev


SYNC_PLAIN = EclOptions(async_phase2=False, path_compression=False)
SYNC_COMPRESS = EclOptions(async_phase2=False, path_compression=True)


class TestFixedPointValues:
    """At the fixed point, sig_in/sig_out must equal the true max over
    ancestors/descendants — checked exactly on analysable graphs."""

    def test_path_graph(self):
        g = path_graph(6)
        sigs, _, _ = run_sync(g, SYNC_PLAIN)
        # ancestors of v on a path: 0..v -> max ancestor is v itself
        assert sigs.sig_in.tolist() == [0, 1, 2, 3, 4, 5]
        # descendants of v: v..5 -> max descendant is 5
        assert sigs.sig_out.tolist() == [5] * 6

    def test_cycle_graph(self):
        g = cycle_graph(5)
        sigs, _, _ = run_sync(g, SYNC_PLAIN)
        assert (sigs.sig_in == 4).all()
        assert (sigs.sig_out == 4).all()

    @pytest.mark.parametrize("opts", [SYNC_PLAIN, SYNC_COMPRESS])
    def test_compression_same_fixed_point(self, opts):
        g, _ = permute_random(cycle_graph(40), seed=2)
        sigs, _, _ = run_sync(g, opts)
        assert (sigs.sig_in == 39).all()
        assert (sigs.sig_out == 39).all()

    def test_async_same_fixed_point(self):
        g, _ = permute_random(cycle_graph(64), seed=1)
        s_sync, _, _ = run_sync(g, SYNC_COMPRESS)
        s_async, _, _, _ = run_async(g, ALL_ON, blocks=5)
        assert np.array_equal(s_sync.sig_in, s_async.sig_in)
        assert np.array_equal(s_sync.sig_out, s_async.sig_out)


class TestRoundCounts:
    def test_plain_cycle_is_linear(self):
        g = cycle_graph(64)
        _, rounds, _ = run_sync(g, SYNC_PLAIN)
        assert rounds >= 60  # value must walk the whole cycle

    def test_compression_is_logarithmic_on_permuted_cycle(self):
        g, _ = permute_random(cycle_graph(1024), seed=0)
        _, rounds, _ = run_sync(g, SYNC_COMPRESS)
        assert rounds < 40  # ~log2(1024) + constant, not ~1024

    def test_async_fewer_launches_than_sync_rounds(self):
        g, _ = permute_random(cycle_graph(256), seed=3)
        _, sync_rounds, _ = run_sync(g, SYNC_PLAIN)
        _, launches, _, _ = run_async(
            g, EclOptions(path_compression=False), blocks=4
        )
        assert launches < sync_rounds

    def test_sync_counts_one_launch_per_round(self):
        g = path_graph(20)
        _, rounds, dev = run_sync(g, SYNC_PLAIN)
        assert dev.counters.kernel_launches == rounds


class TestEdgeGrouping:
    def test_build_groups(self):
        src = np.array([2, 0, 2, 1])
        dst = np.array([0, 1, 1, 2])
        grp = EdgeGrouping.build(src, dst)
        assert grp.group_src.tolist() == [0, 1, 2]
        assert grp.touched.tolist() == [0, 1, 2]
        assert grp.num_edges == 4

    def test_relax_single_edge(self):
        grp = EdgeGrouping.build(np.array([0]), np.array([1]))
        sigs = Signatures.identity(2)
        changed = grp.relax(sigs, compress=False)
        assert changed
        assert sigs.sig_out[0] == 1  # u_out <- max(u_out, v_out)
        assert sigs.sig_in[1] == 1   # v_in stays (u_in=0 < 1)

    def test_relax_idempotent_at_fixpoint(self):
        grp = EdgeGrouping.build(np.array([0]), np.array([1]))
        sigs = Signatures.identity(2)
        grp.relax(sigs, compress=False)
        assert not grp.relax(sigs, compress=False)


def run_frontier(graph, opts, seed=None):
    src, dst = graph.edges()
    n = graph.num_vertices
    sigs = Signatures.identity(n)
    dev = VirtualDevice(A100)
    grouping = EdgeGrouping.build(src, dst)
    if seed is None:
        seed = np.unique(np.concatenate([src, dst])) if src.size else np.array([], dtype=np.int64)
    launches, rounds = propagate_frontier(
        sigs, grouping, dev, opts, n, seed=seed, backend=get_backend("dense")
    )
    return sigs, launches, rounds, dev


FRONTIER = EclOptions(engine="frontier")


class TestFrontierEngine:
    def test_same_fixed_point_as_sync(self):
        g, _ = permute_random(cycle_graph(64), seed=4)
        s_sync, _, _ = run_sync(g, SYNC_COMPRESS)
        s_front, _, _, _ = run_frontier(g, FRONTIER)
        assert np.array_equal(s_sync.sig_in, s_front.sig_in)
        assert np.array_equal(s_sync.sig_out, s_front.sig_out)

    def test_no_compression_fixed_point(self):
        g = path_graph(9)
        s_sync, _, _ = run_sync(g, SYNC_PLAIN)
        s_front, _, _, _ = run_frontier(g, FRONTIER.disabling("path_compression"))
        assert np.array_equal(s_sync.sig_in, s_front.sig_in)
        assert np.array_equal(s_sync.sig_out, s_front.sig_out)

    def test_empty_seed_skips_drain_launch(self):
        g = path_graph(5)
        sigs, launches, rounds, dev = run_frontier(
            g, FRONTIER, seed=np.array([], dtype=np.int64)
        )
        # the host reads back an empty worklist after the compaction
        # launch and never issues the drain launch
        assert (launches, rounds) == (1, 0)
        assert dev.counters.kernel_launches == 1
        assert np.array_equal(sigs.sig_in, np.arange(5))

    def test_two_launches_regardless_of_rounds(self):
        g = cycle_graph(50)
        _, launches, rounds, dev = run_frontier(
            g, FRONTIER.disabling("path_compression")
        )
        assert launches == 2
        assert dev.counters.kernel_launches == 2
        assert rounds >= 45  # plain relaxation still walks the cycle
        assert dev.counters.rounds == rounds

    def test_partial_seed_converges_from_invalidated_state(self):
        # quiesce fully, regress one vertex, reseed only it: the
        # frontier must re-derive the fixed point from that seed alone
        g = cycle_graph(12)
        sigs, _, _, _ = run_frontier(g, FRONTIER)
        assert (sigs.sig_in == 11).all()
        src, dst = g.edges()
        grouping = EdgeGrouping.build(src, dst)
        sigs.sig_in[3] = 3
        sigs.sig_out[3] = 3
        dev = VirtualDevice(A100)
        propagate_frontier(
            sigs, grouping, dev, FRONTIER, 12,
            seed=np.array([3]), backend=get_backend("dense"),
        )
        assert (sigs.sig_in == 11).all() and (sigs.sig_out == 11).all()

    def test_persistent_grid_clamp(self):
        g = cycle_graph(200)
        _, _, _, dev = run_frontier(g, FRONTIER)
        cap = VirtualDevice(A100).grid_blocks(persistent=True)
        assert dev.counters.blocks_scheduled <= 2 * cap


class TestVertexFrontier:
    def test_seeded_dedups_and_sorts(self):
        f = VertexFrontier.seeded(np.array([3, 1, 3, 2]), 5)
        assert f.vertices.tolist() == [1, 2, 3]
        assert f.size == 3 and f.generation == 0

    def test_seeded_rejects_out_of_range(self):
        with pytest.raises(AlgorithmError):
            VertexFrontier.seeded(np.array([5]), 5)
        with pytest.raises(AlgorithmError):
            VertexFrontier.seeded(np.array([-1]), 5)

    def test_advance_swaps_buffers(self):
        f = VertexFrontier.seeded(np.array([0]), 4)
        changed = np.array([False, True, False, True])
        f.advance(changed)
        assert f.vertices.tolist() == [1, 3]
        assert f.vertices.dtype == np.int64
        assert f.generation == 1
        f.advance(np.zeros(4, dtype=bool))
        assert f.size == 0 and f.generation == 2


class TestSafetyBounds:
    def test_round_bound_raises(self):
        g = cycle_graph(100)
        opts = EclOptions(async_phase2=False, path_compression=False, max_rounds=3)
        with pytest.raises(ConvergenceError):
            run_sync(g, opts)

    def test_async_honors_explicit_max_rounds(self):
        # regression: the async engine once used an ad-hoc 3|V|+16 bound
        # and ignored max_rounds entirely; it must go through
        # opts.rounds_bound like every other engine
        g = cycle_graph(100)
        opts = EclOptions(path_compression=False, max_rounds=3)
        with pytest.raises(ConvergenceError) as ei:
            run_async(g, opts)
        # same partial-progress payload as the sync engine
        assert ei.value.iterations == 3
        assert ei.value.sig_in.shape == (100,)
        assert ei.value.active_count > 0

    def test_frontier_honors_explicit_max_rounds(self):
        g = cycle_graph(100)
        opts = EclOptions(engine="frontier", path_compression=False, max_rounds=3)
        with pytest.raises(ConvergenceError) as ei:
            run_frontier(g, opts)
        assert ei.value.iterations == 3

    def test_auto_bound_is_engine_safe(self):
        # the shared auto bound must cover the async engine's worst case
        # (a value crossing a block boundary only advances per launch)
        assert EclOptions().rounds_bound(100) == 316
