"""Tests for the virtual distributed-memory substrate."""

import numpy as np
import pytest

from repro.baselines import tarjan_scc
from repro.distributed import (
    ClusterSpec,
    Partition,
    VirtualCluster,
    block_partition,
    distributed_ecl_scc,
    distributed_fbtrim,
    random_partition,
)
from repro.errors import ConvergenceError, DeviceError, GraphValidationError
from repro.graph import CSRGraph, cycle_graph, path_graph, planted_scc_graph, scc_ladder
from repro.mesh import sweep_graphs, toroid_hex


class TestPartition:
    def test_block_sizes_balanced(self):
        g = cycle_graph(10)
        p = block_partition(g, 3)
        sizes = p.rank_sizes()
        assert sizes.sum() == 10
        assert sizes.max() - sizes.min() <= 1

    def test_block_cut_small_on_path(self):
        g = path_graph(100)
        p = block_partition(g, 4)
        assert p.num_cut_edges == 3  # one cut per slab boundary

    def test_random_cut_larger(self):
        g = path_graph(500)
        b = block_partition(g, 8)
        r = random_partition(g, 8, seed=1)
        assert r.num_cut_edges > 5 * b.num_cut_edges

    def test_single_rank_no_cut(self):
        g = cycle_graph(20)
        p = block_partition(g, 1)
        assert p.num_cut_edges == 0
        assert p.edge_cut_fraction() == 0.0

    def test_invalid_ranks(self):
        with pytest.raises(GraphValidationError):
            block_partition(cycle_graph(4), 0)

    def test_owner_validation(self):
        g = cycle_graph(4)
        with pytest.raises(GraphValidationError):
            Partition.__new__  # direct construction not exercised; use _build path
            from repro.distributed.partition import _build

            _build(g, np.array([0, 0, 9, 0]), 2)


class TestCluster:
    def test_superstep_accounting(self):
        c = VirtualCluster(ClusterSpec(num_ranks=4))
        c.superstep(np.array([100.0, 200, 50, 0]), messages=np.array([1, 2, 0, 0]),
                    bytes_out=np.array([16, 32, 0, 0]))
        assert c.supersteps == 1
        assert c.total_messages == 3
        assert c.total_bytes == 48
        # latency term uses the max over ranks
        assert c.latency_seconds == pytest.approx(2 * 2e-6)
        assert c.estimated_seconds > 0

    def test_scalar_broadcast(self):
        c = VirtualCluster(ClusterSpec(num_ranks=2))
        c.superstep(10.0, messages=1, bytes_out=8)
        assert c.total_messages == 2  # one per rank

    def test_spec_validation(self):
        with pytest.raises(DeviceError):
            ClusterSpec(num_ranks=0)
        with pytest.raises(DeviceError):
            ClusterSpec(num_ranks=2, alpha_us=0)

    def test_summary_keys(self):
        c = VirtualCluster(ClusterSpec(num_ranks=2))
        assert set(c.summary()) >= {"ranks", "supersteps", "estimated_s"}


class TestDistributedCorrectness:
    @pytest.mark.parametrize("ranks", [1, 2, 4, 7])
    def test_ecl_matches_tarjan(self, ranks, random_graphs):
        for g in random_graphs[:6]:
            p = block_partition(g, ranks)
            res = distributed_ecl_scc(g, p)
            assert np.array_equal(res.labels, tarjan_scc(g).labels), (ranks, g)

    @pytest.mark.parametrize("ranks", [1, 3, 5])
    def test_fbtrim_matches_tarjan(self, ranks, random_graphs):
        for g in random_graphs[:6]:
            p = block_partition(g, ranks)
            res = distributed_fbtrim(g, p)
            assert np.array_equal(res.labels, tarjan_scc(g).labels), (ranks, g)

    def test_partition_independence(self):
        g, _ = planted_scc_graph([4, 2, 6, 1, 3], extra_dag_edges=8, seed=3)
        a = distributed_ecl_scc(g, block_partition(g, 4))
        b = distributed_ecl_scc(g, random_partition(g, 4, seed=9))
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("ranks", [1, 2, 4])
    def test_frontier_reuse_is_a_pure_work_optimization(self, ranks, random_graphs):
        # same labels, supersteps, and halo messages as the dense sweep;
        # strictly-no-worse BSP critical path (skipped edges are the
        # quiescent ones, so the iterates are identical round by round)
        for g in random_graphs[:6]:
            p = block_partition(g, ranks)
            dense = distributed_ecl_scc(g, p)
            front = distributed_ecl_scc(g, p, engine="frontier")
            assert np.array_equal(front.labels, dense.labels)
            assert front.supersteps == dense.supersteps
            assert front.cluster.total_messages == dense.cluster.total_messages
            assert (
                front.cluster.estimated_seconds
                <= dense.cluster.estimated_seconds + 1e-15
            )

    def test_empty_graph(self):
        g = CSRGraph.empty(0)
        res = distributed_ecl_scc(g, block_partition(g, 2))
        assert res.num_sccs == 0

    def test_rank_mismatch_rejected(self):
        g = cycle_graph(6)
        p = block_partition(g, 2)
        with pytest.raises(ConvergenceError):
            distributed_ecl_scc(g, p, ClusterSpec(num_ranks=3))
        with pytest.raises(ConvergenceError):
            distributed_fbtrim(g, p, ClusterSpec(num_ranks=3))


class TestDistributedCosts:
    def test_random_partition_costs_more_communication(self):
        g = scc_ladder(300)
        a = distributed_ecl_scc(g, block_partition(g, 8))
        b = distributed_ecl_scc(g, random_partition(g, 8, seed=2))
        assert b.cluster.total_messages > a.cluster.total_messages

    def test_ecl_fewer_supersteps_than_fb_on_deep_mesh(self):
        """The headline: FB pays a superstep per BFS level and per residual
        task (~DAG depth in total); ECL pays one per propagation round.
        On a deep mesh the synchronization-count gap is enormous, while
        per-superstep ECL ships a wider halo — the latency/volume
        trade-off the scaling benchmark quantifies."""
        mesh = toroid_hex(3)
        _, g = sweep_graphs(mesh, 1)[0]
        p = block_partition(g, 8)
        ecl = distributed_ecl_scc(g, p)
        fb = distributed_fbtrim(g, p)
        assert np.array_equal(ecl.labels, fb.labels)
        assert ecl.supersteps < fb.supersteps / 10
        # estimated times stay within the same regime (no runaway)
        assert ecl.estimated_seconds < 5 * fb.estimated_seconds

    def test_more_ranks_more_messages_same_result(self):
        g = cycle_graph(256)
        r2 = distributed_ecl_scc(g, block_partition(g, 2))
        r8 = distributed_ecl_scc(g, block_partition(g, 8))
        assert np.array_equal(r2.labels, r8.labels)
        assert r8.cluster.total_messages >= r2.cluster.total_messages
