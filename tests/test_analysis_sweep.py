"""Tests for analysis (stats, verification) and the sweep application."""

import numpy as np
import pytest

from repro.analysis import (
    assert_valid_scc_labels,
    partitions_equal,
    scc_size_histogram,
    scc_statistics,
    verify_labels,
)
from repro.baselines import kosaraju_scc, tarjan_scc
from repro.core import ecl_scc
from repro.errors import VerificationError
from repro.graph import CSRGraph, cycle_graph, path_graph, scc_ladder
from repro.mesh import sweep_graphs, toroid_hex, twist_hex
from repro.sweep import solve_transport_sweep, sweep_schedule


class TestPartitionsEqual:
    def test_identical(self):
        a = np.array([0, 0, 1])
        assert partitions_equal(a, a)

    def test_renamed(self):
        assert partitions_equal(np.array([0, 0, 1]), np.array([9, 9, 4]))

    def test_coarser_rejected(self):
        assert not partitions_equal(np.array([0, 0, 1]), np.array([0, 0, 0]))

    def test_finer_rejected(self):
        assert not partitions_equal(np.array([0, 0, 0]), np.array([0, 1, 2]))

    def test_shape_mismatch(self):
        assert not partitions_equal(np.array([0]), np.array([0, 1]))

    def test_empty(self):
        assert partitions_equal(np.array([]), np.array([]))


class TestVerifyLabels:
    def test_accepts_correct(self):
        g = cycle_graph(5)
        verify_labels(g, tarjan_scc(g).labels)

    def test_rejects_wrong(self):
        g = cycle_graph(5)
        with pytest.raises(VerificationError):
            verify_labels(g, np.arange(5))

    def test_rejects_bad_length(self):
        with pytest.raises(VerificationError):
            verify_labels(cycle_graph(5), np.zeros(3, dtype=np.int64))

    def test_custom_oracle(self):
        g = path_graph(4)
        verify_labels(g, np.arange(4), oracle=kosaraju_scc)

    def test_assert_valid_structure(self):
        assert_valid_scc_labels(np.array([2, 2, 2, 3]))
        assert_valid_scc_labels(np.array([1, 1]))
        assert_valid_scc_labels(np.array([], dtype=np.int64))

    def test_assert_invalid_rep(self):
        with pytest.raises(VerificationError):
            assert_valid_scc_labels(np.array([1, 0]))  # rep 1 labelled 0? labels[1]=0 != 1

    def test_assert_out_of_range(self):
        with pytest.raises(VerificationError):
            assert_valid_scc_labels(np.array([0, 5]))


class TestSccStats:
    def test_ladder(self):
        g = scc_ladder(4)
        s = scc_statistics(g, tarjan_scc(g).labels)
        assert s.num_sccs == 4
        assert s.size2_sccs == 4
        assert s.size1_sccs == 0
        assert s.largest_scc == 2
        assert s.dag_depth == 4

    def test_without_depth(self):
        g = cycle_graph(4)
        s = scc_statistics(g, tarjan_scc(g).labels, with_depth=False)
        assert s.dag_depth == 0

    def test_histogram(self):
        labels = np.array([0, 0, 1, 2, 2, 2])
        sizes, counts = scc_size_histogram(labels)
        assert sizes.tolist() == [1, 2, 3]
        assert counts.tolist() == [1, 1, 1]

    def test_as_row_keys(self):
        g = cycle_graph(3)
        row = scc_statistics(g, tarjan_scc(g).labels).as_row()
        assert row["sccs"] == 1 and row["largest"] == 3


class TestSweepSchedule:
    def test_path_schedule(self):
        g = path_graph(4)
        sch = sweep_schedule(g, tarjan_scc(g).labels)
        assert sch.depth == 4
        assert [lv.tolist() for lv in sch.levels] == [[0], [1], [2], [3]]
        assert sch.num_nontrivial == 0

    def test_cycle_one_level(self):
        g = cycle_graph(5)
        sch = sweep_schedule(g, tarjan_scc(g).labels)
        assert sch.depth == 1
        assert sch.num_nontrivial == 1

    def test_validate_against(self):
        g = scc_ladder(5)
        labels = tarjan_scc(g).labels
        sch = sweep_schedule(g, labels)
        assert sch.validate_against(g, labels)

    def test_max_parallelism(self):
        g = CSRGraph.from_adjacency([[2], [2], []])
        sch = sweep_schedule(g, tarjan_scc(g).labels)
        assert sch.max_parallelism() == 2


class TestTransportSweep:
    def test_acyclic_exact(self):
        g = path_graph(5)
        labels = tarjan_scc(g).labels
        sch = sweep_schedule(g, labels)
        res = solve_transport_sweep(g, sch, labels, sigma_t=2.0, coupling=0.5)
        # psi[0]=0.5, psi[k] = (1 + 0.5 psi[k-1]) / 2
        expect = [0.5]
        for _ in range(4):
            expect.append((1 + 0.5 * expect[-1]) / 2)
        assert np.allclose(res.psi, expect)
        assert res.scc_inner_iterations == 0
        assert res.residual < 1e-12

    def test_cyclic_converges(self):
        g = cycle_graph(6)
        labels = tarjan_scc(g).labels
        sch = sweep_schedule(g, labels)
        res = solve_transport_sweep(g, sch, labels)
        assert res.scc_inner_iterations > 0
        assert res.residual < 1e-10
        # symmetric cycle: constant flux psi = q / (sigma - c)
        assert np.allclose(res.psi, 1.0 / (2.0 - 0.45))

    def test_mesh_end_to_end(self):
        mesh = toroid_hex(2)
        _, g = sweep_graphs(mesh, 1)[0]
        labels = ecl_scc(g).labels
        sch = sweep_schedule(g, labels)
        assert sch.validate_against(g, labels)
        res = solve_transport_sweep(g, sch, labels)
        assert res.residual < 1e-9
        assert np.all(res.psi > 0)

    def test_giant_scc_mesh(self):
        mesh = twist_hex(2)
        _, g = sweep_graphs(mesh, 1)[0]
        labels = ecl_scc(g).labels
        sch = sweep_schedule(g, labels)
        res = solve_transport_sweep(g, sch, labels, coupling=0.3)
        assert res.levels_processed == 1
        assert res.residual < 1e-9
