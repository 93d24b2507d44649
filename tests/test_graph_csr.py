"""Unit tests for repro.graph.csr.CSRGraph."""

import gc

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import CSRGraph


class TestConstruction:
    def test_from_edges_basic(self):
        g = CSRGraph.from_edges([0, 1, 2], [1, 2, 0])
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert g.neighbors(0).tolist() == [1]

    def test_from_edges_explicit_size(self):
        g = CSRGraph.from_edges([0], [1], num_vertices=10)
        assert g.num_vertices == 10
        assert g.out_degree().tolist() == [1] + [0] * 9

    def test_from_edges_empty(self):
        g = CSRGraph.from_edges([], [])
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_from_edges_preserves_duplicates(self):
        g = CSRGraph.from_edges([0, 0, 0], [1, 1, 2])
        assert g.num_edges == 3
        assert g.neighbors(0).tolist() == [1, 1, 2]

    def test_from_edges_mismatched_lengths(self):
        with pytest.raises(GraphFormatError, match="equal length"):
            CSRGraph.from_edges([0, 1], [1])

    def test_from_edges_out_of_range(self):
        with pytest.raises(GraphFormatError, match="endpoints"):
            CSRGraph.from_edges([0], [5], num_vertices=3)

    def test_from_edges_negative(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges([-1], [0], num_vertices=2)

    def test_from_adjacency(self):
        g = CSRGraph.from_adjacency([[1, 2], [2], []])
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert g.neighbors(0).tolist() == [1, 2]

    def test_empty_constructor(self):
        g = CSRGraph.empty(7)
        assert g.num_vertices == 7
        assert g.num_edges == 0

    def test_empty_negative(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.empty(-1)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CSRGraph.from_edges([0], [1], 2.7),
            lambda: CSRGraph.empty(1.5),
            lambda: CSRGraph.empty("3"),
        ],
        ids=["from_edges-float", "empty-float", "empty-str"],
    )
    def test_vertex_count_must_be_an_integer(self, build):
        """A count is read, never truncated (2.7 -> 2) or parsed ("3")."""
        with pytest.raises(GraphFormatError, match="must be an integer"):
            build()

    def test_direct_validation_indptr_monotone(self):
        with pytest.raises(GraphFormatError, match="nondecreasing"):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 1]))

    def test_direct_validation_indptr_start(self):
        with pytest.raises(GraphFormatError, match="indptr\\[0\\]"):
            CSRGraph(np.array([1, 2]), np.array([0]))

    def test_direct_validation_indptr_end(self):
        with pytest.raises(GraphFormatError, match="len\\(indices\\)"):
            CSRGraph(np.array([0, 3]), np.array([0]))

    def test_direct_validation_dest_range(self):
        with pytest.raises(GraphFormatError, match="destinations"):
            CSRGraph(np.array([0, 1]), np.array([5]))


class TestDerivedForms:
    def test_edges_roundtrip(self):
        src = [0, 0, 1, 3]
        dst = [1, 2, 3, 0]
        g = CSRGraph.from_edges(src, dst)
        s, d = g.edges()
        pairs = sorted(zip(s.tolist(), d.tolist()))
        assert pairs == sorted(zip(src, dst))

    def test_edge_sources_cached(self):
        g = CSRGraph.from_edges([0, 1], [1, 0])
        assert g.edge_sources() is g.edge_sources()

    def test_transpose(self):
        g = CSRGraph.from_edges([0, 1], [1, 2])
        t = g.transpose()
        assert t.neighbors(1).tolist() == [0]
        assert t.neighbors(2).tolist() == [1]

    def test_transpose_cached_one_way(self):
        g = CSRGraph.from_edges([0, 0, 1], [1, 2, 2])
        assert g.transpose() is g.transpose()
        assert g.transpose().transpose().same_structure(g)
        # The transpose keeps no reference back to its origin, so
        # dropping both leaves nothing for the cycle collector.
        gc.collect()
        gc.disable()
        try:
            h = CSRGraph.from_edges([0, 1], [1, 0])
            h.transpose()
            del h
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_degrees(self):
        g = CSRGraph.from_edges([0, 0, 1], [1, 2, 2])
        assert g.out_degree().tolist() == [2, 1, 0]
        assert g.in_degree().tolist() == [0, 1, 2]

    def test_neighbors_bounds(self):
        g = CSRGraph.empty(3)
        with pytest.raises(IndexError):
            g.neighbors(3)
        with pytest.raises(IndexError):
            g.neighbors(-1)


class TestTransformations:
    def test_dedup(self):
        g = CSRGraph.from_edges([0, 0, 0, 1], [1, 1, 2, 1])
        d = g.dedup()
        assert d.num_edges == 3
        assert d.num_vertices == g.num_vertices

    def test_without_self_loops(self):
        g = CSRGraph.from_edges([0, 1, 1], [0, 1, 2])
        assert g.without_self_loops().num_edges == 1

    def test_reverse_copy_independent(self):
        g = CSRGraph.from_edges([0], [1])
        r = g.reverse_copy()
        assert r.neighbors(1).tolist() == [0]
        assert r is not g.transpose()

    def test_same_structure(self):
        a = CSRGraph.from_edges([0, 1], [1, 2])
        b = CSRGraph.from_edges([1, 0], [2, 1])
        assert a.same_structure(b)
        c = CSRGraph.from_edges([0, 1], [1, 0])
        assert not a.same_structure(c)
        assert not a.same_structure(CSRGraph.empty(3))

    def test_same_structure_multiset(self):
        a = CSRGraph.from_edges([0, 0], [1, 1])
        b = CSRGraph.from_edges([0], [1], num_vertices=2)
        assert not a.same_structure(b)

    def test_with_name(self):
        g = CSRGraph.from_edges([0], [1]).with_name("foo")
        assert g.name == "foo"
