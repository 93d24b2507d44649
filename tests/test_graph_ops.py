"""Unit tests for repro.graph.ops."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import (
    CSRGraph,
    add_edges,
    cycle_graph,
    disjoint_union,
    induced_subgraph,
    permute_random,
    relabel,
    remove_edges_mask,
    replicate,
)
from repro.baselines import tarjan_scc


class TestRelabel:
    def test_identity(self):
        g = cycle_graph(4)
        h = relabel(g, np.arange(4))
        assert h.same_structure(g)

    def test_swap(self):
        g = CSRGraph.from_edges([0], [1], num_vertices=2)
        h = relabel(g, np.array([1, 0]))
        assert h.neighbors(1).tolist() == [0]

    def test_non_permutation_rejected(self):
        g = cycle_graph(3)
        with pytest.raises(GraphFormatError, match="permutation"):
            relabel(g, np.array([0, 0, 1]))

    def test_out_of_range_rejected(self):
        g = cycle_graph(3)
        with pytest.raises(GraphFormatError):
            relabel(g, np.array([0, 1, 5]))

    def test_wrong_length(self):
        with pytest.raises(GraphFormatError, match="length"):
            relabel(cycle_graph(3), np.array([0, 1]))

    def test_preserves_scc_structure(self):
        g = cycle_graph(8)
        h, mapping = permute_random(g, seed=3)
        lg = tarjan_scc(g).labels
        lh = tarjan_scc(h).labels
        # cycle stays one SCC under any relabelling
        assert np.unique(lg).size == np.unique(lh).size == 1


class TestInducedSubgraph:
    def test_by_ids(self):
        g = CSRGraph.from_edges([0, 1, 2, 3], [1, 2, 3, 0])
        sub, orig = induced_subgraph(g, np.array([0, 1, 2]))
        assert sub.num_vertices == 3
        assert sub.num_edges == 2  # 0->1, 1->2 survive
        assert orig.tolist() == [0, 1, 2]

    def test_by_mask(self):
        g = CSRGraph.from_edges([0, 1], [1, 2])
        sub, orig = induced_subgraph(g, np.array([True, True, False]))
        assert sub.num_edges == 1
        assert orig.tolist() == [0, 1]

    def test_duplicate_ids_rejected(self):
        g = cycle_graph(3)
        with pytest.raises(GraphFormatError, match="unique"):
            induced_subgraph(g, np.array([0, 0]))

    def test_bad_mask_length(self):
        g = cycle_graph(3)
        with pytest.raises(GraphFormatError):
            induced_subgraph(g, np.array([True, False]))


class TestRemoveAddEdges:
    def test_remove_mask(self):
        g = CSRGraph.from_edges([0, 1, 2], [1, 2, 0])
        h = remove_edges_mask(g, np.array([False, True, False]))
        assert h.num_edges == 2

    def test_remove_wrong_size(self):
        g = cycle_graph(3)
        with pytest.raises(GraphFormatError):
            remove_edges_mask(g, np.array([True]))

    def test_add_edges(self):
        g = CSRGraph.empty(3)
        h = add_edges(g, np.array([0]), np.array([2]))
        assert h.num_edges == 1
        assert h.neighbors(0).tolist() == [2]


class TestUnionReplicate:
    def test_disjoint_union_counts(self):
        g = disjoint_union([cycle_graph(3), cycle_graph(4)])
        assert g.num_vertices == 7
        assert g.num_edges == 7
        labels = tarjan_scc(g).labels
        assert np.unique(labels).size == 2

    def test_disjoint_union_empty_list(self):
        assert disjoint_union([]).num_vertices == 0

    def test_replicate_scc_count(self):
        g = cycle_graph(5)
        big = replicate(g, 10)
        assert big.num_vertices == 50
        assert big.num_edges == 50
        assert np.unique(tarjan_scc(big).labels).size == 10

    def test_replicate_one_copy_identity(self):
        g = cycle_graph(4)
        assert replicate(g, 1).same_structure(g)

    def test_replicate_invalid(self):
        with pytest.raises(GraphFormatError):
            replicate(cycle_graph(3), 0)
