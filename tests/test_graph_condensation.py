"""Unit tests for repro.graph.condensation."""

import numpy as np
import pytest

from repro.errors import GraphValidationError
from repro.graph import (
    CSRGraph,
    compact_labels,
    condense,
    cycle_graph,
    dag_chain_of_cliques,
    dag_depth,
    grid_dag,
    path_graph,
    scc_ladder,
    topological_levels,
)
from repro.baselines import tarjan_scc


class TestCompactLabels:
    def test_dense_output(self):
        out = compact_labels(np.array([7, 3, 7, 9]))
        assert out.tolist() == [1, 0, 1, 2]

    def test_empty(self):
        assert compact_labels(np.array([], dtype=np.int64)).size == 0


class TestCondense:
    def test_cycle_condenses_to_point(self):
        g = cycle_graph(5)
        dag, dense = condense(g, tarjan_scc(g).labels)
        assert dag.num_vertices == 1
        assert dag.num_edges == 0
        assert np.all(dense == 0)

    def test_path_condenses_to_itself(self):
        g = path_graph(4)
        dag, _ = condense(g, tarjan_scc(g).labels)
        assert dag.num_vertices == 4
        assert dag.num_edges == 3

    def test_duplicate_inter_edges_removed(self):
        # two SCCs joined by two parallel edges
        g = CSRGraph.from_edges([0, 1, 0, 0], [1, 0, 2, 2], num_vertices=3)
        dag, _ = condense(g, tarjan_scc(g).labels)
        assert dag.num_edges == 1

    def test_condensation_is_acyclic(self):
        g = dag_chain_of_cliques(6, 4, seed=1)
        dag, _ = condense(g, tarjan_scc(g).labels)
        topological_levels(dag)  # raises on a cycle

    def test_label_length_check(self):
        with pytest.raises(GraphValidationError):
            condense(cycle_graph(3), np.array([0, 1]))


class TestTopologicalLevels:
    def test_path_levels(self):
        g = path_graph(5)
        assert topological_levels(g).tolist() == [0, 1, 2, 3, 4]

    def test_diamond(self):
        g = CSRGraph.from_adjacency([[1, 2], [3], [3], []])
        assert topological_levels(g).tolist() == [0, 1, 1, 2]

    def test_longest_path_wins(self):
        # 0->3 direct and 0->1->2->3: 3 must land at level 3
        g = CSRGraph.from_adjacency([[1, 3], [2], [3], []])
        assert topological_levels(g)[3] == 3

    def test_cycle_detected(self):
        with pytest.raises(GraphValidationError, match="cycle"):
            topological_levels(cycle_graph(4))

    def test_isolated_vertices_level0(self):
        assert topological_levels(CSRGraph.empty(3)).tolist() == [0, 0, 0]


class TestDagDepth:
    def test_paper_conventions(self):
        # a single SCC has depth 1 (twist-hex row of Table 2)
        g = cycle_graph(6)
        assert dag_depth(g, tarjan_scc(g).labels) == 1

    def test_path(self):
        g = path_graph(7)
        assert dag_depth(g, tarjan_scc(g).labels) == 7

    def test_ladder(self):
        g = scc_ladder(5)
        assert dag_depth(g, tarjan_scc(g).labels) == 5

    def test_grid(self):
        g = grid_dag(3, 4)
        assert dag_depth(g, tarjan_scc(g).labels) == 6

    def test_empty_graph(self):
        g = CSRGraph.empty(0)
        assert dag_depth(g, np.array([], dtype=np.int64)) == 0

    def test_edgeless_vertices(self):
        g = CSRGraph.empty(5)
        assert dag_depth(g, np.arange(5)) == 1
