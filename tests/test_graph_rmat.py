"""Unit tests for repro.graph.rmat."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import preferential_attachment_digraph, rmat_graph
from repro.baselines import tarjan_scc


class TestRmat:
    def test_size(self):
        g = rmat_graph(8, 4, seed=0)
        assert g.num_vertices == 256
        assert g.num_edges == 1024

    def test_deterministic(self):
        a = rmat_graph(7, 3, seed=9)
        b = rmat_graph(7, 3, seed=9)
        assert a.same_structure(b)

    def test_seed_changes_graph(self):
        a = rmat_graph(7, 3, seed=1)
        b = rmat_graph(7, 3, seed=2)
        assert not a.same_structure(b)

    def test_heavy_tail(self):
        g = rmat_graph(12, 8, seed=0, permute=False)
        deg = g.out_degree()
        # R-MAT with default skew produces hubs far above the mean
        assert deg.max() > 8 * deg.mean()

    def test_permute_preserves_degree_multiset(self):
        g1 = rmat_graph(8, 4, seed=5, permute=False)
        g2 = rmat_graph(8, 4, seed=5, permute=True)
        assert sorted(g1.out_degree().tolist()) == sorted(g2.out_degree().tolist())

    def test_dedup_option(self):
        g = rmat_graph(6, 16, seed=0, dedup=True)
        s, d = g.edges()
        keys = s * g.num_vertices + d
        assert np.unique(keys).size == keys.size

    def test_scale_bounds(self):
        with pytest.raises(GraphFormatError):
            rmat_graph(0, 4)
        with pytest.raises(GraphFormatError):
            rmat_graph(29, 4)

    def test_probability_bounds(self):
        with pytest.raises(GraphFormatError):
            rmat_graph(5, 4, a=0.9, b=0.2, c=0.2)


class TestPreferentialAttachment:
    def test_size(self):
        g = preferential_attachment_digraph(500, 3, seed=0)
        assert g.num_vertices == 500
        assert g.num_edges >= 3 * 499  # base edges plus reciprocations

    def test_reciprocation_creates_nontrivial_sccs(self):
        g = preferential_attachment_digraph(800, 4, back_prob=0.5, seed=1)
        _, counts = np.unique(tarjan_scc(g).labels, return_counts=True)
        assert counts.max() > 10

    def test_no_backedges_means_dag(self):
        g = preferential_attachment_digraph(300, 3, back_prob=0.0, seed=2)
        labels = tarjan_scc(g).labels
        assert np.unique(labels).size == 300

    def test_args_validated(self):
        with pytest.raises(GraphFormatError):
            preferential_attachment_digraph(1, 3)
        with pytest.raises(GraphFormatError):
            preferential_attachment_digraph(10, 0)
