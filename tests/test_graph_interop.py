"""Tests for SciPy/NetworkX interop and the third-party SCC oracles."""

import numpy as np
import networkx as nx
import pytest
from scipy import sparse

from repro.baselines import kosaraju_scc, tarjan_scc
from repro.core import ecl_scc
from repro.errors import GraphFormatError
from repro.graph import (
    CSRGraph,
    build_powerlaw,
    cycle_graph,
    from_networkx,
    from_scipy_sparse,
    random_gnm,
    scipy_scc,
    to_networkx,
    to_scipy_sparse,
)


class TestScipyInterop:
    def test_roundtrip_dedups(self):
        g = CSRGraph.from_edges([0, 0, 1], [1, 1, 0])
        back = from_scipy_sparse(to_scipy_sparse(g))
        assert back.same_structure(g.dedup())

    def test_multiplicity_summed(self):
        g = CSRGraph.from_edges([0, 0], [1, 1], num_vertices=2)
        m = to_scipy_sparse(g)
        assert m[0, 1] == 2

    def test_from_any_format(self):
        g = cycle_graph(5)
        coo = to_scipy_sparse(g).tocoo()
        assert from_scipy_sparse(coo).same_structure(g)

    def test_explicit_zeros_dropped(self):
        m = sparse.csr_matrix(np.array([[0, 1], [0, 0]], dtype=float))
        m.data[...] = 0.0  # make the stored entry an explicit zero
        g = from_scipy_sparse(m)
        assert g.num_edges == 0

    def test_nonsquare_rejected(self):
        with pytest.raises(GraphFormatError):
            from_scipy_sparse(sparse.csr_matrix((2, 3)))

    def test_dense_rejected(self):
        with pytest.raises(GraphFormatError):
            from_scipy_sparse(np.zeros((2, 2)))


class TestNetworkxInterop:
    def test_roundtrip_multigraph(self):
        g = CSRGraph.from_edges([0, 0, 1], [1, 1, 2])
        back = from_networkx(to_networkx(g))
        assert back.same_structure(g)

    def test_from_digraph_with_labels(self):
        d = nx.DiGraph()
        d.add_edge("a", "b")
        d.add_edge("b", "a")
        g = from_networkx(d)
        assert g.num_vertices == 2
        assert np.unique(tarjan_scc(g).labels).size == 1

    def test_wrong_type_rejected(self):
        with pytest.raises(GraphFormatError):
            from_networkx(nx.Graph())

    def test_isolated_nodes_preserved(self):
        d = nx.DiGraph()
        d.add_nodes_from(range(4))
        d.add_edge(0, 1)
        assert from_networkx(d).num_vertices == 4


class TestThirdPartyOracles:
    """Our oracles cross-checked against two compiled/foreign codes."""

    def test_scipy_agrees_with_tarjan(self, all_graphs):
        for g in all_graphs:
            assert np.array_equal(scipy_scc(g), tarjan_scc(g).labels), g

    def test_scipy_agrees_on_powerlaw(self):
        for name in ("wikipedia", "Freescale2", "com-Youtube"):
            g, _ = build_powerlaw(name, scale=1 / 256, seed=0)
            assert np.array_equal(scipy_scc(g), tarjan_scc(g).labels), name

    def test_ecl_agrees_with_scipy(self, random_graphs):
        for g in random_graphs:
            assert np.array_equal(ecl_scc(g).labels, scipy_scc(g))

    def test_networkx_agrees_with_kosaraju(self, random_graphs):
        for g in random_graphs[:6]:
            labels = np.empty(g.num_vertices, dtype=np.int64)
            for comp in nx.strongly_connected_components(to_networkx(g)):
                rep = max(comp)
                for v in comp:
                    labels[v] = rep
            assert np.array_equal(labels, kosaraju_scc(g).labels)

    def test_scipy_empty(self):
        assert scipy_scc(CSRGraph.empty(0)).size == 0
