"""Tests for the oracles, trims, reach primitives, and comparison codes."""

import numpy as np
import pytest

from repro.baselines import (
    fb_scc,
    fbtrim_scc,
    gpu_scc,
    hong_scc,
    ispan_scc,
    kosaraju_scc,
    tarjan_scc,
)
from repro.device import A100, XEON_6226R, VirtualDevice
from repro.engine import (
    active_degrees,
    colored_fb_rounds,
    frontier_expand,
    masked_bfs,
    normalize_labels_to_max,
    trim1,
    trim2,
    trim3,
)
from repro.graph import (
    CSRGraph,
    complete_digraph,
    cycle_graph,
    disjoint_union,
    path_graph,
    scc_ladder,
)
from repro.types import NO_VERTEX, VERTEX_DTYPE


class TestOracles:
    def test_tarjan_kosaraju_agree(self, all_graphs):
        for g in all_graphs:
            assert np.array_equal(tarjan_scc(g).labels, kosaraju_scc(g).labels), g

    def test_tarjan_cycle(self):
        assert (tarjan_scc(cycle_graph(5)).labels == 4).all()

    def test_tarjan_path(self):
        assert tarjan_scc(path_graph(4)).labels.tolist() == [0, 1, 2, 3]

    def test_tarjan_deep_graph_no_recursion_limit(self):
        # 50k-vertex path: a recursive DFS would blow the stack
        g = path_graph(50_000)
        labels = tarjan_scc(g).labels
        assert labels[-1] == 49_999

    def test_normalize_labels(self):
        out = normalize_labels_to_max(np.array([7, 7, 3, 3, 9]))
        assert out.tolist() == [1, 1, 3, 3, 4]

    def test_normalize_empty(self):
        assert normalize_labels_to_max(np.array([], dtype=np.int64)).size == 0


class TestTrims:
    def test_active_degrees_respect_mask(self):
        g = cycle_graph(4)
        active = np.array([True, True, False, True])
        ind, outd = active_degrees(g, active)
        assert outd[1] == 0  # 1 -> 2 is dead (2 inactive)
        assert ind[3] == 0   # 2 -> 3 is dead

    def test_trim1_peels_path(self):
        g = path_graph(6)
        active = np.ones(6, dtype=bool)
        labels = np.full(6, NO_VERTEX, dtype=VERTEX_DTYPE)
        removed, rounds = trim1(g, active, labels, VirtualDevice(A100))
        assert removed == 6
        assert not active.any()
        assert labels.tolist() == [0, 1, 2, 3, 4, 5]
        assert rounds >= 2  # peeling takes multiple rounds on a path

    def test_trim1_leaves_cycle(self):
        g = cycle_graph(5)
        active = np.ones(5, dtype=bool)
        labels = np.full(5, NO_VERTEX, dtype=VERTEX_DTYPE)
        removed, _ = trim1(g, active, labels, VirtualDevice(A100))
        assert removed == 0
        assert active.all()

    def test_trim2_isolated_pair(self):
        g = CSRGraph.from_edges([0, 1], [1, 0])
        active = np.ones(2, dtype=bool)
        labels = np.full(2, NO_VERTEX, dtype=VERTEX_DTYPE)
        n = trim2(g, active, labels, VirtualDevice(A100))
        assert n == 1
        assert labels.tolist() == [1, 1]

    def test_trim2_skips_pair_with_external_edge(self):
        g = CSRGraph.from_edges([0, 1, 0], [1, 0, 2], num_vertices=3)
        active = np.ones(3, dtype=bool)
        labels = np.full(3, NO_VERTEX, dtype=VERTEX_DTYPE)
        assert trim2(g, active, labels, VirtualDevice(A100)) == 0

    def test_trim3_isolated_triangle(self):
        g = CSRGraph.from_edges([0, 1, 2], [1, 2, 0])
        active = np.ones(3, dtype=bool)
        labels = np.full(3, NO_VERTEX, dtype=VERTEX_DTYPE)
        assert trim3(g, active, labels, VirtualDevice(A100)) == 3
        assert labels.tolist() == [2, 2, 2]

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (1, 2), (2, 0)],                                  # cycle
            [(0, 1), (1, 2), (2, 0), (1, 0)],                          # +1 chord
            [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1)],                  # +2 chords
            [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)],          # complete
            [(0, 1), (1, 0), (1, 2), (2, 1)],                          # bidi path
        ],
        ids=["cycle", "chord1", "chord2", "complete", "bidipath"],
    )
    def test_trim3_all_five_patterns(self, edges):
        g = CSRGraph.from_edges([e[0] for e in edges], [e[1] for e in edges], 3)
        active = np.ones(3, dtype=bool)
        labels = np.full(3, NO_VERTEX, dtype=VERTEX_DTYPE)
        assert trim3(g, active, labels, VirtualDevice(A100)) == 3
        assert labels.tolist() == [2, 2, 2]

    def test_trim3_skips_non_scc_triple(self):
        g = CSRGraph.from_edges([0, 1], [1, 2], num_vertices=3)  # open path
        active = np.ones(3, dtype=bool)
        labels = np.full(3, NO_VERTEX, dtype=VERTEX_DTYPE)
        assert trim3(g, active, labels, VirtualDevice(A100)) == 0

    def test_trim3_skips_triple_with_external_edge(self):
        g = CSRGraph.from_edges([0, 1, 2, 0], [1, 2, 0, 3], num_vertices=4)
        active = np.ones(4, dtype=bool)
        labels = np.full(4, NO_VERTEX, dtype=VERTEX_DTYPE)
        assert trim3(g, active, labels, VirtualDevice(A100)) == 0


class TestReach:
    def test_frontier_expand(self):
        g = CSRGraph.from_adjacency([[1, 2], [2], []])
        out = frontier_expand(g, np.array([0, 1]))
        assert sorted(out.tolist()) == [1, 2, 2]

    def test_masked_bfs_levels(self):
        g = path_graph(5)
        dev = VirtualDevice(A100)
        visited, levels = masked_bfs(g, np.array([0]), np.ones(5, bool), dev)
        assert visited.all()
        assert levels == 5  # 4 expansions + final empty check

    def test_masked_bfs_mask(self):
        g = path_graph(5)
        mask = np.array([True, True, False, True, True])
        visited, _ = masked_bfs(g, np.array([0]), mask, VirtualDevice(A100))
        assert visited.tolist() == [True, True, False, False, False]

    def test_masked_bfs_serial_cost(self):
        g = path_graph(10)
        dev = VirtualDevice(XEON_6226R)
        masked_bfs(g, np.array([0]), np.ones(10, bool), dev, serial_level_cost=100)
        assert dev.counters.serial_work >= 900

    def test_colored_fb_full_decomposition(self, all_graphs):
        for g in all_graphs:
            labels = np.full(g.num_vertices, NO_VERTEX, dtype=VERTEX_DTYPE)
            active = np.ones(g.num_vertices, dtype=bool)
            colored_fb_rounds(g, active, labels, VirtualDevice(A100))
            assert np.array_equal(labels, tarjan_scc(g).labels), g


class TestComparisonCodes:
    @pytest.mark.parametrize(
        "algo", [fb_scc, fbtrim_scc, gpu_scc, ispan_scc, hong_scc],
        ids=["fb", "fbtrim", "gpu_scc", "ispan", "hong"],
    )
    def test_matches_tarjan(self, algo, all_graphs):
        for g in all_graphs:
            labels = algo(g).labels
            assert np.array_equal(labels, tarjan_scc(g).labels), g

    def test_gpu_scc_launches_grow_with_depth(self):
        shallow = disjoint_union([complete_digraph(4)] * 8)
        deep = scc_ladder(64)
        dev_s = gpu_scc(shallow, device=A100).device
        dev_d = gpu_scc(deep, device=A100).device
        assert dev_d.counters.kernel_launches > dev_s.counters.kernel_launches

    def test_ispan_serial_work_on_deep_graphs(self):
        g = scc_ladder(100)
        dev = ispan_scc(g, device=XEON_6226R).device
        assert dev.counters.serial_work > 0

    def test_fb_pivot_first(self):
        g = cycle_graph(7)
        labels = fb_scc(g, pivot="first").labels
        assert np.array_equal(labels, tarjan_scc(g).labels)

    def test_empty_graphs(self):
        for algo in (fb_scc, fbtrim_scc, gpu_scc, ispan_scc, hong_scc):
            assert algo(CSRGraph.empty(0)).labels.size == 0
