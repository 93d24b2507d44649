"""Tests for the coloring (Orzan) and Multistep (Slota) baselines."""

import numpy as np
import pytest

from repro import solve
from repro.baselines import coloring_scc, multistep_scc, tarjan_scc
from repro.bench.runners import run_algorithm
from repro.device import A100, XEON_6226R
from repro.graph import (
    CSRGraph,
    build_powerlaw,
    cycle_graph,
    path_graph,
    scc_ladder,
)
from repro.mesh import sweep_graphs, torch_hex


class TestColoring:
    def test_matches_tarjan(self, all_graphs):
        for g in all_graphs:
            labels = coloring_scc(g).labels
            assert np.array_equal(labels, tarjan_scc(g).labels), g

    def test_single_cycle(self):
        labels = coloring_scc(cycle_graph(12)).labels
        assert (labels == 11).all()

    def test_root_is_max_member(self):
        g = scc_ladder(6)
        labels = coloring_scc(g).labels
        for rep in np.unique(labels):
            assert np.flatnonzero(labels == rep).max() == rep

    def test_counts_propagation_rounds(self):
        g = cycle_graph(40)
        dev = coloring_scc(g).device
        # max-color propagation around a cycle crawls ~diameter rounds
        # (no pointer jumping in the classic coloring scheme)
        assert dev.counters.rounds >= 20

    def test_empty(self):
        labels = coloring_scc(CSRGraph.empty(0)).labels
        assert labels.size == 0


class TestMultistep:
    def test_matches_tarjan(self, all_graphs):
        for g in all_graphs:
            labels = multistep_scc(g).labels
            assert np.array_equal(labels, tarjan_scc(g).labels), g

    def test_without_trim2(self, random_graphs):
        for g in random_graphs[:4]:
            labels = multistep_scc(g, use_trim2=False).labels
            assert np.array_equal(labels, tarjan_scc(g).labels)

    def test_powerlaw(self):
        g, _ = build_powerlaw("soc-LiveJournal1", scale=1 / 256, seed=0)
        labels = multistep_scc(g).labels
        assert np.array_equal(labels, tarjan_scc(g).labels)

    def test_mesh(self):
        _, g = sweep_graphs(torch_hex(2), 1)[0]
        labels = multistep_scc(g).labels
        assert np.array_equal(labels, tarjan_scc(g).labels)

    def test_empty(self):
        labels = multistep_scc(CSRGraph.empty(3)).labels
        assert labels.tolist() == [0, 1, 2]


class TestRunnerIntegration:
    @pytest.mark.parametrize("algo", ["coloring", "multistep"])
    def test_run_algorithm(self, algo):
        g = scc_ladder(9)
        r = run_algorithm(g, algo, XEON_6226R, verify=False)
        assert r.num_sccs == 9
        assert r.model_seconds > 0

    def test_multistep_between_fb_and_ecl_on_powerlaw(self):
        """Sanity on the cost ordering: Multistep's coloring phase beats
        plain recursive FB on a high-SCC-count input."""
        g, _ = build_powerlaw("wiki-Talk", scale=1 / 128, seed=0)
        ms = solve(g, "multistep", device=A100)
        fb = solve(g, "fb", device=A100)
        assert ms.model_seconds < fb.model_seconds
