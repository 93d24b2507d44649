"""Tests for the synthetic SuiteSparse stand-ins (Table 3).

The generator plants exact structure; these tests assert that Tarjan
measures exactly what was planted — the suite's core guarantee.
"""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import POWER_LAW_SPECS, build_powerlaw, dag_depth, default_scale, powerlaw_suite
from repro.baselines import tarjan_scc

SCALE = 1 / 256  # tiny but structurally faithful


@pytest.mark.parametrize("spec", POWER_LAW_SPECS, ids=lambda s: s.name)
def test_planted_structure_verifies(spec):
    g, planted = build_powerlaw(spec.name, scale=SCALE, seed=0)
    labels = tarjan_scc(g).labels
    uniq, counts = np.unique(labels, return_counts=True)
    assert uniq.size == planted["num_sccs"]
    assert counts.max() == planted["largest"]
    assert int((counts == 1).sum()) == planted["size1"]
    assert int((counts == 2).sum()) == planted["size2"]


@pytest.mark.parametrize("spec", POWER_LAW_SPECS, ids=lambda s: s.name)
def test_scaled_sizes_track_paper(spec):
    g, planted = build_powerlaw(spec.name, scale=SCALE, seed=0)
    assert abs(g.num_vertices - spec.vertices * SCALE) / (spec.vertices * SCALE) < 0.2
    # edge counts may deviate more (giant-share heuristics) but stay same order
    assert g.num_edges > 0.3 * spec.edges * SCALE
    assert g.num_edges < 3.0 * spec.edges * SCALE


def test_giant_fraction_classes():
    """Giant-SCC fraction must match each graph's class."""
    for name, expect_giant in [("cage14", True), ("com-Youtube", False), ("wiki-Talk", False)]:
        g, _ = build_powerlaw(name, scale=SCALE, seed=0)
        labels = tarjan_scc(g).labels
        _, counts = np.unique(labels, return_counts=True)
        frac = counts.max() / g.num_vertices
        if expect_giant:
            assert frac > 0.9, name
        else:
            assert frac < 0.2, name


def test_youtube_is_deep_dag():
    g, _ = build_powerlaw("com-Youtube", scale=SCALE, seed=0)
    labels = tarjan_scc(g).labels
    assert np.unique(labels).size == g.num_vertices  # all trivial
    assert dag_depth(g, labels) > 20


def test_freescale2_has_many_size2():
    g, planted = build_powerlaw("Freescale2", scale=1 / 64, seed=0)
    labels = tarjan_scc(g).labels
    _, counts = np.unique(labels, return_counts=True)
    assert int((counts == 2).sum()) == planted["size2"] > 100


def test_hub_degrees_scale():
    spec = next(s for s in POWER_LAW_SPECS if s.name == "circuit5M")
    g, _ = build_powerlaw("circuit5M", scale=SCALE, seed=0)
    # circuit5M's hub has degree ~0.23 |V|; the stand-in must keep a hub
    assert g.out_degree().max() > 0.05 * g.num_vertices


def test_unknown_name_rejected():
    with pytest.raises(GraphFormatError, match="unknown"):
        build_powerlaw("not-a-graph")


def test_powerlaw_suite_subset():
    suite = powerlaw_suite(scale=SCALE, names=["flickr", "wiki-Talk"])
    assert [g.name for g, _ in suite] == ["flickr", "wiki-Talk"]


def test_default_scale_env(monkeypatch):
    monkeypatch.delenv("REPRO_FULL", raising=False)
    assert default_scale() == 1.0 / 32.0
    monkeypatch.setenv("REPRO_FULL", "1")
    assert default_scale() == 1.0


def test_determinism():
    a, _ = build_powerlaw("flickr", scale=SCALE, seed=3)
    b, _ = build_powerlaw("flickr", scale=SCALE, seed=3)
    assert a.same_structure(b)
