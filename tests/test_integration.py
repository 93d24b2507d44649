"""Integration tests: full pipelines across subsystems."""

import numpy as np
import pytest

from repro import solve
from repro.analysis import scc_statistics, verify_labels
from repro.baselines import gpu_scc, ispan_scc, tarjan_scc
from repro.core import ecl_scc
from repro.device import A100, TITAN_V, XEON_6226R
from repro.graph import build_powerlaw, permute_random, replicate
from repro.mesh import sweep_graphs, toroid_wedge, torch_hex
from repro.mesh.suite import build_group, SMALL_MESH_SPECS
from repro.sweep import solve_transport_sweep, sweep_schedule


class TestMeshToSweepPipeline:
    def test_full_pipeline_torch(self):
        mesh = torch_hex(2)
        for omega, g in sweep_graphs(mesh, 2):
            res = ecl_scc(g)
            verify_labels(g, res.labels)
            sch = sweep_schedule(g, res.labels)
            assert sch.validate_against(g, res.labels)
            out = solve_transport_sweep(g, sch, res.labels)
            assert out.residual < 1e-9

    def test_wedge_pipeline(self):
        mesh = toroid_wedge(2)
        _, g = sweep_graphs(mesh, 1)[0]
        res = ecl_scc(g)
        verify_labels(g, res.labels)

    def test_suite_group_instantiation(self):
        spec = SMALL_MESH_SPECS[0]  # beam-hex
        grp = build_group(spec, scale=0.1, num_ordinates=2)
        assert grp.name == "beam-hex"
        assert grp.num_ordinates == 2
        for g in grp.graphs:
            s = scc_statistics(g, tarjan_scc(g).labels, with_depth=False)
            assert s.largest_scc == 1  # all-trivial class


class TestCrossAlgorithmConsistency:
    def test_all_codes_on_mesh_graph(self):
        mesh = torch_hex(2)
        _, g = sweep_graphs(mesh, 1)[0]
        truth = tarjan_scc(g).labels
        assert np.array_equal(ecl_scc(g).labels, truth)
        assert np.array_equal(gpu_scc(g).labels, truth)
        assert np.array_equal(ispan_scc(g).labels, truth)

    def test_all_codes_on_powerlaw(self):
        g, _ = build_powerlaw("web-Google", scale=1 / 256, seed=1)
        truth = tarjan_scc(g).labels
        assert np.array_equal(ecl_scc(g).labels, truth)
        assert np.array_equal(gpu_scc(g).labels, truth)
        assert np.array_equal(ispan_scc(g).labels, truth)

    def test_id_permutation_invariance(self):
        """SCC partitions are invariant under vertex relabelling."""
        g, _ = build_powerlaw("flickr", scale=1 / 512, seed=0)
        h, mapping = permute_random(g, seed=9)
        lg = ecl_scc(g).labels
        lh = ecl_scc(h).labels
        # vertex v in g corresponds to mapping[v] in h
        from repro.analysis import partitions_equal

        assert partitions_equal(lg, lh[mapping])


class TestPaperShapeClaims:
    """The headline performance relationships, at test scale."""

    def test_ecl_beats_gpuscc_on_mesh(self):
        mesh = toroid_wedge(3)
        _, g = sweep_graphs(mesh, 1)[0]
        ecl = solve(g, "ecl-scc", device=A100)
        li = solve(g, "gpu-scc", device=A100)
        assert ecl.model_seconds < li.model_seconds / 2

    def test_ecl_gpu_beats_ispan_cpu_on_mesh(self):
        mesh = toroid_wedge(3)
        _, g = sweep_graphs(mesh, 1)[0]
        ecl = solve(g, "ecl-scc", device=A100)
        isp = solve(g, "ispan", device=XEON_6226R)
        assert ecl.model_seconds < isp.model_seconds / 10

    def test_competitive_on_powerlaw(self):
        """On power-law inputs the gap must be small (within ~4x either
        way), matching §5.1.3's 'on par' claim."""
        g, _ = build_powerlaw("flickr", scale=1 / 64, seed=0)
        ecl = solve(g, "ecl-scc", device=A100)
        li = solve(g, "gpu-scc", device=A100)
        ratio = ecl.model_seconds / li.model_seconds
        assert 0.1 < ratio < 4.0

    def test_a100_not_slower_than_titanv(self):
        g, _ = build_powerlaw("wikipedia", scale=1 / 128, seed=0)
        t = solve(g, "ecl-scc", device=TITAN_V).model_seconds
        a = solve(g, "ecl-scc", device=A100).model_seconds
        assert a <= t * 1.01

    def test_expanded_mesh_replication(self):
        """§5.1.4: SCC count scales with the replication factor."""
        mesh = toroid_wedge(2)
        _, g = sweep_graphs(mesh, 1)[0]
        base = ecl_scc(g).num_sccs
        big = replicate(g, 4)
        assert ecl_scc(big).num_sccs == 4 * base
