"""Tests for the unstructured Delaunay tet meshes.

Scientific side-note captured here: Delaunay tetrahedralizations are
*acyclic* for the in-front-of relation of any direction (Edelsbrunner
1989), so their sweep graphs contain no SCCs at all — every torch-family
cycle in the paper must come from non-Delaunay meshing or curved
geometry, which is exactly what our curved-transform torch surrogate
models.
"""

import numpy as np
import pytest

from repro.baselines import tarjan_scc
from repro.errors import MeshError
from repro.mesh import (
    delaunay_tet_mesh,
    interior_faces,
    mesh_quality,
    sweep_graphs,
    unstructured_box_tet,
    unstructured_torch_tet,
)


class TestDelaunay:
    def test_basic_mesh(self):
        rng = np.random.default_rng(0)
        pts = rng.random((60, 3))
        m = delaunay_tet_mesh(pts)
        assert m.num_elements > 50
        interior_faces(m)  # conforming by construction

    def test_orientation_fixed(self):
        rng = np.random.default_rng(1)
        m = delaunay_tet_mesh(rng.random((40, 3)))
        q = mesh_quality(m)
        assert q.inverted_elements == 0

    def test_too_few_points(self):
        with pytest.raises(MeshError):
            delaunay_tet_mesh(np.zeros((3, 3)))

    def test_bad_shape(self):
        with pytest.raises(MeshError):
            delaunay_tet_mesh(np.zeros((10, 2)))

    def test_sliver_filter(self):
        rng = np.random.default_rng(2)
        pts = rng.random((100, 3))
        loose = delaunay_tet_mesh(pts, min_volume_fraction=0.0)
        tight = delaunay_tet_mesh(pts, min_volume_fraction=0.05)
        assert tight.num_elements <= loose.num_elements


class TestBuilders:
    def test_box_deterministic(self):
        a = unstructured_box_tet(200)
        b = unstructured_box_tet(200)
        assert a.num_elements == b.num_elements
        assert np.array_equal(a.cells, b.cells)

    def test_torch_geometry(self):
        m = unstructured_torch_tet(800)
        pts = m.points
        r = np.hypot(pts[:, 0], pts[:, 1])
        assert r.max() <= 1.0 + 1e-9          # cylinder radius bound
        assert 0 <= pts[:, 2].min() and pts[:, 2].max() <= 4.0 + 1e-9

    def test_validation(self):
        with pytest.raises(MeshError):
            unstructured_torch_tet(10)
        with pytest.raises(MeshError):
            unstructured_box_tet(4)


class TestDelaunayAcyclicity:
    """Edelsbrunner's acyclicity, observed: no SCCs for any ordinate."""

    def test_box_sweeps_acyclic(self):
        m = unstructured_box_tet(300)
        for _, g in sweep_graphs(m, 4):
            labels = tarjan_scc(g).labels
            assert np.unique(labels).size == g.num_vertices

    def test_torch_sweeps_acyclic(self):
        m = unstructured_torch_tet(800)
        for _, g in sweep_graphs(m, 3):
            labels = tarjan_scc(g).labels
            assert np.unique(labels).size == g.num_vertices

    def test_curved_torch_differs(self):
        """The contrast that justifies the torch surrogate: the curved
        structured torch has cycles, the Delaunay one cannot."""
        from repro.mesh import torch_tet

        _, g = sweep_graphs(torch_tet(2), 1)[0]
        labels = tarjan_scc(g).labels
        assert np.unique(labels).size < g.num_vertices
