"""Tests for uniform refinement and VTK export."""

import numpy as np
import pytest

from repro.baselines import tarjan_scc
from repro.errors import MeshError
from repro.graph import dag_depth
from repro.mesh import (
    beam_hex,
    hex_to_tets,
    hex_to_wedges,
    interior_faces,
    klein_bottle,
    refine_uniform,
    star,
    structured_hex_grid,
    sweep_graphs,
    toroid_hex,
    write_vtk,
)


class TestRefine:
    def test_hex_counts_and_nodes(self):
        m = structured_hex_grid((2, 3, 1))
        r = refine_uniform(m)
        assert r.num_elements == 8 * m.num_elements
        # a refined structured grid equals the (2a, 2b, 2c) grid
        assert r.num_points == 5 * 7 * 3

    def test_quad_counts(self):
        m = star(4)
        r = refine_uniform(m)
        assert r.num_elements == 4 * m.num_elements

    @pytest.mark.parametrize("split", [hex_to_tets, hex_to_wedges])
    def test_split_meshes_refine_conformally(self, split):
        m = split(structured_hex_grid((2, 2, 1)))
        r = refine_uniform(m)
        assert r.num_elements == 8 * m.num_elements
        interior_faces(r)  # raises MeshTopologyError on non-manifold output

    def test_refined_grid_conformal(self):
        r = refine_uniform(structured_hex_grid((2, 2, 2)))
        fs = interior_faces(r)
        # (4,4,4) structured grid interior face count
        assert fs.num_faces == 3 * (3 * 4 * 4)

    def test_zero_times_is_identity(self):
        m = beam_hex(2)
        assert refine_uniform(m, 0) is m

    def test_multiple_times(self):
        m = structured_hex_grid((1, 1, 1))
        assert refine_uniform(m, 2).num_elements == 64

    def test_negative_times(self):
        with pytest.raises(MeshError):
            refine_uniform(beam_hex(1), -1)

    def test_identified_mesh_refused(self):
        with pytest.raises(MeshError, match="identified"):
            refine_uniform(klein_bottle(3))

    def test_transform_carried(self):
        m = toroid_hex(2)
        r = refine_uniform(m)
        assert r.is_curved and r.order == m.order

    def test_geometry_conserved(self):
        """Refined base geometry covers the same bounding box."""
        m = structured_hex_grid((2, 2, 2), (3.0, 2.0, 1.0))
        r = refine_uniform(m)
        lo0, hi0 = m.bounding_box()
        lo1, hi1 = r.bounding_box()
        assert np.allclose(lo0, lo1) and np.allclose(hi0, hi1)

    def test_refined_sweep_graph_class_preserved(self):
        """Refining beam-hex keeps all-trivial SCCs and deepens the DAG."""
        m = beam_hex(2)
        r = refine_uniform(m)
        _, g0 = sweep_graphs(m, 1)[0]
        _, g1 = sweep_graphs(r, 1)[0]
        l0, l1 = tarjan_scc(g0).labels, tarjan_scc(g1).labels
        assert np.unique(l1).size == g1.num_vertices  # still all-trivial
        assert dag_depth(g1, l1) > dag_depth(g0, l0)


class TestVtk:
    def test_write_and_structure(self, tmp_path):
        m = structured_hex_grid((2, 1, 1))
        p = tmp_path / "m.vtk"
        write_vtk(p, m)
        txt = p.read_text().splitlines()
        assert txt[0].startswith("# vtk DataFile")
        assert "DATASET UNSTRUCTURED_GRID" in txt
        assert f"POINTS {m.num_points} double" in txt
        assert f"CELL_TYPES {m.num_elements}" in txt
        assert txt.count("12") >= 2  # hexahedron type code rows

    def test_cell_data_int_and_float(self, tmp_path):
        m = star(2)
        p = tmp_path / "s.vtk"
        write_vtk(
            p, m,
            cell_data={
                "scc": np.arange(m.num_elements),
                "flux": np.linspace(0, 1, m.num_elements),
            },
        )
        txt = p.read_text()
        assert "SCALARS scc int 1" in txt
        assert "SCALARS flux double 1" in txt

    def test_2d_points_padded(self, tmp_path):
        m = star(2)
        p = tmp_path / "s.vtk"
        write_vtk(p, m)
        # every point line has 3 coordinates
        lines = p.read_text().splitlines()
        start = lines.index(f"POINTS {m.num_points} double") + 1
        assert all(len(l.split()) == 3 for l in lines[start : start + m.num_points])

    def test_bad_cell_data_shape(self, tmp_path):
        m = star(2)
        with pytest.raises(MeshError, match="one value per element"):
            write_vtk(tmp_path / "x.vtk", m, cell_data={"bad": np.zeros(3)})

    def test_base_points_option(self, tmp_path):
        m = toroid_hex(2)
        a = tmp_path / "curved.vtk"
        b = tmp_path / "straight.vtk"
        write_vtk(a, m, use_curved_points=True)
        write_vtk(b, m, use_curved_points=False)
        assert a.read_text() != b.read_text()
