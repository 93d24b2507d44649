"""Unit tests for repro.graph.io (MatrixMarket, edge list, DIMACS, npz)."""

import numpy as np
import pytest

from repro.errors import IOFormatError, ReproError
from repro.graph import (
    CSRGraph,
    cycle_graph,
    random_gnm,
    read_dimacs,
    read_edge_list,
    read_matrix_market,
    read_npz,
    write_dimacs,
    write_edge_list,
    write_matrix_market,
)


class TestMatrixMarket:
    def test_roundtrip(self, tmp_path):
        g = random_gnm(30, 80, seed=0)
        p = tmp_path / "g.mtx"
        write_matrix_market(p, g)
        h = read_matrix_market(p)
        assert h.same_structure(g)

    def test_roundtrip_empty(self, tmp_path):
        g = CSRGraph.empty(4)
        p = tmp_path / "e.mtx"
        write_matrix_market(p, g)
        h = read_matrix_market(p)
        assert h.num_vertices == 4
        assert h.num_edges == 0

    def test_symmetric_expansion(self, tmp_path):
        p = tmp_path / "s.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "3 3 2\n1 2\n2 3\n"
        )
        g = read_matrix_market(p)
        assert g.num_edges == 4  # both directions

    def test_symmetric_diagonal_once(self, tmp_path):
        p = tmp_path / "d.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "2 2 2\n1 1\n1 2\n"
        )
        g = read_matrix_market(p)
        assert g.num_edges == 3  # self-loop once, off-diagonal twice

    def test_values_ignored(self, tmp_path):
        p = tmp_path / "v.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% comment line\n"
            "2 2 2\n1 2 3.5\n2 1 -1.0\n"
        )
        g = read_matrix_market(p)
        assert g.num_edges == 2

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.mtx"
        p.write_text("not a matrix market file\n1 1 0\n")
        with pytest.raises(IOFormatError, match="header"):
            read_matrix_market(p)

    def test_truncated_body(self, tmp_path):
        p = tmp_path / "t.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n3 3 5\n1 2\n"
        )
        with pytest.raises(IOFormatError, match="expected 5"):
            read_matrix_market(p)

    def test_unsupported_format(self, tmp_path):
        p = tmp_path / "a.mtx"
        p.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
        with pytest.raises(IOFormatError):
            read_matrix_market(p)


class TestEdgeList:
    def test_roundtrip(self, tmp_path):
        g = random_gnm(25, 60, seed=1)
        p = tmp_path / "g.txt"
        write_edge_list(p, g)
        assert read_edge_list(p).same_structure(g)

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# SNAP style header\n0 1\n1 2\n")
        g = read_edge_list(p)
        assert g.num_edges == 2

    def test_one_based(self, tmp_path):
        p = tmp_path / "ob.txt"
        p.write_text("1 2\n2 3\n")
        g = read_edge_list(p, zero_based=False)
        assert g.num_vertices == 3
        assert g.neighbors(0).tolist() == [1]

    def test_garbage_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("hello world\n")
        with pytest.raises(IOFormatError):
            read_edge_list(p)

    def test_negative_rejected(self, tmp_path):
        p = tmp_path / "n.txt"
        p.write_text("0 1\n-1 2\n")
        with pytest.raises(IOFormatError, match="negative"):
            read_edge_list(p)


class TestDimacs:
    def test_roundtrip(self, tmp_path):
        g = cycle_graph(9)
        p = tmp_path / "g.gr"
        write_dimacs(p, g)
        assert read_dimacs(p).same_structure(g)

    def test_isolated_vertices_preserved(self, tmp_path):
        g = CSRGraph.from_edges([0], [1], num_vertices=5)
        p = tmp_path / "iso.gr"
        write_dimacs(p, g)
        assert read_dimacs(p).num_vertices == 5

    def test_missing_problem_line(self, tmp_path):
        p = tmp_path / "m.gr"
        p.write_text("c only a comment\n")
        with pytest.raises(IOFormatError, match="problem"):
            read_dimacs(p)

    def test_unexpected_line(self, tmp_path):
        p = tmp_path / "u.gr"
        p.write_text("p sp 2 1\nx nonsense\n")
        with pytest.raises(IOFormatError):
            read_dimacs(p)


# malformed bodies used to leak NumPy's ValueError / IndexError
MALFORMED = {
    "mtx-text-entry": (
        read_matrix_market,
        "%%MatrixMarket matrix coordinate pattern general\n2 2 1\nfoo bar\n",
    ),
    "mtx-one-column": (
        read_matrix_market,
        "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1\n",
    ),
    "dimacs-text-count": (read_dimacs, "p sp abc 3\n"),
    "dimacs-text-head": (read_dimacs, "p sp 3 1\na 1 x\n"),
    "dimacs-short-arc": (read_dimacs, "p sp 3 1\na 1\n"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_raises_ioformaterror(case, tmp_path):
    reader, text = MALFORMED[case]
    p = tmp_path / "bad.txt"
    p.write_text(text)
    with pytest.raises(IOFormatError):
        reader(p)


_MTX = b"%%MatrixMarket matrix coordinate pattern general\n"

# inputs that used to leak UnicodeDecodeError, OverflowError,
# zipfile.BadZipFile, TypeError or ValueError, or (the float index)
# loaded as a truncated edge 0 -> 1; bytes are written verbatim, a dict
# of arrays through np.savez
LEAKS = {
    "mtx-non-utf8-header": (read_matrix_market, _MTX[:-1] + b"\xff\n2 2 1\n1 2\n"),
    "dimacs-non-utf8": (read_dimacs, b"c \xff\xfe\np sp 2 1\na 1 2\n"),
    "mtx-size-overflow": (read_matrix_market, _MTX + b"99999999999999999999 3 1\n1 2\n"),
    "dimacs-count-overflow": (read_dimacs, b"p sp 99999999999999999999 1\na 1 2\n"),
    "mtx-float-index": (read_matrix_market, _MTX + b"2 2 1\n1.5 2\n"),
    "npz-bad-zip": (read_npz, b"PK\x03\x04" + b"garbage" * 8),
    "npz-float-indptr": (
        read_npz,
        {"indptr": np.array([0.0, 1.0]), "indices": np.array([0]), "name": np.array("f")},
    ),
    "npz-2d-indptr": (
        read_npz,
        {"indptr": np.zeros((2, 2), dtype=np.int64), "indices": np.array([0]),
         "name": np.array("d")},
    ),
}


@pytest.mark.parametrize("case", sorted(LEAKS))
def test_bad_input_raises_repro_error(case, tmp_path):
    reader, data = LEAKS[case]
    p = tmp_path / "bad.npz"  # np.savez keeps a given .npz suffix
    if isinstance(data, bytes):
        p.write_bytes(data)
    else:
        np.savez(p, **data)
    with pytest.raises(ReproError):
        reader(p)
