"""Graph file I/O: Matrix Market, plain edge lists, DIMACS.

The original evaluation reads SuiteSparse ``.mtx`` files; this module
implements enough of each format for round-tripping the graphs this
library generates and for loading real matrices if a user has them on
disk.  Parsing is vectorized (``np.loadtxt`` on the body) — a 60M-edge
file parses in seconds, not minutes.
"""

from __future__ import annotations

import io as _io
from pathlib import Path
from typing import Union

import numpy as np

from ..errors import IOFormatError
from ..types import VERTEX_DTYPE
from .csr import CSRGraph

__all__ = [
    "read_matrix_market",
    "write_matrix_market",
    "read_edge_list",
    "write_edge_list",
    "read_dimacs",
    "write_dimacs",
    "read_npz",
    "write_npz",
]

PathLike = Union[str, Path]


def _open_text(path: PathLike):
    return open(path, "rt", encoding="utf-8")


# ---------------------------------------------------------------------------
# Matrix Market (coordinate pattern / integer / real; general or symmetric)
# ---------------------------------------------------------------------------

def read_matrix_market(path: PathLike) -> CSRGraph:
    """Read a MatrixMarket coordinate file as a digraph (A[i,j] => i -> j).

    Symmetric matrices produce both edge directions, matching how the SCC
    literature treats structurally-symmetric matrices like cage14.
    Values (if present) are ignored — only the pattern matters for SCCs.
    """
    with _open_text(path) as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise IOFormatError(f"{path}: missing MatrixMarket header")
        parts = header.split()
        if len(parts) < 5 or parts[1].lower() != "matrix" or parts[2].lower() != "coordinate":
            raise IOFormatError(f"{path}: only 'matrix coordinate' supported")
        symmetry = parts[4].lower()
        if symmetry not in ("general", "symmetric", "skew-symmetric"):
            raise IOFormatError(f"{path}: unsupported symmetry {symmetry!r}")
        # skip comments
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        try:
            rows, cols, nnz = (int(x) for x in line.split()[:3])
        except ValueError as e:
            raise IOFormatError(f"{path}: bad size line {line!r}") from e
        if nnz > 0:
            try:
                body = np.loadtxt(fh, dtype=np.float64, ndmin=2, max_rows=nnz)
            except ValueError as e:
                raise IOFormatError(f"{path}: could not parse entries") from e
        else:
            body = np.empty((0, 2))
    if body.size == 0:
        body = body.reshape(0, 2)
    if body.shape[1] < 2:
        raise IOFormatError(f"{path}: entries need a row and a column")
    if body.shape[0] != nnz:
        raise IOFormatError(
            f"{path}: expected {nnz} entries, found {body.shape[0]}"
        )
    src = body[:, 0].astype(VERTEX_DTYPE) - 1
    dst = body[:, 1].astype(VERTEX_DTYPE) - 1
    n = max(rows, cols)
    if symmetry in ("symmetric", "skew-symmetric"):
        off = src != dst
        src, dst = np.concatenate([src, dst[off]]), np.concatenate([dst, src[off]])
    return CSRGraph.from_edges(src, dst, n, name=Path(path).stem)


def write_matrix_market(path: PathLike, graph: CSRGraph) -> None:
    """Write *graph* as a general pattern coordinate MatrixMarket file."""
    src, dst = graph.edges()
    n = graph.num_vertices
    with open(path, "wt", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate pattern general\n")
        fh.write(f"% written by repro; |V|={n} |E|={graph.num_edges}\n")
        fh.write(f"{n} {n} {graph.num_edges}\n")
        buf = _io.StringIO()
        np.savetxt(buf, np.column_stack([src + 1, dst + 1]), fmt="%d %d")
        fh.write(buf.getvalue())


# ---------------------------------------------------------------------------
# Plain edge lists ("src dst" per line, '#' comments)
# ---------------------------------------------------------------------------

def read_edge_list(path: PathLike, *, zero_based: bool = True) -> CSRGraph:
    """Read a whitespace-separated edge list (SNAP style)."""
    try:
        body = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
    except ValueError as e:
        raise IOFormatError(f"{path}: could not parse edge list") from e
    if body.size == 0:
        return CSRGraph.empty(0, name=Path(path).stem)
    if body.shape[1] < 2:
        raise IOFormatError(f"{path}: need at least two columns")
    src = body[:, 0].astype(VERTEX_DTYPE)
    dst = body[:, 1].astype(VERTEX_DTYPE)
    if not zero_based:
        src, dst = src - 1, dst - 1
    if src.min(initial=0) < 0 or dst.min(initial=0) < 0:
        raise IOFormatError(f"{path}: negative vertex IDs")
    return CSRGraph.from_edges(src, dst, name=Path(path).stem)


def write_edge_list(path: PathLike, graph: CSRGraph) -> None:
    """Write *graph* as a zero-based whitespace edge list ('# ' header)."""
    src, dst = graph.edges()
    header = f"# repro edge list |V|={graph.num_vertices} |E|={graph.num_edges}"
    np.savetxt(path, np.column_stack([src, dst]), fmt="%d", header=header)


# ---------------------------------------------------------------------------
# DIMACS (9th challenge 'sp' format, weights ignored)
# ---------------------------------------------------------------------------

def read_dimacs(path: PathLike) -> CSRGraph:
    """Read DIMACS shortest-path format ('p sp N M', 'a u v [w]' lines)."""
    n = None
    with _open_text(path) as fh:
        arc_lines = []
        for line in fh:
            if line.startswith("c") or not line.strip():
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) < 4:
                    raise IOFormatError(f"{path}: bad problem line {line!r}")
                try:
                    n = int(parts[2])
                except ValueError as e:
                    raise IOFormatError(f"{path}: bad problem line {line!r}") from e
            elif line.startswith("a"):
                arc_lines.append(line[1:])
            else:
                raise IOFormatError(f"{path}: unexpected line {line!r}")
    if n is None:
        raise IOFormatError(f"{path}: missing 'p' problem line")
    if arc_lines:
        try:
            body = np.loadtxt(_io.StringIO("".join(arc_lines)), dtype=np.int64, ndmin=2)
        except ValueError as e:
            raise IOFormatError(f"{path}: could not parse arcs") from e
        if body.shape[1] < 2:
            raise IOFormatError(f"{path}: arcs need a tail and a head")
        src = body[:, 0].astype(VERTEX_DTYPE) - 1
        dst = body[:, 1].astype(VERTEX_DTYPE) - 1
    else:
        src = dst = np.empty(0, dtype=VERTEX_DTYPE)
    return CSRGraph.from_edges(src, dst, n, name=Path(path).stem)


def write_dimacs(path: PathLike, graph: CSRGraph) -> None:
    """Write *graph* in DIMACS 'sp' format with unit arc weights."""
    src, dst = graph.edges()
    with open(path, "wt", encoding="utf-8") as fh:
        fh.write("c written by repro\n")
        fh.write(f"p sp {graph.num_vertices} {graph.num_edges}\n")
        buf = _io.StringIO()
        np.savetxt(
            buf, np.column_stack([src + 1, dst + 1]), fmt="a %d %d 1"
        )
        fh.write(buf.getvalue())


# ---------------------------------------------------------------------------
# NPZ (binary CSR) — fast caching of generated workloads
# ---------------------------------------------------------------------------

def write_npz(path: PathLike, graph: CSRGraph) -> None:
    """Write *graph* as a compressed ``.npz`` CSR bundle (fast round trip)."""
    np.savez_compressed(
        path,
        indptr=graph.indptr,
        indices=graph.indices,
        name=np.array(graph.name),
    )


def read_npz(path: PathLike) -> CSRGraph:
    """Read a graph written by :func:`write_npz`."""
    try:
        with np.load(path, allow_pickle=False) as data:
            indptr = data["indptr"]
            indices = data["indices"]
            name = str(data["name"]) if "name" in data else ""
    except (KeyError, ValueError, OSError) as e:
        raise IOFormatError(f"{path}: not a repro graph npz bundle") from e
    return CSRGraph(indptr, indices, name=name)
