"""Compressed-sparse-row directed graph.

:class:`CSRGraph` is the central immutable graph container of the library.
It stores out-edges in CSR form (``indptr``, ``indices``) and lazily caches
the transpose (in-edge CSR) and the flat COO edge arrays that the
edge-centric SCC kernels consume.  The transpose memo is one way: the
origin keeps its transpose, the transpose keeps no reference back, so
a graph and its transpose are freed by reference counting as soon as
the caller drops the origin (no reference cycle for the collector).

Design notes
------------
* Vertices are dense integers ``0..n-1``; the SCC algorithms in this
  library treat the vertex ID itself as data (max-ID propagation), so the
  container guarantees IDs are contiguous.
* Parallel (duplicate) edges and self-loops are permitted — they occur
  naturally in sweep graphs built from re-entrant faces and in raw
  SuiteSparse-style inputs — and every algorithm must tolerate them.
  ``dedup()`` produces a simple graph when one is wanted.
* The container is logically immutable.  Mutating the underlying arrays
  after construction is undefined behaviour; all transformation helpers
  return new graphs.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence, Tuple

import numpy as np

from ..errors import GraphFormatError
from ..types import (
    INDPTR_DTYPE,
    VERTEX_DTYPE,
    as_indptr_array,
    as_vertex_array,
    ragged_arange,
)

__all__ = ["CSRGraph", "vertex_count"]


def vertex_count(value: int, name: str = "num_vertices") -> int:
    """*value* as a vertex count: an integer >= 0.

    Read with ``operator.index``, so ``2.7`` or ``"3"`` raise
    :class:`~repro.errors.GraphFormatError` instead of being truncated
    or parsed.
    """
    try:
        n = operator.index(value)
    except TypeError:
        raise GraphFormatError(f"{name} must be an integer, got {value!r}") from None
    if n < 0:
        raise GraphFormatError(f"{name} must be >= 0, got {n}")
    return n


class CSRGraph:
    """Immutable directed graph in CSR (out-adjacency) form.

    Parameters
    ----------
    indptr:
        ``(n+1,)`` nondecreasing int array, ``indptr[0] == 0`` and
        ``indptr[-1] == m``.
    indices:
        ``(m,)`` int array of edge destinations, each in ``[0, n)``.
    validate:
        When True (default) the arrays are checked; pass False only for
        arrays produced by trusted internal code on hot paths.
    """

    __slots__ = ("indptr", "indices", "_transpose", "_src", "_name")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        *,
        validate: bool = True,
        name: str = "",
    ) -> None:
        self.indptr = as_indptr_array(indptr, "indptr")
        self.indices = as_vertex_array(indices, "indices")
        self._transpose: "CSRGraph | None" = None
        self._src: "np.ndarray | None" = None
        self._name = str(name)
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        src: "np.ndarray | Iterable[int]",
        dst: "np.ndarray | Iterable[int]",
        num_vertices: "int | None" = None,
        *,
        name: str = "",
    ) -> "CSRGraph":
        """Build a graph from parallel ``src``/``dst`` edge arrays.

        ``num_vertices`` defaults to ``max(src, dst) + 1`` (0 for no edges).
        Duplicate edges are preserved; edge order within a source's
        adjacency list follows the input order (stable counting sort).
        """
        s = as_vertex_array(src, "src")
        d = as_vertex_array(dst, "dst")
        if s.shape != d.shape:
            raise GraphFormatError(
                f"src and dst must have equal length, got {s.size} and {d.size}"
            )
        if num_vertices is None:
            num_vertices = max(s.max(initial=-1), d.max(initial=-1)) + 1
        n = vertex_count(num_vertices)
        if n > np.iinfo(INDPTR_DTYPE).max:
            raise GraphFormatError(f"num_vertices {n} does not fit {INDPTR_DTYPE}")
        if s.size:
            lo = min(int(s.min()), int(d.min()))
            hi = max(int(s.max()), int(d.max()))
            if lo < 0 or hi >= n:
                raise GraphFormatError(
                    f"edge endpoints must lie in [0, {n}), found range [{lo}, {hi}]"
                )
        counts = np.bincount(s, minlength=n).astype(INDPTR_DTYPE, copy=False)
        indptr = np.zeros(n + 1, dtype=INDPTR_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        order = np.argsort(s, kind="stable")
        indices = d[order]
        return cls(indptr, indices, validate=False, name=name)

    @classmethod
    def empty(cls, num_vertices: int = 0, *, name: str = "") -> "CSRGraph":
        """Graph with *num_vertices* vertices and no edges."""
        n = vertex_count(num_vertices)
        return cls(
            np.zeros(n + 1, dtype=INDPTR_DTYPE),
            np.empty(0, dtype=VERTEX_DTYPE),
            validate=False,
            name=name,
        )

    @classmethod
    def from_adjacency(
        cls, adjacency: Sequence[Sequence[int]], *, name: str = ""
    ) -> "CSRGraph":
        """Build from a list-of-lists out-adjacency description.

        Convenient in tests: ``CSRGraph.from_adjacency([[1], [2], [0]])`` is
        the 3-cycle.
        """
        n = len(adjacency)
        counts = np.fromiter((len(a) for a in adjacency), dtype=INDPTR_DTYPE, count=n)
        indptr = np.zeros(n + 1, dtype=INDPTR_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        flat: list[int] = []
        for a in adjacency:
            flat.extend(int(x) for x in a)
        indices = np.asarray(flat, dtype=VERTEX_DTYPE)
        return cls(indptr, indices, name=name)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        return self.indices.size

    @property
    def name(self) -> str:
        return self._name

    def with_name(self, name: str) -> "CSRGraph":
        """Return a shallow copy carrying *name* (shares arrays)."""
        g = CSRGraph(self.indptr, self.indices, validate=False, name=name)
        g._transpose, g._src = self._transpose, self._src
        return g

    def out_degree(self) -> np.ndarray:
        """``(n,)`` array of out-degrees."""
        return np.diff(self.indptr)

    def in_degree(self) -> np.ndarray:
        """``(n,)`` array of in-degrees."""
        return np.bincount(self.indices, minlength=self.num_vertices).astype(
            VERTEX_DTYPE, copy=False
        )

    def neighbors(self, v: int) -> np.ndarray:
        """Out-neighbours of vertex *v* (a view into ``indices``)."""
        v = int(v)
        if not 0 <= v < self.num_vertices:
            raise IndexError(f"vertex {v} out of range [0, {self.num_vertices})")
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def successors(
        self, vertices: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Out-neighbours of *vertices* (with multiplicity) and their counts.

        Returns ``(heads, counts)``: ``counts[i]`` is the out-degree of
        ``vertices[i]`` and ``heads`` lists the vertices' adjacency
        slices in order, so ``np.repeat(vertices, counts)`` are the
        matching tails.
        """
        starts = self.indptr[vertices]
        counts = self.indptr[vertices + 1] - starts
        offsets = np.repeat(starts, counts) + ragged_arange(counts)
        return self.indices[offsets], counts

    # ------------------------------------------------------------------
    # derived forms (cached)
    # ------------------------------------------------------------------
    def edge_sources(self) -> np.ndarray:
        """``(m,)`` array of edge sources aligned with ``indices`` (cached)."""
        if self._src is None:
            self._src = np.repeat(
                np.arange(self.num_vertices, dtype=VERTEX_DTYPE), self.out_degree()
            )
        return self._src

    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Edge arrays ``(src, dst)`` in CSR order."""
        return self.edge_sources(), self.indices

    def transpose(self) -> "CSRGraph":
        """Reverse graph (in-adjacency of ``self``), cached on ``self`` only.

        The transpose holds no reference back to ``self``: transposing it
        builds a fresh graph with ``self``'s edges rather than returning
        ``self``.  No caller transposes a transpose, so each transpose is
        still built once per origin.
        """
        if self._transpose is None:
            src, dst = self.edges()
            self._transpose = CSRGraph.from_edges(
                dst, src, self.num_vertices, name=self._name + ".T" if self._name else ""
            )
        return self._transpose

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def dedup(self) -> "CSRGraph":
        """Return a copy with duplicate edges removed (self-loops kept once)."""
        src, dst = self.edges()
        if src.size == 0:
            return CSRGraph.empty(self.num_vertices, name=self._name)
        key = src * np.int64(self.num_vertices if self.num_vertices else 1) + dst
        _, keep = np.unique(key, return_index=True)
        return CSRGraph.from_edges(
            src[keep], dst[keep], self.num_vertices, name=self._name
        )

    def without_self_loops(self) -> "CSRGraph":
        """Return a copy with all self-loop edges removed."""
        src, dst = self.edges()
        keep = src != dst
        return CSRGraph.from_edges(
            src[keep], dst[keep], self.num_vertices, name=self._name
        )

    def reverse_copy(self) -> "CSRGraph":
        """Freshly built reverse graph (no cache sharing)."""
        src, dst = self.edges()
        return CSRGraph.from_edges(dst, src, self.num_vertices)

    # ------------------------------------------------------------------
    # comparisons / misc
    # ------------------------------------------------------------------
    def same_structure(self, other: "CSRGraph") -> bool:
        """True iff both graphs have identical vertex count and edge multiset."""
        if self.num_vertices != other.num_vertices:
            return False
        if self.num_edges != other.num_edges:
            return False
        a_src, a_dst = self.edges()
        b_src, b_dst = other.edges()
        n = max(self.num_vertices, 1)
        a = np.sort(a_src * np.int64(n) + a_dst)
        b = np.sort(b_src * np.int64(n) + b_dst)
        return bool(np.array_equal(a, b))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self._name!r}" if self._name else ""
        return (
            f"<CSRGraph{label} |V|={self.num_vertices} |E|={self.num_edges}>"
        )

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        indptr, indices = self.indptr, self.indices
        if indptr.size < 1:
            raise GraphFormatError("indptr must have at least one entry")
        if indptr[0] != 0:
            raise GraphFormatError(f"indptr[0] must be 0, got {indptr[0]}")
        if np.any(np.diff(indptr) < 0):
            raise GraphFormatError("indptr must be nondecreasing")
        if indptr[-1] != indices.size:
            raise GraphFormatError(
                f"indptr[-1] ({indptr[-1]}) must equal len(indices) ({indices.size})"
            )
        n = indptr.size - 1
        if indices.size:
            lo, hi = int(indices.min()), int(indices.max())
            if lo < 0 or hi >= n:
                raise GraphFormatError(
                    f"edge destinations must lie in [0, {n}), found [{lo}, {hi}]"
                )
