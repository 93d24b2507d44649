"""Signature arrays for ECL-SCC (paper §3, Algorithm 1 lines 3-6).

Each vertex v carries two signature values:

* ``sig_in[v]``  — the maximum vertex ID found so far on any path *into* v
  (an ancestor of v, or v itself), and
* ``sig_out[v]`` — the maximum vertex ID found so far on any path *out of*
  v (a descendant of v, or v itself).

Both are initialized to ``v`` and only ever increase (the max operation is
monotonic — the paper's termination argument, §3.2.2).  The invariant that
makes path compression legal is maintained throughout:

    ``sig_in[v]`` can reach v; v can reach ``sig_out[v]``   (in the current
    worklist graph, or the value equals v).

The relaxation and path-compression steps that raise the signatures
live in :mod:`repro.engine.relax`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..types import VERTEX_DTYPE

__all__ = ["Signatures"]


@dataclass
class Signatures:
    """The pair of per-vertex signature arrays."""

    sig_in: np.ndarray
    sig_out: np.ndarray

    @classmethod
    def identity(cls, num_vertices: int) -> "Signatures":
        """Phase-1 initialization: ``v_in = v_out = v_id`` for every v."""
        return cls(
            np.arange(num_vertices, dtype=VERTEX_DTYPE),
            np.arange(num_vertices, dtype=VERTEX_DTYPE),
        )

    def reinit(self, vertices: "np.ndarray | None" = None) -> None:
        """In-place Phase-1 re-initialization (avoids reallocating).

        With *vertices*, only that subset returns to its identity
        signature — the frontier engine's partial re-init, which leaves
        completed vertices' (label:label) pairs untouched (they are at
        their fixed point already; re-deriving them is pure waste).
        """
        if vertices is None:
            n = self.sig_in.size
            self.sig_in[:] = np.arange(n, dtype=VERTEX_DTYPE)
            self.sig_out[:] = np.arange(n, dtype=VERTEX_DTYPE)
        else:
            ids = np.asarray(vertices).astype(VERTEX_DTYPE, copy=False)
            self.sig_in[ids] = ids
            self.sig_out[ids] = ids

    def completed(self) -> np.ndarray:
        """Boolean mask of vertices whose signatures match (SCC identified)."""
        return self.sig_in == self.sig_out
