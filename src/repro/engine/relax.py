"""The Phase-2 relaxation library: one copy of each round body.

Every ECL-SCC Phase-2 engine is a schedule over three bodies:

* :func:`push` — scatter-max over an edge subset.  Each edge u -> v
  proposes ``sig_out[v]`` to u's out-signature and ``sig_in[u]`` to v's
  in-signature (Algorithm 1 lines 10-11); ``np.maximum.at`` is the exact
  scatter-max that the device's racy monotone writes (or a pair of
  ``atomicMax`` loops) converge to.
* :func:`pull` — the same proposals as a per-vertex segment max over an
  :class:`~repro.core.propagation.EdgeGrouping` (gather +
  ``np.maximum.reduceat``, no write races), optionally restricted to a
  mask of active edges.
* :func:`compress_paths` — the paper's path compression (§3.3): pointer
  doubling, then signature feedback, each over a vertex set or over
  every vertex.

With path compression the relaxation candidate is ``sig[sig[w]]``
instead of ``sig[w]`` (the paper's ``out[out[v]]`` read).

The bodies only raise signatures and return nothing.  A round finds the
vertices whose signatures rose with one diff against a copy taken at
its start (:func:`push_round`, :func:`pull_round`, :func:`rose`):
signatures only rise, so a vertex rose during the round exactly when
its final value differs from its start value.  Pointer doubling is a
rise because every signature names a vertex at least as large as the
vertex it belongs to (``sig[v] >= v``, true from the identity
initialization on).

The engines keep only their iteration structure and their device
charges: frontier, adaptive and ``dense-push`` rounds are
:func:`push_round` (push + compression over the relaxed endpoints);
``dense`` and sync rounds are :func:`pull_round` (pull + full
compression); async runs :func:`pull_round` in full-width rounds and
:func:`push_round` in narrow ones; atomic is :func:`push` over every
edge + full compression.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "push",
    "pull",
    "compress_paths",
    "snapshot",
    "rose",
    "push_round",
    "pull_round",
]


def push(sigs, src: np.ndarray, dst: np.ndarray, *, compress: bool) -> None:
    """Scatter-max both signature directions over the edges ``src -> dst``."""
    for sig, to, frm in ((sigs.sig_out, src, dst), (sigs.sig_in, dst, src)):
        cand = sig[frm]
        if compress:
            cand = sig[cand]
        np.maximum.at(sig, to, cand)


def pull(
    sigs, grouping, *, compress: bool, edge_active: "np.ndarray | None" = None
) -> None:
    """Segment-max both signature directions over *grouping*'s edges.

    *edge_active* is a boolean mask parallel to ``grouping.src``
    (``None`` means every edge).  Inactive edges propose -1, so the
    precomputed grouping is reused unchanged.
    """
    g = grouping
    for sig, frm, order, starts, group in (
        (sigs.sig_out, g.dst, g.order_by_src, g.starts_src, g.group_src),
        (sigs.sig_in, g.src, g.order_by_dst, g.starts_dst, g.group_dst),
    ):
        cand = sig[frm]
        if compress:
            cand = sig[cand]
        if edge_active is not None:
            cand = np.where(edge_active, cand, -1)
        best = np.maximum.reduceat(cand[order], starts)
        sig[group] = np.maximum(best, sig[group], out=best)


def compress_paths(
    sigs, jump: "np.ndarray | None", feed: "np.ndarray | None"
) -> None:
    """Pointer doubling over *jump*, then signature feedback over *feed*.

    ``None`` stands for every vertex (then doubling rebinds
    ``sigs.sig_in``/``sig_out`` to new arrays).  Pointer doubling:
    ``sig_out[v]`` names a descendant y of v, and y's own ``sig_out``
    names a descendant of y, hence of v, so ``sig_out <- sig_out[sig_out]``
    is a pure improvement; symmetric for ``sig_in``.

    Signature feedback, for a vertex v with signature x:y (x =
    ``sig_in[v]``, an ancestor; y = ``sig_out[v]``, a descendant):

    * every descendant of v shares v's ancestors, so y's in-signature
      may absorb v's:  ``sig_in[y] <- max(sig_in[y], sig_in[v])``;
    * every ancestor of v shares v's descendants, so x's out-signature
      may absorb v's: ``sig_out[x] <- max(sig_out[x], sig_out[v])``.

    This is the provably-safe reading of the paper's "update the
    signature of vertex s with value t" step and matches its stated
    justification sentence verbatim.
    """
    sig_in, sig_out = sigs.sig_in, sigs.sig_out
    if jump is None:
        sigs.sig_in = sig_in = sig_in[sig_in]
        sigs.sig_out = sig_out = sig_out[sig_out]
    else:
        sig_in[jump] = sig_in[sig_in[jump]]
        sig_out[jump] = sig_out[sig_out[jump]]
    if feed is None:
        in_t, out_t = sig_in, sig_out
    else:
        in_t, out_t = sig_in[feed], sig_out[feed]
    np.maximum.at(sig_in, out_t, in_t)
    np.maximum.at(sig_out, in_t, out_t)


def snapshot(sigs) -> "tuple[np.ndarray, np.ndarray]":
    """Copies of both signature arrays, to diff against with :func:`rose`."""
    return sigs.sig_in.copy(), sigs.sig_out.copy()


def rose(sigs, snap: "tuple[np.ndarray, np.ndarray]") -> np.ndarray:
    """Per-vertex mask of signatures that rose since *snap* was taken."""
    in0, out0 = snap
    return (sigs.sig_in != in0) | (sigs.sig_out != out0)


def push_round(
    sigs, src: np.ndarray, dst: np.ndarray, num_vertices: int, *, compress: bool
) -> "tuple[np.ndarray, int]":
    """:func:`push` over ``src -> dst``, then compression over its endpoints.

    Each distinct endpoint is compressed once.  Returns ``(changed,
    compress_work)``; the modelled kernel compresses once per endpoint
    *occurrence*, so ``compress_work`` is ``2 * |[src; dst]|``.
    """
    snap = snapshot(sigs)
    push(sigs, src, dst, compress=compress)
    compress_work = 0
    if compress and src.size:
        mark = np.zeros(num_vertices, dtype=bool)
        mark[src] = True
        mark[dst] = True
        ends = np.flatnonzero(mark)
        compress_paths(sigs, ends, ends)
        compress_work = 4 * src.size
    return rose(sigs, snap), compress_work


def pull_round(
    sigs,
    grouping,
    num_vertices: int,
    *,
    compress: bool,
    edge_active: "np.ndarray | None" = None,
) -> "tuple[np.ndarray, int]":
    """:func:`pull` over *grouping*, then compression over every vertex.

    Pointer doubling covers all vertices; feedback covers the
    worklist's endpoints (``grouping.touched``).  Returns ``(changed,
    compress_work)``.
    """
    snap = snapshot(sigs)
    pull(sigs, grouping, compress=compress, edge_active=edge_active)
    compress_work = 0
    if compress:
        compress_paths(sigs, None, grouping.touched)
        compress_work = num_vertices + grouping.touched.size
    return rose(sigs, snap), compress_work
