"""The Phase-2 relaxation library: one copy of each round body.

Every ECL-SCC Phase-2 engine is a schedule over two bodies:

* :func:`push` — scatter-max over an edge subset.  Each edge u -> v
  proposes ``sig_out[v]`` to u's out-signature and ``sig_in[u]`` to v's
  in-signature (Algorithm 1 lines 10-11); ``np.maximum.at`` is the exact
  scatter-max that the device's racy monotone writes (or a pair of
  ``atomicMax`` loops) converge to.  Topology-driven and data-driven
  rounds differ only in which edges they hand it.
* :func:`compress_paths` — the paper's path compression (§3.3): pointer
  doubling, then signature feedback, each over a vertex set or over
  every vertex.

With path compression the relaxation candidate is ``sig[sig[w]]``
instead of ``sig[w]`` (the paper's ``out[out[v]]`` read).

The bodies only raise signatures and return nothing.  A round finds the
vertices whose signatures rose with one diff against a copy taken at
its start (:func:`push_round`, :func:`full_round`, :func:`rose`):
signatures only rise, so a vertex rose during the round exactly when
its final value differs from its start value.  Pointer doubling is a
rise because every signature names a vertex at least as large as the
vertex it belongs to (``sig[v] >= v``, true from the identity
initialization on).

The two round shapes differ only in their compression, which is what
distinguishes the modelled kernels: :func:`push_round` compresses the
relaxed endpoints (frontier and adaptive frontier rounds, async narrow
rounds), :func:`full_round` pointer-doubles every vertex and feeds back
over the worklist's endpoints (sync rounds, adaptive dense rounds, async
full-width rounds).  Atomic is :func:`push` over every edge + full
compression; the minmax variant pushes a max pair and a negated min
pair without compression; the distributed BSP round is :func:`push`,
then pointer doubling with no feedback.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "push",
    "compress_paths",
    "snapshot",
    "rose",
    "push_round",
    "full_round",
]


def push(sigs, src: np.ndarray, dst: np.ndarray, *, compress: bool) -> None:
    """Scatter-max both signature directions over the edges ``src -> dst``."""
    for sig, to, frm in ((sigs.sig_out, src, dst), (sigs.sig_in, dst, src)):
        cand = sig[frm]
        if compress:
            cand = sig[cand]
        np.maximum.at(sig, to, cand)


def compress_paths(
    sigs, jump: "np.ndarray | None", feed: "np.ndarray | None"
) -> None:
    """Pointer doubling over *jump*, then signature feedback over *feed*.

    ``None`` stands for every vertex (then doubling rebinds
    ``sigs.sig_in``/``sig_out`` to new arrays).  When *feed* is the
    *jump* array itself, feedback takes the values doubling just wrote
    instead of gathering them again.  Pointer doubling:
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
        jumped_in, jumped_out = sig_in[sig_in[jump]], sig_out[sig_out[jump]]
        sig_in[jump] = jumped_in
        sig_out[jump] = jumped_out
    if feed is None:
        in_t, out_t = sig_in, sig_out
    elif feed is jump:
        # what gathering sig_in[feed]/sig_out[feed] would read back
        in_t, out_t = jumped_in, jumped_out
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


def full_round(
    sigs,
    src: np.ndarray,
    dst: np.ndarray,
    touched: np.ndarray,
    num_vertices: int,
    *,
    compress: bool,
) -> "tuple[np.ndarray, int]":
    """:func:`push` over ``src -> dst``, then compression over every vertex.

    Pointer doubling covers all vertices; feedback covers *touched*, the
    worklist's endpoints (which may be more than the endpoints of the
    edges relaxed).  Returns ``(changed, compress_work)``.
    """
    snap = snapshot(sigs)
    push(sigs, src, dst, compress=compress)
    compress_work = 0
    if compress:
        compress_paths(sigs, None, touched)
        compress_work = num_vertices + touched.size
    return rose(sigs, snap), compress_work
