"""The relaxation library (``repro.engine.relax``) against the bodies it replaced.

The reference bodies below are the change-tracking copies the engines
carried before the library existed, kept verbatim (a method became a
function taking its instance first; the dense policy's charge lines
are dropped): the frontier policy's ``_scatter_round``,
``EdgeGrouping.relax_masked`` plus the dense policy's inline
compression, and ``Signatures.pointer_jump`` / ``Signatures.feedback``.
They track every rise with a before-gather, compare and scatter; the
library compresses each distinct endpoint once and finds the changed
set with one diff against a snapshot.  ``relax_masked`` is a segment
max (gather + ``np.maximum.reduceat``) over a per-endpoint grouping of
the edges, which :class:`_Grouping` builds here; the library relaxes
the same edges with one scatter-max.  The properties below check that
both give identical signatures, changed masks and compression work on
multigraphs with self-loops and parallel edges, empty edge subsets,
compression on and off, edge masks on and off, and partially
re-initialised signatures (``sig[v] >= v``, the invariant every engine
keeps).
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import EdgeGrouping, Signatures
from repro.engine.relax import compress_paths, full_round, push_round, rose, snapshot

# ---------------------------------------------------------------------------
# reference bodies
# ---------------------------------------------------------------------------


class _Grouping:
    """The segment-max scaffolding ``relax_masked`` reads: the edges
    grouped by source and by destination (stable orders, distinct
    endpoint ids and ``reduceat`` boundaries) plus the distinct
    endpoints of the whole edge set."""

    def __init__(self, src: np.ndarray, dst: np.ndarray) -> None:
        self.src, self.dst = src, dst
        self.order_by_src = np.argsort(src, kind="stable")
        self.group_src, self.starts_src = np.unique(
            src[self.order_by_src], return_index=True
        )
        self.order_by_dst = np.argsort(dst, kind="stable")
        self.group_dst, self.starts_dst = np.unique(
            dst[self.order_by_dst], return_index=True
        )
        self.touched = np.unique(np.concatenate([self.group_src, self.group_dst]))


def _scatter_round(state, idx: np.ndarray) -> "tuple[np.ndarray, int]":
    """Shared push-relaxation body over edge subset *idx*.

    Scatter-max both signature directions with racy plain writes, then
    apply pointer doubling and signature feedback restricted to the
    touched endpoints.  Returns ``(changed_v, compress_work)``.
    """
    sigs = state.sigs
    sig_in, sig_out = sigs.sig_in, sigs.sig_out
    src, dst = state.grouping.src, state.grouping.dst
    changed_v = np.zeros(state.num_vertices, dtype=bool)
    s, d = src[idx], dst[idx]
    cand = sig_out[d]
    if state.compress:
        cand = sig_out[cand]
    before = sig_out[s]
    np.maximum.at(sig_out, s, cand)
    w = s[sig_out[s] > before]
    changed_v[w] = True
    cand = sig_in[s]
    if state.compress:
        cand = sig_in[cand]
    before = sig_in[d]
    np.maximum.at(sig_in, d, cand)
    w = d[sig_in[d] > before]
    changed_v[w] = True
    compress_work = 0
    if state.compress and idx.size:
        e = np.concatenate([s, d])
        # pointer doubling restricted to the active endpoints
        ji = sig_in[sig_in[e]]
        upd = ji > sig_in[e]
        sig_in[e[upd]] = ji[upd]
        changed_v[e[upd]] = True
        jo = sig_out[sig_out[e]]
        upd = jo > sig_out[e]
        sig_out[e[upd]] = jo[upd]
        changed_v[e[upd]] = True
        # feedback restricted to the active endpoints
        in_t = sig_in[e]
        out_t = sig_out[e]
        before = sig_in[out_t]
        np.maximum.at(sig_in, out_t, in_t)
        upd = sig_in[out_t] > before
        changed_v[out_t[upd]] = True
        before = sig_out[in_t]
        np.maximum.at(sig_out, in_t, out_t)
        upd = sig_out[in_t] > before
        changed_v[in_t[upd]] = True
        compress_work = 2 * e.size
    return changed_v, compress_work


def relax_masked(
    self,
    sigs,
    edge_active: "np.ndarray | None",
    num_vertices: int,
    *,
    compress: bool,
) -> np.ndarray:
    """One relaxation round over a subset of edges.

    ``edge_active`` is a boolean mask parallel to ``src``/``dst``
    (``None`` means all edges).  Inactive edges are neutralized by
    substituting -1 candidates, so the precomputed grouping is reused
    unchanged.  Returns a per-vertex boolean array marking vertices
    whose signature rose this round.
    """
    changed_v = np.zeros(num_vertices, dtype=bool)
    sig_out, sig_in = sigs.sig_out, sigs.sig_in
    # out-signatures
    cand = sig_out[self.dst]
    if compress:
        cand = sig_out[cand]
    if edge_active is not None:
        cand = np.where(edge_active, cand, -1)
    best = np.maximum.reduceat(cand[self.order_by_src], self.starts_src)
    upd = best > sig_out[self.group_src]
    if upd.any():
        winners = self.group_src[upd]
        sig_out[winners] = best[upd]
        changed_v[winners] = True
    # in-signatures
    cand = sig_in[self.src]
    if compress:
        cand = sig_in[cand]
    if edge_active is not None:
        cand = np.where(edge_active, cand, -1)
    best = np.maximum.reduceat(cand[self.order_by_dst], self.starts_dst)
    upd = best > sig_in[self.group_dst]
    if upd.any():
        winners = self.group_dst[upd]
        sig_in[winners] = best[upd]
        changed_v[winners] = True
    return changed_v


def _dense_round(state, edge_active=None) -> "tuple[np.ndarray, int]":
    """``DensePullPolicy.run_round`` without its charge (the async
    engine's full-width round is the same body with an edge mask)."""
    sigs = state.sigs
    g = state.grouping
    n = state.num_vertices
    changed_v = relax_masked(g, sigs, edge_active, n, compress=state.compress)
    compress_work = 0
    if state.compress:
        sig_in, sig_out = sigs.sig_in, sigs.sig_out
        # pointer doubling (the in[in]/out[out] reads of §3.3)
        ji = sig_in[sig_in]
        jo = sig_out[sig_out]
        changed_v |= ji != sig_in
        changed_v |= jo != sig_out
        sigs.sig_in, sigs.sig_out = sig_in, sig_out = ji, jo
        # signature feedback over the worklist endpoints
        touched = g.touched
        in_t = sig_in[touched]
        out_t = sig_out[touched]
        before = sig_in[out_t]
        np.maximum.at(sig_in, out_t, in_t)
        upd = sig_in[out_t] > before
        changed_v[out_t[upd]] = True
        before = sig_out[in_t]
        np.maximum.at(sig_out, in_t, out_t)
        upd = sig_out[in_t] > before
        changed_v[in_t[upd]] = True
        compress_work = n + touched.size
    return changed_v, compress_work


def pointer_jump(self) -> bool:
    """One pointer-doubling step on both arrays; True if anything moved."""
    jumped_in = self.sig_in[self.sig_in]
    jumped_out = self.sig_out[self.sig_out]
    changed = not (
        np.array_equal(jumped_in, self.sig_in)
        and np.array_equal(jumped_out, self.sig_out)
    )
    self.sig_in = jumped_in
    self.sig_out = jumped_out
    return changed


def feedback(self, vertices: "np.ndarray | None" = None) -> bool:
    """The paper's signature-feedback rule; True if any value rose."""
    if vertices is None:
        sig_in_v = self.sig_in
        sig_out_v = self.sig_out
    else:
        sig_in_v = self.sig_in[vertices]
        sig_out_v = self.sig_out[vertices]
    # change detection via gathers at the touched targets only — a full
    # array compare would make each feedback call O(n)
    changed = False
    before = self.sig_in[sig_out_v]
    np.maximum.at(self.sig_in, sig_out_v, sig_in_v)
    if np.any(self.sig_in[sig_out_v] > before):
        changed = True
    before = self.sig_out[sig_in_v]
    np.maximum.at(self.sig_out, sig_in_v, sig_out_v)
    if np.any(self.sig_out[sig_in_v] > before):
        changed = True
    return changed


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


@st.composite
def multigraphs(draw):
    """``(n, src, dst)``: a multigraph with self-loops and parallel edges."""
    n = draw(st.integers(1, 10))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=30))
    if edges and draw(st.booleans()):
        # repeat some edges verbatim: parallel edges, doubled self-loops
        edges += draw(st.lists(st.sampled_from(edges), max_size=6))
    src = np.array([u for u, _ in edges], dtype=np.int64)
    dst = np.array([v for _, v in edges], dtype=np.int64)
    return n, src, dst


@st.composite
def cases(draw):
    """A multigraph, signatures with ``sig[v] >= v``, an edge subset and
    mask, and the compression flag."""
    n, src, dst = draw(multigraphs())
    m = src.size
    sig = []
    for _ in range(2):
        s = np.array([draw(st.integers(v, n - 1)) for v in range(n)], dtype=np.int64)
        # partial re-init: a subset returns to its identity signature
        back = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        s[back] = np.arange(n)[back]
        sig.append(s)
    keep = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    idx = np.flatnonzero(keep)  # may be empty
    mask = None
    if draw(st.booleans()):
        mask = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    return SimpleNamespace(
        n=n, src=src, dst=dst, sig_in=sig[0], sig_out=sig[1],
        idx=idx, mask=mask, compress=draw(st.booleans()),
    )


def _pair(c):
    """Two independent copies of the case's signatures."""
    return tuple(Signatures(c.sig_in.copy(), c.sig_out.copy()) for _ in range(2))


def _state(c, sigs, grouping):
    return SimpleNamespace(
        sigs=sigs, grouping=grouping, num_vertices=c.n, compress=c.compress
    )


def _assert_same(a: Signatures, b: Signatures) -> None:
    assert np.array_equal(a.sig_in, b.sig_in)
    assert np.array_equal(a.sig_out, b.sig_out)


@given(cases())
@settings(max_examples=300, deadline=None)
def test_push_round_matches_scatter_round(c):
    grouping = EdgeGrouping.build(c.src, c.dst)
    ref, lib = _pair(c)
    ref_changed, ref_work = _scatter_round(_state(c, ref, grouping), c.idx)
    changed, work = push_round(
        lib, c.src[c.idx], c.dst[c.idx], c.n, compress=c.compress
    )
    _assert_same(ref, lib)
    assert np.array_equal(changed, ref_changed)
    assert work == ref_work


@given(cases())
@settings(max_examples=300, deadline=None)
def test_full_round_matches_dense_round(c):
    """The full-width round with and without an edge mask: the mask's
    edges are what the library scatters, the reference neutralizes the
    rest; feedback covers every worklist endpoint either way."""
    ref, lib = _pair(c)
    ref_changed, ref_work = _dense_round(
        _state(c, ref, _Grouping(c.src, c.dst)), c.mask
    )
    idx = np.arange(c.src.size) if c.mask is None else np.flatnonzero(c.mask)
    touched = EdgeGrouping.build(c.src, c.dst).touched
    changed, work = full_round(
        lib, c.src[idx], c.dst[idx], touched, c.n, compress=c.compress
    )
    _assert_same(ref, lib)
    assert np.array_equal(changed, ref_changed)
    assert work == ref_work


@given(cases(), st.sampled_from(["touched", "all"]))
@settings(max_examples=300, deadline=None)
def test_compress_paths_matches_pointer_jump_and_feedback(c, feed):
    """Full compression: the sync and dense shape (feedback over the
    worklist endpoints) and the atomic shape (feedback everywhere)."""
    vertices = EdgeGrouping.build(c.src, c.dst).touched if feed == "touched" else None
    ref, lib = _pair(c)
    ref_rose = pointer_jump(ref)
    ref_rose |= feedback(ref, vertices)
    snap = snapshot(lib)
    compress_paths(lib, None, vertices)
    _assert_same(ref, lib)
    assert rose(lib, snap).any() == ref_rose
