"""Shared, device-accounted SCC primitives.

The paper's framing is that every parallel SCC code — ECL-SCC, GPU-SCC,
iSpan, FB/FB-Trim, Hong, Multistep, coloring — is built from the same
handful of data-parallel building blocks.  This module is the single
implementation of those blocks; the nine baselines and the core
algorithms compose them instead of re-implementing their own loops:

* :func:`masked_bfs` / :func:`forward_reach` / :func:`backward_reach` —
  level-synchronous frontier reachability within an active mask
  (backward passes use the memoized reverse CSR on
  :class:`~repro.graph.csr.CSRGraph`, never a rebuilt transpose);
* :func:`trim1` / :func:`trim2` / :func:`trim3` — size-1/2/3 SCC
  peeling (McLendon, Yuede/iSpan);
* :func:`select_pivot` — max-degree / extremal-ID pivot selection with
  the per-formulation device charge;
* :func:`pivot_fb_step` — one forward/backward decomposition round from
  a single pivot (the giant-SCC phase of GPU-SCC/iSpan/Hong/Multistep);
* :func:`colored_fb_rounds` / :func:`colored_reach` — the coloring
  formulation of Forward-Backward (Barnat et al.);
* :func:`scc_edge_filter_mask` — the signature-mismatch edge filter
  (ECL-SCC Phase 3, shared with the distributed BSP code);
* :func:`normalize_labels_to_max` — max-member-ID label normalization,
  the library-wide output convention;
* :func:`incident_edges` — the edges incident to a vertex frontier,
  found by one scan (the frontier Phase-2 engine's round gather).

All device traffic is charged through :mod:`repro.engine.accounting`
and sized by the active :class:`~repro.engine.backend.ArrayBackend`, so
counters are comparable across algorithms by construction.  Primitives
accept an optional ``tracer``; when one is passed they emit
``primitive:*`` spans nested inside the caller's phase span (see
``docs/observability.md``).
"""

from __future__ import annotations

import numpy as np

from ..device.executor import VirtualDevice
from ..errors import ConvergenceError
from ..graph.csr import CSRGraph
from ..trace import NULL_TRACER, Tracer
from ..types import NO_VERTEX, VERTEX_DTYPE
from . import accounting as acct
from .backend import ArrayBackend, get_backend

__all__ = [
    "masked_bfs",
    "forward_reach",
    "backward_reach",
    "colored_fb_rounds",
    "colored_reach",
    "active_degrees",
    "trim1",
    "trim2",
    "trim3",
    "select_pivot",
    "pivot_fb_step",
    "scc_edge_filter_mask",
    "normalize_labels_to_max",
    "incident_edges",
]


# ---------------------------------------------------------------------------
# label normalization
# ---------------------------------------------------------------------------

def normalize_labels_to_max(labels: np.ndarray) -> np.ndarray:
    """Map arbitrary SCC labels to the max vertex ID in each component.

    The library-wide output convention: two vertices share a label iff
    they share an SCC, and the label is the component's maximum member
    ID, making outputs of all algorithms directly ``np.array_equal``.
    """
    labels = np.asarray(labels, dtype=VERTEX_DTYPE)
    n = labels.size
    if n == 0:
        return labels.copy()
    _, dense = np.unique(labels, return_inverse=True)
    reps = np.full(int(dense.max()) + 1, -1, dtype=VERTEX_DTYPE)
    np.maximum.at(reps, dense, np.arange(n, dtype=VERTEX_DTYPE))
    return reps[dense]


# ---------------------------------------------------------------------------
# frontier reachability
# ---------------------------------------------------------------------------

def masked_bfs(
    graph: CSRGraph,
    sources: np.ndarray,
    active: np.ndarray,
    dev: VirtualDevice,
    *,
    serial_level_cost: int = 0,
    backend: "ArrayBackend | str | None" = None,
    tracer: Tracer = NULL_TRACER,
) -> "tuple[np.ndarray, int]":
    """Level-synchronous BFS within ``active``; returns (visited, levels).

    Each level costs one launch/barrier plus the touched edges; callers
    modelling CPU codes with tiny frontiers pass ``serial_level_cost`` to
    charge the per-level critical-path overhead.
    """
    be = get_backend(backend)
    n = graph.num_vertices
    visited = np.zeros(n, dtype=bool)
    sources = np.asarray(sources, dtype=VERTEX_DTYPE).ravel()
    sources = sources[active[sources]]
    visited[sources] = True
    frontier = np.unique(sources)
    levels = 0
    with tracer.span("primitive:reach", sources=int(sources.size)) as sp:
        while frontier.size:
            levels += 1
            nxt, _ = graph.successors(frontier)
            # topology- or worklist-driven level kernel: scan the status
            # flags the backend sweeps, then expand the frontier's
            # adjacency (Barnat/Li formulation under the dense backend)
            acct.charge_frontier_level(
                dev,
                be,
                num_vertices=n,
                frontier_size=int(frontier.size),
                expanded_edges=int(nxt.size),
                serial_ops=serial_level_cost,
            )
            if nxt.size == 0:
                break
            nxt = nxt[active[nxt] & ~visited[nxt]]
            frontier = np.unique(nxt)
            visited[frontier] = True
        sp.set(levels=levels)
    return visited, levels


def forward_reach(
    graph: CSRGraph,
    sources: np.ndarray,
    active: np.ndarray,
    dev: VirtualDevice,
    **kwargs,
) -> "tuple[np.ndarray, int]":
    """Forward reachability closure from *sources* (see :func:`masked_bfs`)."""
    return masked_bfs(graph, sources, active, dev, **kwargs)


def backward_reach(
    graph: CSRGraph,
    sources: np.ndarray,
    active: np.ndarray,
    dev: VirtualDevice,
    **kwargs,
) -> "tuple[np.ndarray, int]":
    """Backward reachability closure from *sources*.

    Runs :func:`masked_bfs` on ``graph.transpose()`` — the reverse CSR
    is memoized on the graph, so repeated backward passes (every FB
    round, every re-trim) reuse one transpose build.
    """
    return masked_bfs(graph.transpose(), sources, active, dev, **kwargs)


# ---------------------------------------------------------------------------
# pivot selection
# ---------------------------------------------------------------------------

def select_pivot(
    graph: CSRGraph,
    active: np.ndarray,
    dev: VirtualDevice,
    *,
    strategy: str = "max-degree",
    charge: str = "serial",
    backend: "ArrayBackend | str | None" = None,
) -> int:
    """Choose a pivot among the active vertices.

    ``strategy``:

    * ``"max-degree"`` — highest total (in+out) degree, the hub pivot
      every giant-SCC phase uses;
    * ``"max-id"`` — highest active vertex ID (the textbook FB pivot;
      it makes labels max-normalized for free).

    ``charge`` names the device formulation: ``"serial"`` models a
    host-side scan (CPU codes), ``"atomic"`` a winning-concurrent-write
    kernel (GPU codes), ``"none"`` skips accounting (caller charges).
    """
    n = graph.num_vertices
    if strategy == "max-degree":
        deg = graph.out_degree() + graph.in_degree()
        deg = np.where(active, deg, -1)
        pivot = int(np.argmax(deg))
    elif strategy == "max-id":
        act = np.flatnonzero(active)
        if act.size == 0:
            raise ConvergenceError("select_pivot called with no active vertices")
        pivot = int(act.max())
    else:
        raise ValueError(f"unknown pivot strategy {strategy!r}")
    if charge == "serial":
        acct.charge_serial_scan(dev, n)
    elif charge == "atomic":
        acct.charge_winning_write(
            dev, get_backend(backend), num_vertices=n,
            candidates=int(np.count_nonzero(active)),
        )
    elif charge != "none":
        raise ValueError(f"unknown pivot charge {charge!r}")
    return pivot


def pivot_fb_step(
    graph: CSRGraph,
    active: np.ndarray,
    labels: np.ndarray,
    dev: VirtualDevice,
    pivot: int,
    *,
    serial_level_cost: int = 0,
    backend: "ArrayBackend | str | None" = None,
    tracer: Tracer = NULL_TRACER,
) -> np.ndarray:
    """One single-pivot Forward-Backward round (the giant-SCC phase).

    Computes forward and backward reach from *pivot* within ``active``,
    labels the intersection with its max member ID, deactivates it, and
    returns the SCC's boolean mask.  ``labels``/``active`` are updated
    in place; the closing vertex kernel (label assignment) is charged to
    the backend's sweep width.
    """
    be = get_backend(backend)
    n = graph.num_vertices
    p = np.asarray([pivot], dtype=VERTEX_DTYPE)
    fwd, _ = forward_reach(
        graph, p, active, dev,
        serial_level_cost=serial_level_cost, backend=be, tracer=tracer,
    )
    bwd, _ = backward_reach(
        graph, p, active, dev,
        serial_level_cost=serial_level_cost, backend=be, tracer=tracer,
    )
    scc = fwd & bwd & active
    scc_idx = np.flatnonzero(scc)
    if scc_idx.size:
        labels[scc_idx] = scc_idx.max()
        active[scc_idx] = False
    acct.charge_vertex_scan(
        dev, be, num_vertices=n, worklist_size=int(np.count_nonzero(active)),
        bytes_per_vertex=acct.PAIR_FLAG_BYTES,
    )
    if tracer.enabled:
        tracer.counter("scc-detected", size=int(scc_idx.size))
    return scc


# ---------------------------------------------------------------------------
# coloring Forward-Backward
# ---------------------------------------------------------------------------

def colored_fb_rounds(
    graph: CSRGraph,
    active: np.ndarray,
    labels: np.ndarray,
    dev: VirtualDevice,
    *,
    max_rounds: "int | None" = None,
    serial_level_cost: int = 0,
    backend: "ArrayBackend | str | None" = None,
    tracer: Tracer = NULL_TRACER,
) -> int:
    """Run coloring-FB until every active vertex is labelled.

    ``labels`` is updated in place with the max-member-ID of each SCC
    found; ``active`` is cleared as vertices are assigned.  Returns the
    number of FB rounds (each internally costs its BFS levels).

    Pivot selection follows Barnat's "winning write": every vertex of a
    color writes its ID to the color's slot and the maximum wins — one
    launch, modelled by a segment-max here.
    """
    be = get_backend(backend)
    n = graph.num_vertices
    gt = graph.transpose()
    color = np.zeros(n, dtype=VERTEX_DTYPE)  # one initial partition
    rounds = 0
    bound = max_rounds or (n + 2)
    while True:
        act_idx = np.flatnonzero(active)
        if act_idx.size == 0:
            return rounds
        rounds += 1
        if rounds > bound:
            raise ConvergenceError("coloring FB exceeded its round bound")
        with tracer.span("primitive:colored-fb-round", active=int(act_idx.size)):
            # --- pivot per color: winning concurrent write (one launch) --
            col = color[act_idx]
            order = np.argsort(col, kind="stable")
            col_sorted = col[order]
            group_starts = np.flatnonzero(
                np.concatenate([[True], col_sorted[1:] != col_sorted[:-1]])
            )
            pivots = np.maximum.reduceat(act_idx[order], group_starts)
            acct.charge_winning_write(
                dev, be, num_vertices=act_idx.size, candidates=act_idx.size
            )
            # --- forward/backward reach from all pivots simultaneously ---
            fwd = colored_reach(
                graph, pivots, color, active, dev,
                serial_level_cost=serial_level_cost, backend=be,
            )
            bwd = colored_reach(
                gt, pivots, color, active, dev,
                serial_level_cost=serial_level_cost, backend=be,
            )
            scc = fwd & bwd & active
            # label each found SCC with its pivot's color-group max (the
            # pivot IS the max active ID of its color by construction)
            pivot_of_color = np.full(
                int(color[act_idx].max()) + 1, NO_VERTEX, dtype=VERTEX_DTYPE
            )
            pivot_of_color[col_sorted[group_starts]] = pivots
            scc_idx = np.flatnonzero(scc)
            labels[scc_idx] = pivot_of_color[color[scc_idx]]
            active[scc_idx] = False
            acct.charge_vertex_scan(
                dev, be, num_vertices=act_idx.size,
                worklist_size=act_idx.size,
                bytes_per_vertex=acct.PAIR_FLAG_BYTES,
            )
            # --- split colors: quadrant encoding then compaction --------
            still = np.flatnonzero(active)
            if still.size == 0:
                return rounds
            quad = 2 * fwd[still].astype(np.int64) + bwd[still].astype(np.int64)
            new_color = color[still] * 4 + quad
            _, dense = np.unique(new_color, return_inverse=True)
            color[still] = dense
            acct.charge_vertex_scan(
                dev, be, num_vertices=still.size,
                worklist_size=still.size,
                bytes_per_vertex=acct.PAIR_FLAG_BYTES,
            )


def colored_reach(
    graph: CSRGraph,
    pivots: np.ndarray,
    color: np.ndarray,
    active: np.ndarray,
    dev: VirtualDevice,
    *,
    serial_level_cost: int = 0,
    backend: "ArrayBackend | str | None" = None,
) -> np.ndarray:
    """Multi-source BFS where expansion stays within the source's color.

    Also the backward sweep of Orzan-style coloring SCC: run it on the
    (memoized) transpose with the color roots as pivots.
    """
    be = get_backend(backend)
    n = graph.num_vertices
    visited = np.zeros(n, dtype=bool)
    visited[pivots] = True
    frontier = np.unique(pivots)
    while frontier.size:
        nxt, counts = graph.successors(frontier)
        acct.charge_frontier_level(
            dev,
            be,
            num_vertices=n,
            frontier_size=int(frontier.size),
            expanded_edges=int(nxt.size),
            serial_ops=serial_level_cost,
        )
        if nxt.size == 0:
            break
        src_col = np.repeat(color[frontier], counts)
        ok = active[nxt] & ~visited[nxt] & (color[nxt] == src_col)
        frontier = np.unique(nxt[ok])
        visited[frontier] = True
    return visited


# ---------------------------------------------------------------------------
# trim peeling
# ---------------------------------------------------------------------------

def active_degrees(
    graph: CSRGraph, active: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """(in_deg, out_deg) counting only edges between active vertices."""
    src, dst = graph.edges()
    live = active[src] & active[dst]
    n = graph.num_vertices
    out_deg = np.bincount(src[live], minlength=n).astype(VERTEX_DTYPE)
    in_deg = np.bincount(dst[live], minlength=n).astype(VERTEX_DTYPE)
    return in_deg, out_deg


def trim1(
    graph: CSRGraph,
    active: np.ndarray,
    labels: np.ndarray,
    dev: VirtualDevice,
    *,
    max_rounds: "int | None" = None,
    backend: "ArrayBackend | str | None" = None,
    tracer: Tracer = NULL_TRACER,
) -> "tuple[int, int]":
    """Iterated Trim-1.  Returns ``(removed, rounds)``.

    Degree maintenance is decremental (the standard GPU formulation):
    active degrees are computed once, and removing a vertex decrements
    its neighbours' counters, so the total edge work is O(E) across all
    rounds.  What iterates is the per-round *vertex scan* — every round
    launches a kernel that checks the vertex flags the backend sweeps —
    which is exactly why trim-based codes pay ~DAG-depth launches on
    deep meshes under the topology-driven (dense) organization (§5.1.1).
    """
    be = get_backend(backend)
    n = graph.num_vertices
    removed_total = 0
    bound = max_rounds or (n + 2)
    in_deg, out_deg = active_degrees(graph, active)
    acct.charge_degree_pass(dev, edges=graph.num_edges)
    gt = graph.transpose()
    frontier = np.flatnonzero(active & ((in_deg == 0) | (out_deg == 0)))
    acct.charge_vertex_scan(
        dev, be, num_vertices=n, worklist_size=int(np.count_nonzero(active))
    )
    rounds = 1
    with tracer.span("primitive:trim1") as sp:
        while frontier.size:
            rounds += 1
            if rounds > bound:  # pragma: no cover - safety net
                raise RuntimeError("trim1 failed to converge")
            labels[frontier] = frontier  # a trivial SCC's max member is itself
            active[frontier] = False
            removed_total += frontier.size
            # decrement neighbour degrees along the removed vertices' edges
            fwd, _ = graph.successors(frontier)
            bwd, _ = gt.successors(frontier)
            np.subtract.at(in_deg, fwd, 1)
            np.subtract.at(out_deg, bwd, 1)
            # per-round kernel: scan the swept vertex flags + the decrements
            acct.charge_vertex_scan(
                dev, be, num_vertices=n, worklist_size=int(frontier.size)
            )
            acct.charge_degree_pass(dev, edges=int(fwd.size + bwd.size))
            cand = np.unique(np.concatenate([fwd, bwd]))
            cand = cand[active[cand]]
            frontier = cand[(in_deg[cand] <= 0) | (out_deg[cand] <= 0)]
        sp.set(removed=int(removed_total), rounds=rounds)
    return removed_total, rounds


def trim2(
    graph: CSRGraph,
    active: np.ndarray,
    labels: np.ndarray,
    dev: VirtualDevice,
    *,
    backend: "ArrayBackend | str | None" = None,
    tracer: Tracer = NULL_TRACER,
) -> int:
    """One Trim-2 pass: remove isolated 2-cycles.  Returns removals.

    A pair (u, v) qualifies when u <-> v and neither vertex has any other
    active in- or out-edge (Fig. 2b of the paper).
    """
    be = get_backend(backend)
    in_deg, out_deg = active_degrees(graph, active)
    src, dst = graph.edges()
    live = active[src] & active[dst]
    s, d = src[live], dst[live]
    acct.charge_degree_pass(
        dev, edges=graph.num_edges, bytes_per_edge=acct.ADJACENCY_EDGE_BYTES
    )
    # candidate endpoints: degree exactly 1 in both directions
    cand = active & (in_deg == 1) & (out_deg == 1)
    pick = cand[s] & cand[d]
    s2, d2 = s[pick], d[pick]
    if s2.size == 0:
        return 0
    # reciprocal test via edge-key membership
    n = max(graph.num_vertices, 1)
    keys = s2 * np.int64(n) + d2
    rev = d2 * np.int64(n) + s2
    recip = np.isin(rev, keys, assume_unique=False)
    u, v = s2[recip], d2[recip]
    # each pair appears as both (u, v) and (v, u); keep one orientation
    once = u < v
    u, v = u[once], v[once]
    if u.size == 0:
        return 0
    ncand = int(cand.sum())
    acct.charge_vertex_scan(
        dev, be, num_vertices=ncand, worklist_size=ncand,
        bytes_per_vertex=acct.PAIR_FLAG_BYTES,
    )
    pair_label = np.maximum(u, v)
    labels[u] = pair_label
    labels[v] = pair_label
    active[u] = False
    active[v] = False
    if tracer.enabled:
        tracer.counter("primitive:trim2-removed", int(2 * u.size))
    return int(u.size)


def trim3(
    graph: CSRGraph,
    active: np.ndarray,
    labels: np.ndarray,
    dev: VirtualDevice,
    *,
    backend: "ArrayBackend | str | None" = None,
    tracer: Tracer = NULL_TRACER,
) -> int:
    """One Trim-3 pass: remove isolated size-3 SCCs (Yuede's 5 patterns).

    There are exactly five strongly connected 3-vertex digraphs up to
    isomorphism — the plain 3-cycle, the 3-cycle with one, two, or three
    reverse chords, and the bidirectional path — matching the five
    patterns of the iSpan paper.  A triple qualifies when it induces one
    of them *and* none of its members has any other active edge.

    Detection: every qualifying triple contains at least one member
    adjacent to both others (the middle of a bidirectional path, or any
    vertex of a 3-cycle), so triples are enumerated from vertices with
    exactly two distinct active neighbours, then validated for closure
    (no external edges) and strong connectivity (on 3 vertices: every
    member has an internal in- and out-edge).  Returns vertices removed.
    """
    be = get_backend(backend)
    n = graph.num_vertices
    src, dst = graph.edges()
    live = active[src] & active[dst] & (src != dst)
    s, d = src[live], dst[live]
    acct.charge_degree_pass(
        dev, edges=graph.num_edges, bytes_per_edge=acct.ADJACENCY_EDGE_BYTES
    )
    if s.size == 0:
        return 0
    # distinct undirected neighbour pairs (v, w), v != w, both active
    big = np.int64(max(n, 1))
    und = np.concatenate([s * big + d, d * big + s])
    und = np.unique(und)
    v = und // big
    w = und % big
    # vertices with exactly two distinct neighbours seed candidate triples
    deg = np.bincount(v, minlength=n)
    seeds = np.flatnonzero(deg == 2)
    if seeds.size == 0:
        return 0
    order = np.argsort(v, kind="stable")
    starts = np.searchsorted(v[order], seeds)
    n1 = w[order][starts]
    n2 = w[order][starts + 1]
    triple = np.sort(np.stack([seeds, n1, n2], axis=1), axis=1)
    triple = np.unique(triple, axis=0)
    a, b, c = triple[:, 0], triple[:, 1], triple[:, 2]
    ok = (a != b) & (b != c)
    a, b, c = a[ok], b[ok], c[ok]
    if a.size == 0:
        return 0
    # closure: each member's distinct-neighbour set lies inside the triple
    # (deg <= 2 plus both neighbours being members implies containment)
    dir_keys = np.unique(s * big + d)

    def has_edge(x, y):
        return np.isin(x * big + y, dir_keys)

    e = {}
    for name, (x, y) in {
        "ab": (a, b), "ba": (b, a), "bc": (b, c),
        "cb": (c, b), "ac": (a, c), "ca": (c, a),
    }.items():
        e[name] = has_edge(x, y)
    closed = (deg[a] <= 2) & (deg[b] <= 2) & (deg[c] <= 2)
    # neighbours of each member must be members: count internal undirected
    # adjacencies per member and compare with its distinct degree
    adj_a = (e["ab"] | e["ba"]).astype(np.int64) + (e["ac"] | e["ca"]).astype(np.int64)
    adj_b = (e["ab"] | e["ba"]).astype(np.int64) + (e["bc"] | e["cb"]).astype(np.int64)
    adj_c = (e["ac"] | e["ca"]).astype(np.int64) + (e["bc"] | e["cb"]).astype(np.int64)
    closed &= (adj_a == deg[a]) & (adj_b == deg[b]) & (adj_c == deg[c])
    # strong connectivity on 3 vertices: internal in- and out-degree >= 1
    out_a, in_a = e["ab"] | e["ac"], e["ba"] | e["ca"]
    out_b, in_b = e["ba"] | e["bc"], e["ab"] | e["cb"]
    out_c, in_c = e["ca"] | e["cb"], e["ac"] | e["bc"]
    sc = out_a & in_a & out_b & in_b & out_c & in_c
    pick = closed & sc
    if not pick.any():
        return 0
    a, b, c = a[pick], b[pick], c[pick]
    label = np.maximum(np.maximum(a, b), c)
    for arr in (a, b, c):
        labels[arr] = label
        active[arr] = False
    acct.charge_vertex_scan(
        dev, be, num_vertices=int(seeds.size), worklist_size=int(seeds.size),
        bytes_per_vertex=acct.PAIR_FLAG_BYTES,
    )
    if tracer.enabled:
        tracer.counter("primitive:trim3-removed", int(3 * a.size))
    return int(3 * a.size)


# ---------------------------------------------------------------------------
# edge filtering
# ---------------------------------------------------------------------------

def scc_edge_filter_mask(
    sig_in: np.ndarray,
    sig_out: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    drop_completed: bool = True,
) -> np.ndarray:
    """Keep-mask of the signature-mismatch edge filter (Alg. 1 l. 15-19).

    An edge (u -> v) survives iff both signature pairs match — a
    mismatch proves the endpoints lie in different SCCs, so dropping is
    always safe.  With ``drop_completed`` the filter additionally drops
    edges whose source is already completed (``in == out``): such an
    edge lies inside a detected SCC and is dead weight (the paper's
    SCC-edge-removal optimization).  Shared by ECL-SCC Phase 3, the
    minmax variant, and the distributed BSP filter.
    """
    keep = (sig_in[src] == sig_in[dst]) & (sig_out[src] == sig_out[dst])
    if drop_completed:
        keep &= sig_in[src] != sig_out[src]
    return keep


# ---------------------------------------------------------------------------
# frontier incidence (frontier Phase-2 engine)
# ---------------------------------------------------------------------------

def incident_edges(
    frontier_mask: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Ids of the edges ``src -> dst`` with an endpoint in the frontier.

    The frontier engine's per-round gather: one scan over the worklist.
    Each frontier-incident edge comes once, in edge order; parallel
    edges keep their distinct ids and a self-loop comes once.  The
    modelled kernel reads the frontier vertices' buckets instead and is
    charged for exactly this set; the host scans because a few NumPy
    calls over every edge cost less than a per-vertex bucket gather on
    the narrow rounds that dominate mesh solves.
    """
    return np.flatnonzero(frontier_mask[src] | frontier_mask[dst])
