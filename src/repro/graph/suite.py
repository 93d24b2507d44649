"""Synthetic stand-ins for the paper's ten SuiteSparse power-law graphs.

The paper evaluates on ten graphs from the SuiteSparse Matrix Collection
(Table 3).  Offline we cannot fetch them, so for each graph we build a
synthetic replacement planted with the structural features the paper's
analysis depends on, taken from the graph's published Table 3 row:

* total vertex and edge counts (scaled down by default),
* the giant-SCC fraction,
* the number of trivial (size-1) and size-2 SCCs,
* the SCC-DAG depth,
* the hub degrees (max in/out degree).

Construction ("bow-tie with levels"): vertices are partitioned into
``depth`` topological levels; one level hosts the giant SCC (a directed
cycle over its vertices plus heavy-tailed chords — strongly connected by
construction), other levels host trivial SCCs and reciprocal 2-cycles.
All inter-level edges point from a lower level to a strictly higher one,
so the planted SCC structure is exact, not approximate: the number of
SCCs, their sizes, and the DAG depth are known by construction and the
test suite verifies them against Tarjan.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..errors import GraphFormatError
from ..types import VERTEX_DTYPE
from .csr import CSRGraph

__all__ = [
    "PowerLawSpec",
    "POWER_LAW_SPECS",
    "build_powerlaw",
    "powerlaw_suite",
    "default_scale",
    "engine_corpus",
]


@dataclass(frozen=True)
class PowerLawSpec:
    """Published Table 3 row plus the generator's structural knobs."""

    name: str
    vertices: int
    edges: int
    num_sccs: int
    size1_sccs: int
    size2_sccs: int
    largest_scc: int
    dag_depth: int
    max_din: int
    max_dout: int


#: Table 3 of the paper, verbatim.
POWER_LAW_SPECS: "tuple[PowerLawSpec, ...]" = (
    PowerLawSpec("cage14", 1_505_785, 27_130_349, 1, 1, 0, 1_505_785, 1, 41, 41),
    PowerLawSpec("circuit5M", 5_558_326, 59_524_291, 647, 15, 453, 5_555_791, 1, 1_290_501, 1_290_501),
    PowerLawSpec("com-Youtube", 1_134_890, 2_987_624, 1_134_890, 1_134_890, 0, 1, 704, 28_576, 4_256),
    PowerLawSpec("flickr", 820_878, 9_837_214, 277_277, 269_944, 4_345, 527_476, 5, 8_549, 10_272),
    PowerLawSpec("Freescale1", 3_428_755, 18_920_347, 1_061, 1, 0, 3_408_803, 1, 25, 27),
    PowerLawSpec("Freescale2", 2_999_349, 23_042_677, 55_085, 1, 54_423, 2_888_522, 1, 30_478, 30_167),
    PowerLawSpec("soc-LiveJournal1", 4_847_571, 68_993_773, 971_232, 947_776, 16_875, 3_828_682, 24, 13_906, 20_293),
    PowerLawSpec("web-Google", 916_428, 5_105_039, 412_479, 399_605, 4_169, 434_818, 34, 6_326, 456),
    PowerLawSpec("wiki-Talk", 2_394_385, 5_021_410, 2_281_879, 2_281_311, 529, 111_881, 8, 3_311, 100_022),
    PowerLawSpec("wikipedia", 3_148_440, 39_383_235, 1_040_035, 1_037_369, 2_001, 2_104_115, 85, 168_685, 6_576),
)

_SPEC_BY_NAME = {s.name: s for s in POWER_LAW_SPECS}


def default_scale() -> float:
    """Workload scale: 1.0 at paper size when ``REPRO_FULL=1``, else 1/32."""
    return 1.0 if os.environ.get("REPRO_FULL", "") == "1" else 1.0 / 32.0


def _zipf_indices(rng: np.random.Generator, count: int, universe: int, alpha: float = 1.2) -> np.ndarray:
    """Heavy-tailed indices in [0, universe): inverse-CDF of a bounded zipf."""
    if universe <= 0:
        return np.empty(0, dtype=VERTEX_DTYPE)
    u = rng.random(count)
    # bounded Pareto inverse CDF mapped to integer indices
    x = (universe ** (1.0 - alpha) - 1.0) * u + 1.0
    idx = np.floor(x ** (1.0 / (1.0 - alpha))).astype(VERTEX_DTYPE) - 1
    return np.clip(idx, 0, universe - 1)


def build_powerlaw(name: str, scale: "float | None" = None, seed: int = 0) -> "tuple[CSRGraph, dict]":
    """Build the synthetic stand-in for Table 3 graph *name*.

    Returns ``(graph, planted)`` where *planted* records the structure the
    generator planted: ``num_sccs``, ``size1``, ``size2``, ``largest``,
    ``dag_depth`` — at the *scaled* size.  The test suite asserts these
    against Tarjan's output on the generated graph.
    """
    if name not in _SPEC_BY_NAME:
        raise GraphFormatError(
            f"unknown power-law graph {name!r}; known: {sorted(_SPEC_BY_NAME)}"
        )
    spec = _SPEC_BY_NAME[name]
    if scale is None:
        scale = default_scale()
    # zlib.crc32 is a stable per-name salt; the builtin hash() is salted
    # per *process* (PYTHONHASHSEED), which silently made every run
    # generate a different graph — fatal for bench-regression gating
    rng = np.random.default_rng(seed ^ (zlib.crc32(name.encode()) & 0x7FFFFFFF))

    n = max(64, int(round(spec.vertices * scale)))
    m_target = max(n, int(round(spec.edges * scale)))
    giant = max(1, int(round(spec.largest_scc * scale)))
    giant = min(giant, n)
    size2 = int(round(spec.size2_sccs * scale))
    depth = spec.dag_depth
    # scale deep DAGs down too: depth cannot exceed available non-giant levels
    if scale < 1.0 and depth > 4:
        depth = max(4, int(round(depth * max(scale * 4, 0.25))))
    periphery = n - giant
    has_giant = giant >= 2
    # number of levels besides the giant's own level
    extra_levels = max(depth - (1 if has_giant else 0), 0)
    if periphery == 0:
        extra_levels = 0
    if extra_levels > periphery:
        extra_levels = periphery
    size2 = min(size2, periphery // 2)

    # --- assign vertices to levels --------------------------------------
    # layout: [pre-levels ...] [giant level] [post-levels ...]
    pre_levels = extra_levels // 2
    level_sizes: "list[int]" = []
    if extra_levels:
        base = periphery // extra_levels
        rem = periphery - base * extra_levels
        level_sizes = [base + (1 if i < rem else 0) for i in range(extra_levels)]
        # drop empty levels (tiny scaled graphs)
        level_sizes = [s for s in level_sizes if s > 0]
        pre_levels = min(pre_levels, len(level_sizes) // 2)
        post_levels = len(level_sizes) - pre_levels
    # vertex blocks in rank order: pre levels, giant, post levels.  Depth-1
    # graphs (giant + disconnected small SCCs, e.g. Freescale2) place their
    # periphery in an "iso" block that receives no inter-block edges.
    blocks: "list[tuple[str, int]]" = []
    for i in range(pre_levels):
        blocks.append(("pre", level_sizes[i]))
    blocks.append(("giant", giant))
    for i in range(pre_levels, len(level_sizes)):
        blocks.append(("post", level_sizes[i]))
    if extra_levels == 0 and periphery > 0:
        blocks.append(("iso", periphery))

    starts = np.cumsum([0] + [b[1] for b in blocks])
    rank_of = np.empty(n, dtype=VERTEX_DTYPE)
    giant_start = giant_stop = 0
    for bi, (kind, size) in enumerate(blocks):
        rank_of[starts[bi] : starts[bi + 1]] = bi
        if kind == "giant":
            giant_start, giant_stop = int(starts[bi]), int(starts[bi + 1])

    srcs: "list[np.ndarray]" = []
    dsts: "list[np.ndarray]" = []

    # --- giant SCC: hamiltonian cycle + heavy-tailed chords -------------
    edges_used = 0
    if giant >= 2:
        gv = np.arange(giant_start, giant_stop, dtype=VERTEX_DTYPE)
        srcs.append(gv)
        dsts.append(np.roll(gv, -1))
        edges_used += giant
        # intra-giant chords proportional to giant's share of paper edges
        paper_intra_share = min(0.9, spec.largest_scc / spec.vertices)
        chords = max(0, int(m_target * paper_intra_share) - giant)
        if chords:
            a = giant_start + _zipf_indices(rng, chords, giant)
            b = giant_start + rng.integers(0, giant, size=chords, dtype=VERTEX_DTYPE)
            srcs.append(a.astype(VERTEX_DTYPE))
            dsts.append(b)
            edges_used += chords

    # --- size-2 SCCs: reciprocal pairs inside periphery levels ----------
    if size2 > 0 and periphery >= 2:
        # take pairs from the first periphery block(s); both ends same level
        periph_ids = np.concatenate(
            [
                np.arange(starts[bi], starts[bi + 1], dtype=VERTEX_DTYPE)
                for bi, (kind, sz) in enumerate(blocks)
                if kind != "giant" and sz > 0
            ]
        ) if any(k != "giant" for k, _ in blocks) else np.empty(0, dtype=VERTEX_DTYPE)
        # pair consecutive ids within the same level to stay level-consistent
        same_level = rank_of[periph_ids[:-1]] == rank_of[periph_ids[1:]] if periph_ids.size > 1 else np.empty(0, dtype=bool)
        cand_a = periph_ids[:-1][same_level]
        cand_b = periph_ids[1:][same_level]
        # avoid overlapping pairs: take every other candidate
        cand_a, cand_b = cand_a[::2], cand_b[::2]
        take = min(size2, cand_a.size)
        pa, pb = cand_a[:take], cand_b[:take]
        srcs.extend([pa, pb])
        dsts.extend([pb, pa])
        edges_used += 2 * take
        size2 = take
    else:
        size2 = 0

    # --- inter-level DAG edges ------------------------------------------
    remaining = max(0, m_target - edges_used)
    num_blocks = len(blocks)
    if remaining and extra_levels == 0 and giant >= 2:
        # depth-1 graphs: leftover budget becomes intra-giant chords so the
        # "iso" block stays disconnected (condensation must be edgeless)
        a = giant_start + _zipf_indices(rng, remaining, giant)
        b = giant_start + rng.integers(0, giant, size=remaining, dtype=VERTEX_DTYPE)
        srcs.append(a.astype(VERTEX_DTYPE))
        dsts.append(b)
        remaining = 0
    if remaining and num_blocks >= 2:
        # sample source block biased to adjacency: edge from block i to j>i
        bi_src = rng.integers(0, num_blocks - 1, size=remaining)
        span = rng.geometric(0.7, size=remaining)
        bi_dst = np.minimum(bi_src + span, num_blocks - 1)
        ok = bi_dst > bi_src
        bi_src, bi_dst = bi_src[ok], bi_dst[ok]
        sizes_arr = np.asarray([b[1] for b in blocks], dtype=VERTEX_DTYPE)
        s_off = starts[bi_src] + (
            rng.integers(0, 1 << 62, size=bi_src.size) % sizes_arr[bi_src]
        )
        d_off = starts[bi_dst] + (
            rng.integers(0, 1 << 62, size=bi_dst.size) % sizes_arr[bi_dst]
        )
        srcs.append(s_off.astype(VERTEX_DTYPE))
        dsts.append(d_off.astype(VERTEX_DTYPE))

    # --- hubs -------------------------------------------------------------
    # One high-out-degree and one high-in-degree vertex, degree scaled.
    hub_out_deg = min(n - 1, max(4, int(round(spec.max_dout * scale))))
    hub_in_deg = min(n - 1, max(4, int(round(spec.max_din * scale))))
    if giant >= 2:
        hub = giant_start  # hub inside the giant: extra edges stay intra-SCC
        t = giant_start + rng.integers(0, giant, size=hub_out_deg, dtype=VERTEX_DTYPE)
        srcs.append(np.full(hub_out_deg, hub, dtype=VERTEX_DTYPE))
        dsts.append(t)
        s = giant_start + rng.integers(0, giant, size=hub_in_deg, dtype=VERTEX_DTYPE)
        srcs.append(s)
        dsts.append(np.full(hub_in_deg, hub, dtype=VERTEX_DTYPE))
    elif num_blocks >= 2:
        # DAG-only graph (e.g. com-Youtube): hub in first block fanning out
        hub = int(starts[0])
        later = rng.integers(int(starts[1]), n, size=hub_out_deg, dtype=VERTEX_DTYPE)
        srcs.append(np.full(hub_out_deg, hub, dtype=VERTEX_DTYPE))
        dsts.append(later)
        sink = n - 1
        earlier = rng.integers(0, max(int(starts[num_blocks - 1]), 1), size=hub_in_deg, dtype=VERTEX_DTYPE)
        srcs.append(earlier)
        dsts.append(np.full(hub_in_deg, sink, dtype=VERTEX_DTYPE))

    src = np.concatenate(srcs) if srcs else np.empty(0, dtype=VERTEX_DTYPE)
    dst = np.concatenate(dsts) if dsts else np.empty(0, dtype=VERTEX_DTYPE)
    # drop accidental self-loops (harmless but keep graphs simple-ish)
    keep = src != dst
    src, dst = src[keep], dst[keep]

    # random ID permutation so IDs are uninformative
    perm = rng.permutation(n).astype(VERTEX_DTYPE)
    g = CSRGraph.from_edges(perm[src], perm[dst], n, name=name)

    planted_largest = giant if giant >= 2 else 1
    planted_size1 = n - (giant if giant >= 2 else 0) - 2 * size2
    if giant == 1:
        planted_size1 = n - 2 * size2
    planted = {
        "num_sccs": planted_size1 + size2 + (1 if giant >= 2 else 0),
        "size1": planted_size1,
        "size2": size2,
        "largest": planted_largest,
        "dag_depth_planted_levels": num_blocks,
        "scale": scale,
        "spec": spec,
    }
    return g, planted


def engine_corpus() -> "list[tuple[str, CSRGraph]]":
    """The named 27-graph engine-comparison corpus.

    This is the canonical definition of the corpus the test suite's
    ``small_graphs``/``random_graphs`` fixtures and the
    ``repro bench engines`` regression gate share: 15 hand-built
    structural corner cases followed by 12 seeded random workloads.
    Everything is deterministic (fixed seeds, no salted hashing), so
    committed engine-matrix baselines replay bit for bit.
    """
    from .generators import (
        complete_digraph,
        cycle_graph,
        dag_chain_of_cliques,
        grid_dag,
        path_graph,
        planted_scc_graph,
        random_gnm,
        scc_ladder,
    )

    corpus: "list[tuple[str, CSRGraph]]" = [
        ("empty-0", CSRGraph.empty(0)),
        ("empty-1", CSRGraph.empty(1)),
        ("empty-5", CSRGraph.empty(5)),
        ("self-loop", CSRGraph.from_adjacency([[0]])),
        ("two-cycle", CSRGraph.from_adjacency([[1], [0]])),
        ("single-edge", CSRGraph.from_adjacency([[1], []])),
        ("dup-edges", CSRGraph.from_adjacency([[1, 1], [0]])),
        ("loops-2cycle", CSRGraph.from_adjacency([[0, 1], [1, 0]])),
        ("cycle-3", cycle_graph(3)),
        ("cycle-17", cycle_graph(17)),
        ("path-9", path_graph(9)),
        ("complete-5", complete_digraph(5)),
        ("ladder-6", scc_ladder(6)),
        ("grid-4x5", grid_dag(4, 5)),
        ("cliques-5x3", dag_chain_of_cliques(5, 3, seed=0)),
    ]
    for seed in range(6):
        corpus.append(
            (f"gnm-s{seed}",
             random_gnm(40 + 10 * seed, 100 + 30 * seed, seed=seed))
        )
        g, _ = planted_scc_graph(
            [3, 1, 5, 2, 7, 1, 1, 4], extra_dag_edges=10, seed=seed
        )
        corpus.append((f"planted-s{seed}", g))
    return corpus


def powerlaw_suite(
    scale: "float | None" = None,
    seed: int = 0,
    names: "Iterable[str] | None" = None,
) -> "list[tuple[CSRGraph, dict]]":
    """Build all (or the named subset of) Table 3 stand-ins."""
    if names is None:
        names = [s.name for s in POWER_LAW_SPECS]
    return [build_powerlaw(nm, scale=scale, seed=seed) for nm in names]
