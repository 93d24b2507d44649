"""Distributed FB-Trim on the virtual cluster (McLendon et al. 2005).

The paper's ref [15] — the method radiative-transfer codes used before
GPU SCC detection existed.  Trim-1 and the Forward-Backward reach sets
run as level-synchronous BSP computations: each BFS level is one
superstep whose halo exchange ships the frontier vertices crossing rank
boundaries.  On high-diameter mesh graphs the level count (and hence the
latency-bound superstep count) scales with the DAG depth — the cost
structure ECL-SCC's O(log) rounds avoid (see
``benchmarks/test_ext_distributed.py``).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConvergenceError
from ..graph.csr import CSRGraph
from ..results import count_sccs
from ..types import NO_VERTEX, VERTEX_DTYPE
from .cluster import ClusterSpec, VirtualCluster
from .eclscc import DistributedResult
from .partition import Partition

__all__ = ["distributed_fbtrim"]


def _bsp_reach(
    graph: CSRGraph,
    sources: np.ndarray,
    active: np.ndarray,
    owner: np.ndarray,
    cluster: VirtualCluster,
) -> "tuple[np.ndarray, int]":
    """Level-synchronous multi-source BFS with halo accounting."""
    n = graph.num_vertices
    r = cluster.spec.num_ranks
    visited = np.zeros(n, dtype=bool)
    sources = sources[active[sources]]
    visited[sources] = True
    frontier = np.unique(sources)
    levels = 0
    while frontier.size:
        levels += 1
        nxt, counts = graph.successors(frontier)
        expander_ops = np.bincount(
            owner[frontier], weights=counts.astype(np.float64), minlength=r
        ) * cluster.spec.ops_per_edge
        if nxt.size == 0:
            cluster.superstep(expander_ops + 1.0, label="fb-reach-level")
            break
        crossing = owner[np.repeat(frontier, counts)] != owner[nxt]
        msgs = np.bincount(
            owner[np.repeat(frontier, counts)[crossing]], minlength=r
        )
        cluster.superstep(
            expander_ops + 1.0, messages=msgs, bytes_out=msgs * 8,
            label="fb-reach-level",
        )
        nxt = nxt[active[nxt] & ~visited[nxt]]
        frontier = np.unique(nxt)
        visited[frontier] = True
    return visited, levels


def distributed_fbtrim(
    graph: CSRGraph,
    partition: Partition,
    spec: "ClusterSpec | None" = None,
) -> DistributedResult:
    """McLendon-style distributed FB-Trim; same result contract as
    :func:`~repro.distributed.eclscc.distributed_ecl_scc`."""
    if spec is None:
        spec = ClusterSpec(num_ranks=partition.num_ranks)
    if spec.num_ranks != partition.num_ranks:
        raise ConvergenceError("partition and cluster rank counts differ")
    cluster = VirtualCluster(spec)
    n = graph.num_vertices
    labels = np.full(n, NO_VERTEX, dtype=VERTEX_DTYPE)
    if n == 0:
        return DistributedResult(labels=labels, num_sccs=0, cluster=cluster)
    owner = partition.owner
    r = spec.num_ranks
    gt = graph.transpose()
    src, dst = graph.edges()
    active = np.ones(n, dtype=bool)
    supersteps = 0

    # ---- distributed Trim-1: peel; every round is one superstep with a
    # halo exchange of removed boundary vertices ------------------------
    in_deg = graph.in_degree().astype(np.int64).copy()
    out_deg = graph.out_degree().astype(np.int64).copy()
    frontier = np.flatnonzero((in_deg == 0) | (out_deg == 0))
    rounds = 0
    while frontier.size:
        rounds += 1
        if rounds > n + 2:  # pragma: no cover - safety
            raise ConvergenceError("distributed trim failed to converge")
        labels[frontier] = frontier
        active[frontier] = False
        # decrements along the removed vertices' edges
        fwd, _ = graph.successors(frontier)
        bwd, _ = gt.successors(frontier)
        np.subtract.at(in_deg, fwd, 1)
        np.subtract.at(out_deg, bwd, 1)
        ops = np.bincount(owner, minlength=r).astype(np.float64)  # flag scan
        # halo: removals on the partition boundary notify neighbouring ranks
        if partition.num_cut_edges:
            boundary_vs = np.unique(
                np.concatenate(
                    [src[partition.cut_edges], dst[partition.cut_edges]]
                )
            )
            bnd = frontier[np.isin(frontier, boundary_vs)]
        else:
            bnd = frontier[:0]
        msgs = np.bincount(owner[bnd], minlength=r)
        cluster.superstep(ops, messages=msgs, bytes_out=msgs * 8, label="trim-round")
        supersteps += 1
        cand = np.unique(np.concatenate([fwd, bwd]))
        cand = cand[active[cand]]
        frontier = cand[(in_deg[cand] <= 0) | (out_deg[cand] <= 0)]

    # ---- FB recursion, one subgraph at a time (the 2005 formulation) ---
    tasks = []
    if active.any():
        tasks.append(np.flatnonzero(active).astype(VERTEX_DTYPE))
    mask = np.zeros(n, dtype=bool)
    fb_rounds = 0
    while tasks:
        task = tasks.pop()
        if task.size == 1:
            labels[task[0]] = task[0]
            continue
        fb_rounds += 1
        if fb_rounds > n + 2:  # pragma: no cover - safety
            raise ConvergenceError("distributed FB failed to converge")
        mask[:] = False
        mask[task] = True
        pivot = np.asarray([int(task.max())], dtype=VERTEX_DTYPE)
        fwd, l1 = _bsp_reach(graph, pivot, mask, owner, cluster)
        bwd, l2 = _bsp_reach(gt, pivot, mask, owner, cluster)
        supersteps += l1 + l2
        scc = fwd & bwd & mask
        scc_idx = np.flatnonzero(scc)
        labels[scc_idx] = scc_idx.max()
        for sub_mask in (fwd & ~scc & mask, bwd & ~scc & mask, mask & ~fwd & ~bwd):
            sub = np.flatnonzero(sub_mask)
            if sub.size:
                tasks.append(sub.astype(VERTEX_DTYPE))

    assert not np.any(labels == NO_VERTEX)
    return DistributedResult(
        labels=labels,
        num_sccs=count_sccs(labels),
        outer_iterations=fb_rounds,
        supersteps=supersteps,
        cluster=cluster,
    )
