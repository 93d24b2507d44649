"""Incremental SCC maintenance over a mutable graph: :class:`DynamicGraph`.

Every query against a :class:`~repro.graph.csr.CSRGraph` is a cold full
re-solve; serving scenarios are dominated by updates and queries against
a slowly mutating graph.  ``DynamicGraph`` is the mutable handle: it
accepts batched edge insertions and deletions and maintains the
per-vertex SCC labels incrementally, so :meth:`query` is a read, not a
solve.

Maintenance strategy (Sa, *Maintenance of Strongly Connected Components
in Shared-memory Graph*; Hong et al., *Static and Incremental Graph
Connectivity on GPUs* — PAPERS.md):

* **Deletions only split.**  A removed inter-component edge cannot
  change any SCC; it only decrements a multiplicity in the cached
  condensation.  A removed intra-component edge ``(u, v)`` *may* split
  its component — but a dense SCC rarely hinges on one edge, so the
  handle first runs a targeted ``u -> v`` reachability probe inside the
  component's surviving subgraph (every replacement path must stay
  inside the old component: the old SCC was maximal and deletion adds
  no paths).  Only when a probe fails does it re-solve the affected
  components, seeding the frontier Phase-2 engine
  (:mod:`repro.core.propagation`) from exactly the invalidated vertex
  set — PR 4's cross-iteration reuse generalized across *queries*.
* **Insertions only merge.**  An intra-component edge is a label no-op.
  Inter-component edges are lifted into the cached condensation DAG;
  any newly-created cycle lies inside the *affected reachability
  cluster* (condensation vertices forward-reachable from an inserted
  head and backward-reachable from an inserted tail — the backward
  pass runs restricted to the forward closure, which is exact because
  every backward path from a forward-reachable vertex stays forward-
  reachable), so only that cluster is re-solved, and each of its SCCs
  merges its old components into the one with the max label — read off
  the cluster's local labels, so merged labels stay the max vertex ID
  of the union.

Labels are therefore **bit-identical to a cold solve** of the current
graph after every applied batch: the max-member labelling is canonical,
splits re-derive it exactly on the affected components, and merges take
maxima of maxima.

All internal traversals are modelled as *persistent* worklist kernels
(one launch, in-kernel rounds) — the paper's §3.4 launch-overhead
argument applies with extra force to updates, whose subproblems are
tiny; the host runs each traversal as one SciPy breadth-first search
and replays its rounds from the BFS levels.  Every update kernel is
device-accounted through :mod:`repro.engine.accounting`
(``charge_update_insert`` / ``charge_update_delete`` /
``charge_label_rewrite`` / ``charge_condensation_build``) and lands in
the launch ledger under ``dynamic-*`` spans, so ``repro profile`` can
attribute update cost and :mod:`repro.dynamic.replay` can show the
incremental-vs-recompute crossover.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np

from ..core.eclscc import ecl_scc
from ..core.options import ALL_ON, EclOptions
from ..device.counters import KernelCounters
from ..device.executor import VirtualDevice
from ..device.spec import A100, DeviceSpec
from ..engine import get_backend
from ..engine.accounting import (
    STATUS_FLAG_BYTES,
    charge_condensation_build,
    charge_degree_pass,
    charge_frontier_launch,
    charge_frontier_round,
    charge_label_rewrite,
    charge_update_delete,
    charge_update_insert,
    charge_vertex_scan,
)
from ..errors import GraphFormatError, GraphValidationError
from ..faults.plan import FaultPlan
from ..graph.csr import CSRGraph, vertex_count
from ..profile.ledger import instrument
from ..results import AlgoResult, count_sccs
from ..trace import Tracer
from ..types import VERTEX_DTYPE, as_vertex_array, ragged_arange

__all__ = ["DynamicGraph", "UpdateReport", "DynamicCheckpoint"]

#: Intra-component deletions per batch above which the split check
#: switches from per-edge replacement-path probes to one whole-component
#: forward+backward sweep.  A probe usually terminates after a few
#: rounds (hub-dense SCCs have short replacement paths) but costs up to
#: one component volume when it must exhaust the component; the sweep
#: costs exactly two volumes regardless of batch size — so point probes
#: win for sparse batches and the sweep amortizes dense ones.
PROBE_LIMIT = 4


@dataclass(frozen=True)
class UpdateReport:
    """Outcome of one applied mutation batch.

    ``model_seconds`` is the *incremental* device cost of the batch —
    the delta of the handle's cost-model estimate across the update —
    which the replay harness compares against the cost of a cold
    re-solve of the post-batch graph (the crossover measurement).
    """

    op: str                    # "insert" | "delete"
    generation: int            # handle generation after this batch
    requested: int             # batch size as given
    inserted: int = 0
    deleted: int = 0
    invalidated: int = 0       # vertices re-seeded into the frontier engine
    resolve_vertices: int = 0  # size of the bounded re-solve subproblem
    resolve_edges: int = 0
    merged_components: int = 0
    split_components: int = 0
    labels_changed: int = 0
    model_seconds: float = 0.0


@dataclass
class DynamicCheckpoint:
    """Frozen :class:`DynamicGraph` state (edges, labels, accounting).

    Mirrors :class:`repro.faults.recovery.Checkpoint`: the counter copy
    is taken with the snapshot, and :meth:`DynamicGraph.restore`
    truncates the launch ledger to ``ledger_len``, so a restored handle
    reproduces the checkpointed run's counters and profile attribution
    bit for bit.
    """

    generation: int
    src: np.ndarray
    dst: np.ndarray
    labels: np.ndarray
    counters: KernelCounters
    ledger_len: int
    history_len: int

    @property
    def nbytes(self) -> int:
        return self.src.nbytes + self.dst.nbytes + self.labels.nbytes


class _CondCache:
    """The cached condensation DAG with per-edge multiplicities.

    ``dense[v]`` is the condensation vertex of original vertex ``v``,
    ``comp_labels[c]`` the SCC label of component ``c``, and
    ``keys``/``counts`` the sorted inter-component edge multiset
    (``key = csrc * k + cdst``) — the multiplicities are what let the
    cache *survive deletions*: removing an inter-component edge just
    decrements its count, and the DAG edge disappears only when the
    last resident instance does.  Without counts every deletion would
    force an O(|E|) rebuild, which is exactly the cost class an
    incremental engine exists to avoid.
    """

    __slots__ = ("dense", "comp_labels", "keys", "counts", "_dag")

    def __init__(
        self,
        dense: np.ndarray,
        comp_labels: np.ndarray,
        keys: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        self.dense = dense
        self.comp_labels = comp_labels
        self.keys = keys
        self.counts = counts
        self._dag: "CSRGraph | None" = None

    @property
    def num_components(self) -> int:
        return self.comp_labels.size

    @property
    def dag(self) -> CSRGraph:
        if self._dag is None:
            k = self.num_components
            self._dag = CSRGraph.from_edges(
                self.keys // max(k, 1), self.keys % max(k, 1), k
            )
        return self._dag

    def add_pairs(self, csrc: np.ndarray, cdst: np.ndarray) -> None:
        """Record inserted inter-component edges (increment counts)."""
        k = self.num_components
        new = csrc.astype(np.int64) * k + cdst
        uniq, cnt = np.unique(new, return_counts=True)
        pos = np.searchsorted(self.keys, uniq)
        hit = (pos < self.keys.size) & (self.keys[np.minimum(pos, self.keys.size - 1)] == uniq) if self.keys.size else np.zeros(uniq.size, dtype=bool)
        self.counts[pos[hit]] += cnt[hit]
        if not hit.all():
            self.keys = np.insert(self.keys, pos[~hit], uniq[~hit])
            self.counts = np.insert(self.counts, pos[~hit], cnt[~hit])
            self._dag = None

    def remove_pairs(self, csrc: np.ndarray, cdst: np.ndarray) -> None:
        """Record deleted inter-component edges (decrement counts)."""
        k = self.num_components
        gone = csrc.astype(np.int64) * k + cdst
        uniq, cnt = np.unique(gone, return_counts=True)
        pos = np.searchsorted(self.keys, uniq)
        self.counts[pos] -= cnt
        if (self.counts == 0).any():
            keep = self.counts > 0
            self.keys = self.keys[keep]
            self.counts = self.counts[keep]
            self._dag = None

    def contract(self, roots: np.ndarray, comp_map: np.ndarray) -> "_CondCache":
        """Cache after merges (``roots`` per old component: the merged
        component it joins; ``comp_map`` old -> new compacted IDs)."""
        k = self.num_components
        k2 = int(comp_map.max()) + 1 if comp_map.size else 0
        comp_labels = np.zeros(k2, dtype=VERTEX_DTYPE)
        comp_labels[comp_map] = self.comp_labels[roots]
        mcs = comp_map[self.keys // max(k, 1)]
        mcd = comp_map[self.keys % max(k, 1)]
        keep = mcs != mcd
        new_keys = mcs[keep].astype(np.int64) * k2 + mcd[keep]
        uniq, inverse = np.unique(new_keys, return_inverse=True)
        counts = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(counts, inverse, self.counts[keep])
        return _CondCache(comp_map[self.dense], comp_labels, uniq, counts)


class DynamicGraph:
    """Mutable graph handle maintaining SCC labels incrementally.

    Parameters
    ----------
    graph:
        initial :class:`~repro.graph.csr.CSRGraph` (solved cold once,
        unless *labels* supplies a known-correct labelling).
    options:
        base :class:`~repro.core.options.EclOptions` for the internal
        re-solves; defaults to all optimizations on.
    engine:
        Phase-2 engine of the internal re-solves, validated against the
        engine registry.  Defaults to ``"frontier"`` — deletions seed
        the frontier engine from the invalidated set, which is the
        point of the incremental design.  ``"adaptive"`` layers the
        per-round policy scheduler on top of the same seeding (each
        re-solve gets a fresh scheduler, so update subproblems decide
        independently).
    device:
        persistent :class:`~repro.device.VirtualDevice` (or a
        :class:`~repro.device.DeviceSpec`, wrapped) that accumulates
        every update's charges across the handle's lifetime.
    backend:
        :class:`~repro.engine.ArrayBackend` (or name) the update
        kernels and re-solves account against.
    tracer:
        optional :class:`~repro.trace.Tracer`; updates record
        ``dynamic-insert`` / ``dynamic-delete`` / ``dynamic-query``
        spans with the internal re-solves nested inside, and the
        launch ledger attributes every update kernel to them.
    faults:
        optional :class:`~repro.faults.FaultPlan` injected into every
        internal re-solve (monotone plans keep labels bit-identical;
        see ``docs/robustness.md``).
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        options: "EclOptions | None" = None,
        engine: "str | None" = None,
        device: "VirtualDevice | DeviceSpec | None" = None,
        backend: "str | None" = None,
        tracer: "Tracer | None" = None,
        faults: "FaultPlan | None" = None,
        labels: "np.ndarray | None" = None,
    ) -> None:
        self._device, self._tr = instrument(device, A100, tracer)
        self._opts = replace(options or ALL_ON, engine=engine or "frontier")
        self._backend = get_backend(backend)
        self._faults = faults
        self._n = graph.num_vertices
        src, dst = graph.edges()
        self._src = src.copy()
        self._dst = dst.copy()
        self._name = graph.name or "dynamic"
        self.generation = 0
        self.history: "list[UpdateReport]" = []
        self._cond: "_CondCache | None" = None
        if labels is not None:
            labels = as_vertex_array(labels, "labels")
            if labels.size != self._n:
                raise GraphValidationError(
                    f"labels must have one entry per vertex ({self._n}),"
                    f" got {labels.size}"
                )
            self.labels = labels.copy()
        else:
            with self._tr.span("dynamic-cold-solve"):
                res = ecl_scc(
                    graph, options=self._opts, device=self._device,
                    backend=self._backend, tracer=self._tr, faults=faults,
                )
            self.labels = res.labels

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return self._src.size

    @property
    def num_sccs(self) -> int:
        return count_sccs(self.labels)

    @property
    def device(self) -> VirtualDevice:
        return self._device

    @property
    def options(self) -> EclOptions:
        """Options of the internal re-solves (engine already folded in)."""
        return self._opts

    def graph(self) -> CSRGraph:
        """Immutable snapshot of the current graph."""
        return CSRGraph.from_edges(
            self._src, self._dst, self._n, name=self._name
        )

    def model_seconds(self) -> float:
        """Cost-model estimate of all work charged to the handle so far."""
        return self._device.estimate(self._n, self._src.size).total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<DynamicGraph {self._name!r} |V|={self._n}"
            f" |E|={self._src.size} sccs={self.num_sccs}"
            f" gen={self.generation}>"
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self) -> AlgoResult:
        """Current SCC labelling — a label read-out, not a re-solve.

        The static special case: ``DynamicGraph(g).query()`` equals
        ``repro.solve(g)``'s labels, and stays equal after any applied
        batches to a cold solve of the then-current graph.
        """
        with self._tr.span("dynamic-query"):
            # one label copy-out kernel (the read a serving layer pays)
            charge_vertex_scan(
                self._device, self._backend,
                num_vertices=self._n, worklist_size=self._n,
                bytes_per_vertex=STATUS_FLAG_BYTES,
            )
        return AlgoResult(
            labels=self.labels.copy(),
            num_sccs=self.num_sccs,
            device=self._device,
            trace=self._tr.trace if self._tr.enabled else None,
        )

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def add_vertices(self, count: int) -> np.ndarray:
        """Append *count* isolated vertices; returns their new IDs."""
        count = vertex_count(count, "count")
        new_ids = np.arange(self._n, self._n + count, dtype=VERTEX_DTYPE)
        if count:
            # an isolated vertex is its own SCC labelled by itself
            self.labels = np.concatenate([self.labels, new_ids])
            self._n += count
            self._cond = None
        return new_ids

    def insert_edges(self, src, dst) -> UpdateReport:
        """Apply one batch of edge insertions; labels merge as needed."""
        s, d = self._batch_arrays(src, dst)
        before = self.model_seconds()
        merged = changed = resolve_v = resolve_e = 0
        with self._tr.span("dynamic-insert", batch=int(s.size)) as sp:
            charge_update_insert(self._device, batch=int(s.size))
            inter = self.labels[s] != self.labels[d]
            if inter.any():
                # build the cache from the *pre-insert* edges: add_pairs
                # must be the only accounting of the new batch, or a
                # first-time build would count it twice and a later
                # deletion would leave a stale DAG edge behind
                self._condensation()
            self._src = np.concatenate([self._src, s])
            self._dst = np.concatenate([self._dst, d])
            if inter.any():
                merged, changed, resolve_v, resolve_e = self._merge_inserted(
                    s[inter], d[inter]
                )
            sp.set(merged=merged, labels_changed=changed)
        self.generation += 1
        report = UpdateReport(
            op="insert",
            generation=self.generation,
            requested=int(s.size),
            inserted=int(s.size),
            resolve_vertices=resolve_v,
            resolve_edges=resolve_e,
            merged_components=merged,
            labels_changed=changed,
            model_seconds=self.model_seconds() - before,
        )
        self.history.append(report)
        return report

    def delete_edges(self, src, dst) -> UpdateReport:
        """Apply one batch of edge deletions; labels split as needed.

        Multiset semantics: each requested ``(u, v)`` pair removes one
        resident instance; a pair with no remaining instance raises
        :class:`~repro.errors.GraphValidationError`.
        """
        s, d = self._batch_arrays(src, dst)
        before = self.model_seconds()
        split = changed = resolve_v = resolve_e = invalidated = 0
        with self._tr.span("dynamic-delete", batch=int(s.size)) as sp:
            removed_s, removed_d = self._remove_batch(s, d)
            inter = self.labels[removed_s] != self.labels[removed_d]
            if self._cond is not None and inter.any():
                # inter-component deletions never change labels; the
                # cached DAG just loses multiplicity
                charge_degree_pass(
                    self._device, edges=int(np.count_nonzero(inter))
                )
                self._cond.remove_pairs(
                    self._cond.dense[removed_s[inter]],
                    self._cond.dense[removed_d[inter]],
                )
            # only an intra-component edge loss can lower a fixed point;
            # a lost self-loop never can (the vertex still reaches itself)
            intra = ~inter & (removed_s != removed_d)
            if intra.any():
                affected = np.unique(self.labels[removed_s[intra]])
                invalidated_mask = np.isin(self.labels, affected)
                split, changed, resolve_v, resolve_e = self._resolve_invalidated(
                    invalidated_mask,
                    affected.size,
                    removed_s[intra],
                    removed_d[intra],
                )
                invalidated = int(np.count_nonzero(invalidated_mask))
            sp.set(split=split, labels_changed=changed)
        self.generation += 1
        report = UpdateReport(
            op="delete",
            generation=self.generation,
            requested=int(s.size),
            deleted=int(s.size),
            invalidated=invalidated,
            resolve_vertices=resolve_v,
            resolve_edges=resolve_e,
            split_components=split,
            labels_changed=changed,
            model_seconds=self.model_seconds() - before,
        )
        self.history.append(report)
        return report

    def apply(
        self,
        *,
        deletions: "tuple | None" = None,
        insertions: "tuple | None" = None,
    ) -> "list[UpdateReport]":
        """Apply one combined batch: deletions first, then insertions.

        The final graph is ``(E \\ deletions) | insertions``; sequential
        composition keeps each phase exact, so labels match a cold solve
        of the final graph.
        """
        reports = []
        if deletions is not None:
            reports.append(self.delete_edges(*deletions))
        if insertions is not None:
            reports.append(self.insert_edges(*insertions))
        return reports

    # ------------------------------------------------------------------
    # checkpoint / restore (repro.faults integration)
    # ------------------------------------------------------------------
    def checkpoint(self) -> DynamicCheckpoint:
        """Snapshot the dynamic state (edges, labels, counters, ledger)."""
        ledger = getattr(self._device, "ledger", None)
        return DynamicCheckpoint(
            generation=self.generation,
            src=self._src.copy(),
            dst=self._dst.copy(),
            labels=self.labels.copy(),
            counters=self._device.counters.copy(),
            ledger_len=len(ledger.records) if ledger is not None else 0,
            history_len=len(self.history),
        )

    def restore(self, ckpt: DynamicCheckpoint) -> None:
        """Roll the handle back to *ckpt* (counter-bit-identical).

        The restore itself is charged to ``counters.notes`` (excluded
        from snapshots by design, as in
        :class:`repro.faults.recovery.CheckpointStore`), so re-executing
        the rolled-back updates recharges the exact same sequence.
        """
        self._src = ckpt.src.copy()
        self._dst = ckpt.dst.copy()
        self.labels = ckpt.labels.copy()
        self._n = self.labels.size  # undoes add_vertices too
        self.generation = ckpt.generation
        del self.history[ckpt.history_len:]
        self._cond = None
        self._device.counters = ckpt.counters.copy()
        ledger = getattr(self._device, "ledger", None)
        if ledger is not None:
            del ledger.records[ckpt.ledger_len:]
        self._device.note("dynamic_restore_bytes", ckpt.nbytes)
        self._tr.counter("recovery:dynamic-restore", generation=ckpt.generation)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _batch_arrays(self, src, dst) -> "tuple[np.ndarray, np.ndarray]":
        s = as_vertex_array(src, "src")
        d = as_vertex_array(dst, "dst")
        if s.shape != d.shape:
            raise GraphFormatError(
                f"src and dst must have equal length, got {s.size} and {d.size}"
            )
        if s.size:
            lo = min(int(s.min()), int(d.min()))
            hi = max(int(s.max()), int(d.max()))
            if lo < 0 or hi >= self._n:
                raise GraphFormatError(
                    f"edge endpoints must lie in [0, {self._n}),"
                    f" found range [{lo}, {hi}]"
                )
        return s, d

    def _remove_batch(
        self, s: np.ndarray, d: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Remove one resident instance per requested pair (strict).

        Modelled as per-deletion adjacency probes (one warp scans the
        source's adjacency list and tombstones the match), so the charge
        is proportional to the probed volume, not the resident edge
        count — batches must not pay O(|E|).
        """
        n = max(self._n, 1)
        resident = self._src.astype(np.int64) * n + self._dst
        requested = s.astype(np.int64) * n + d
        order = np.argsort(resident, kind="stable")
        sorted_keys = resident[order]
        uniq, counts = np.unique(requested, return_counts=True)
        left = np.searchsorted(sorted_keys, uniq, side="left")
        right = np.searchsorted(sorted_keys, uniq, side="right")
        short = (right - left) < counts
        if short.any():
            missing = int(uniq[short][0])
            raise GraphValidationError(
                f"cannot delete edge ({missing // n} -> {missing % n}):"
                " fewer resident instances than requested"
            )
        probed = int(np.count_nonzero(np.isin(self._src, s)))
        charge_update_delete(
            self._device, probed=probed, requested=int(s.size),
        )
        # the k-th duplicate request claims the k-th resident instance
        offsets = np.repeat(left, counts) + ragged_arange(counts)
        remove_idx = order[offsets]
        removed_s = self._src[remove_idx].copy()
        removed_d = self._dst[remove_idx].copy()
        keep = np.ones(self._src.size, dtype=bool)
        keep[remove_idx] = False
        self._src = self._src[keep]
        self._dst = self._dst[keep]
        return removed_s, removed_d

    def _condensation(self) -> _CondCache:
        """The cached condensation (built lazily, updated incrementally).

        The build is one edge-centric pass over the resident edges
        (charged); afterwards insertions/deletions keep it current by
        multiplicity bookkeeping and merge contraction, so steady-state
        batches never pay the O(|E|) rebuild again.
        """
        if self._cond is None:
            with self._tr.span("dynamic-condense", edges=self.num_edges):
                charge_condensation_build(self._device, edges=self.num_edges)
                from ..graph.condensation import compact_labels

                dense = compact_labels(self.labels)
                k = int(dense.max()) + 1 if dense.size else 0
                comp_labels = np.zeros(k, dtype=VERTEX_DTYPE)
                comp_labels[dense] = self.labels
                csrc, cdst = dense[self._src], dense[self._dst]
                inter = csrc != cdst
                keys, counts = np.unique(
                    csrc[inter].astype(np.int64) * k + cdst[inter],
                    return_counts=True,
                )
            self._cond = _CondCache(dense, comp_labels, keys, counts)
        return self._cond

    def _persistent_reach(
        self,
        graph: CSRGraph,
        sources: np.ndarray,
        *,
        active: "np.ndarray | None" = None,
        target: "int | None" = None,
    ) -> "np.ndarray | bool":
        """Worklist reachability closure, persistent-kernel accounting.

        One launch; each BFS level is an in-kernel round (the frontier
        engine's cost discipline — update subproblems are tiny, so
        per-level launches would drown them in launch overhead).  With
        *target* set, returns True/False and the rounds stop at the one
        that reaches the target (early exit); otherwise returns the
        visited mask.  ``active`` restricts the traversal (expanded
        edges into inactive vertices are still inspected, matching
        masked_bfs).

        The host runs the whole closure as one SciPy breadth-first
        search from a virtual root whose out-edges are the sources, then
        replays the rounds from the level structure of the BFS order.
        SciPy's queue discovers each vertex while expanding its
        discoverer, so discoverer positions never decrease along the
        order, and each level ends where the discoverers in the level
        before it run out.
        """
        from scipy.sparse import csr_array
        from scipy.sparse.csgraph import breadth_first_order

        n = graph.num_vertices
        indptr, indices = graph.indptr, graph.indices
        if active is not None:
            sources = sources[active[sources]]
            # an edge into an inactive vertex is inspected, not followed
            followed = active[indices]
            indptr = np.concatenate(([0], np.cumsum(followed)))[indptr]
            indices = indices[followed]
        # the grid never needs more blocks than the worklist can fill:
        # update subproblems are far smaller than the device's resident
        # capacity, and block dispatch is a costed resource
        blocks = min(
            self._device.grid_blocks(persistent=True),
            max(1, -(-n // 512)),
        )
        charge_frontier_launch(self._device, blocks=blocks)
        # vertex n is the virtual root; its row lists the sources, and a
        # duplicate source is discovered once
        m = indices.size
        root_indptr = np.empty(n + 2, dtype=np.int32)
        root_indptr[:-1] = indptr
        root_indptr[-1] = m + sources.size
        root_indices = np.empty(m + sources.size, dtype=np.int32)
        root_indices[:m] = indices
        root_indices[m:] = sources
        order, discoverer = breadth_first_order(
            csr_array(
                (np.ones(root_indices.size), root_indices, root_indptr),
                shape=(n + 1, n + 1),
            ),
            n,
            return_predecessors=True,
        )
        reached = order[1:]
        # positions along the order, the root at -1
        position = np.empty(n + 1, dtype=np.intp)
        position[order] = np.arange(-1, reached.size)
        disc = position[discoverer[reached]].tolist()
        # every out-edge of the full graph, followed or not, is expanded
        degrees = graph.indptr[reached + 1] - graph.indptr[reached]
        expanded = np.concatenate(([0], np.cumsum(degrees))).tolist()
        goal = None
        if target is not None and discoverer[target] >= 0:
            goal = int(position[target])
        # reached[start:end] is the level being expanded; the next level
        # is every vertex after it whose discoverer lies inside it
        start, end = 0, bisect_left(disc, 0)
        if goal is not None and goal < end:
            return True
        while start < end:
            nxt = bisect_left(disc, end, end)
            charge_frontier_round(
                self._device,
                edges=expanded[end] - expanded[start],
                frontier_size=end - start,
                enqueues=nxt - end,
            )
            self._tr.counter("dynamic:reach-round", frontier=end - start)
            if goal is not None and goal < nxt:
                return True
            start, end = end, nxt
        if target is not None:
            return False
        return discoverer[:n] >= 0

    def _merge_inserted(
        self, s: np.ndarray, d: np.ndarray
    ) -> "tuple[int, int, int, int]":
        """Merge labels for inter-component inserted edges.

        Returns ``(merged_components, labels_changed, resolve_vertices,
        resolve_edges)``.
        """
        cache = self._condensation()
        k = cache.num_components
        cs, cd = cache.dense[s], cache.dense[d]
        cache.add_pairs(cs, cd)
        lifted = cache.dag
        # any new cycle lies inside the affected reachability cluster:
        # forward from the inserted heads, backward from the inserted
        # tails *within the forward closure* (exact: a backward path
        # from a forward-reachable vertex stays forward-reachable)
        fwd = self._persistent_reach(lifted, cd)
        back_sources = cs[fwd[cs]]
        if not back_sources.size:
            return 0, 0, 0, 0
        bwd = self._persistent_reach(
            lifted.transpose(), back_sources, active=fwd
        )
        affected = fwd & bwd
        if not affected.any():
            return 0, 0, 0, 0
        cluster = np.flatnonzero(affected)
        new_id = np.full(k, -1, dtype=VERTEX_DTYPE)
        new_id[cluster] = np.arange(cluster.size, dtype=VERTEX_DTYPE)
        # gather the cluster's adjacency (charge: cluster volume, the
        # DAG edges inspected — never the full DAG edge list)
        heads, degrees = lifted.successors(cluster)
        tails = np.repeat(cluster, degrees)
        keep = affected[heads]
        charge_degree_pass(self._device, edges=int(heads.size))
        sub = CSRGraph.from_edges(
            new_id[tails[keep]], new_id[heads[keep]], cluster.size,
        )
        res = ecl_scc(
            sub, options=self._opts, device=self._device,
            backend=self._backend, tracer=self._tr, faults=self._faults,
        )
        merges = int(cluster.size) - int(res.num_sccs)
        if not merges:
            return 0, 0, int(cluster.size), int(sub.num_edges)
        # comps sharing a local SCC merge into its max-label member:
        # component ids rank the labels and cluster ascends, so the
        # local (max-member) label names that member
        roots = np.arange(k, dtype=VERTEX_DTYPE)
        roots[cluster] = cluster[res.labels]
        new_comp_labels = cache.comp_labels[roots]
        changed_comps = np.flatnonzero(new_comp_labels != cache.comp_labels)
        mask = np.isin(cache.dense, changed_comps)
        touched = int(np.count_nonzero(mask))
        self.labels[mask] = new_comp_labels[cache.dense[mask]]
        charge_label_rewrite(
            self._device, self._backend,
            num_vertices=self._n, touched=touched,
        )
        # contract the merged components in the cached condensation
        # (O(dag edges), not O(resident edges))
        charge_condensation_build(self._device, edges=int(lifted.num_edges))
        from ..graph.condensation import compact_labels

        comp_map = compact_labels(roots)
        self._cond = cache.contract(roots, comp_map)
        return merges, touched, int(cluster.size), int(sub.num_edges)

    def _resolve_invalidated(
        self,
        mask: np.ndarray,
        affected_components: int,
        del_src: np.ndarray,
        del_dst: np.ndarray,
    ) -> "tuple[int, int, int, int]":
        """Handle intra-component deletions (the only splitting case).

        Builds the induced subgraph of the affected components (charge
        proportional to their volume, not |E|), then probes each
        deleted edge ``(u, v)`` for a surviving ``u -> v`` replacement
        path.  If every probe succeeds the components are still
        strongly connected — any old witness path re-routes through
        replacement paths, all inside the old component — and labels
        are untouched.  Otherwise the components re-solve with the
        frontier Phase-2 engine seeded from exactly the invalidated
        vertex set (the induced subgraph's iteration-1 invalidation set
        *is* the invalidated set, persisted across queries by the
        maintained labels).  Returns ``(split_components,
        labels_changed, resolve_vertices, resolve_edges)``.
        """
        ids = np.flatnonzero(mask)
        new_id = np.full(self._n, -1, dtype=VERTEX_DTYPE)
        new_id[ids] = np.arange(ids.size, dtype=VERTEX_DTYPE)
        # only same-component edges can witness the surviving cycles;
        # cross-component edges cannot re-merge (they never could).
        # The gather streams the affected components' adjacency volume.
        keep = (
            mask[self._src]
            & mask[self._dst]
            & (self.labels[self._src] == self.labels[self._dst])
        )
        volume = int(np.count_nonzero(mask[self._src]))
        charge_degree_pass(self._device, edges=volume)
        sub = CSRGraph.from_edges(
            new_id[self._src[keep]], new_id[self._dst[keep]], ids.size,
        )
        if del_src.size <= PROBE_LIMIT:
            intact = all(
                self._persistent_reach(
                    sub, new_id[u:u + 1], target=int(new_id[v])
                )
                for u, v in zip(del_src, del_dst)
            )
        else:
            # dense batch: sweep every affected component once from one
            # representative — full forward and backward coverage means
            # every component is still strongly connected (kept edges
            # never cross components, so coverage cannot leak)
            _, reps = np.unique(self.labels[ids], return_index=True)
            intact = bool(self._persistent_reach(sub, reps).all())
            if intact:
                intact = bool(
                    self._persistent_reach(sub.transpose(), reps).all()
                )
        if intact:
            self._tr.counter("dynamic:delete-intact", value=del_src.size)
            return 0, 0, int(ids.size), int(sub.num_edges)
        res = ecl_scc(
            sub, options=self._opts, device=self._device,
            backend=self._backend, tracer=self._tr, faults=self._faults,
        )
        # ids is ascending, so the local max member maps to the
        # original max member: the canonical max-label convention holds
        new_labels = ids[res.labels]
        changed = int(np.count_nonzero(new_labels != self.labels[ids]))
        self.labels[ids] = new_labels
        charge_label_rewrite(
            self._device, self._backend,
            num_vertices=self._n, touched=int(ids.size),
        )
        self._cond = None  # components split: the mapping itself changed
        split = int(res.num_sccs) - int(affected_components)
        return max(split, 0), changed, int(ids.size), int(sub.num_edges)
