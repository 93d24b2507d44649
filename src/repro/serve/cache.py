"""The generation-keyed solve cache: repeat reads stop re-solving.

Zipf-hot graphs make the control plane re-run the same cold solve over
and over: every ``SOLVE``/``QUERY`` against graph *g* between two
committed updates computes exactly the same labelling.  The
:class:`SolveCache` memoizes that work, keyed by

    ``(graph, generation, engine, backend)``

— the four coordinates that fully determine a read's result.  Labels
are bit-identical across engines and backends by the engine contract,
but the key keeps them separate anyway so a hit can never blur an
accounting boundary (the cached per-run profile is engine-specific).

Semantics:

* **a hit costs nothing.**  The service completes the job from the
  cached labels at zero device cost — no worker slot, no model-seconds,
  no bytes charged (see ``docs/serve.md`` §6 for the share rule that
  covers the *first* execution).
* **generations invalidate, never versions collide.**  A graph's
  committed generation only ever advances, and every entry is keyed by
  the generation it was computed at, so a stale entry can never be
  *served* — invalidation (:meth:`SolveCache.invalidate`) exists to
  reclaim the bytes and keep the "entries never outlive their
  generation" invariant testable.
* **bounded by bytes, evicted LRU.**  Each entry costs its label
  array's bytes (plus a fixed overhead per entry); inserting past
  ``max_bytes`` evicts least-recently-used entries first.  Hits,
  misses, evictions and invalidations are tallied in
  :class:`CacheStats`, so a cache works standalone; the service also
  counts them in :class:`~repro.serve.metrics.ServiceMetrics`, and
  the two agree (``docs/observability.md`` §9).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["SolveCache", "CacheEntry", "DEFAULT_CACHE_BYTES"]

#: default byte budget — generous for the bench-scale graphs, small
#: enough that a large multi-tenant corpus actually exercises eviction.
DEFAULT_CACHE_BYTES = 4 << 20

#: flat per-entry bookkeeping cost added to the label bytes.
ENTRY_OVERHEAD_BYTES = 256


@dataclass
class CacheEntry:
    """One memoized read: the labels at a (graph, generation) point."""

    labels: np.ndarray
    num_sccs: int
    generation: int
    #: ProfileReport dict of the solve that produced the labels (None
    #: for entries populated by a query's label read-out).
    profile: "dict | None" = None
    hits: int = 0

    @property
    def nbytes(self) -> int:
        return int(self.labels.nbytes) + ENTRY_OVERHEAD_BYTES


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    puts: int = 0
    stale_puts: int = 0

    def as_dict(self) -> "dict[str, int]":
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "puts": self.puts,
            "stale_puts": self.stale_puts,
        }


class SolveCache:
    """Bounded LRU of :class:`CacheEntry` under a byte budget."""

    def __init__(self, *, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()
        self.bytes = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    @staticmethod
    def key(
        graph: str,
        generation: int,
        engine: "str | None",
        backend: "str | None",
    ) -> tuple:
        return (graph, int(generation), engine, backend)

    # ------------------------------------------------------------------
    def get(self, key: tuple) -> "CacheEntry | None":
        """LRU lookup; counts a hit on success — call it only to serve.

        The dispatch sweep probes with ``key in cache``, which counts
        nothing, and a ``None`` here is *not* a miss: misses are counted
        once per actual read execution via :meth:`count_miss`.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        entry.hits += 1
        self.stats.hits += 1
        return entry

    def count_miss(self) -> None:
        """Record one read execution that found no usable entry."""
        self.stats.misses += 1

    def put(self, key: tuple, entry: CacheEntry) -> "list[tuple]":
        """Insert (replacing any same-key entry); returns evicted keys.

        An entry larger than the whole budget is refused (counted as a
        ``stale_put`` — it could only ever evict everything for one
        uncacheable result).
        """
        if entry.nbytes > self.max_bytes:
            self.stats.stale_puts += 1
            return []
        old = self._entries.pop(key, None)
        if old is not None:
            self.bytes -= old.nbytes
        self._entries[key] = entry
        self.bytes += entry.nbytes
        self.stats.puts += 1
        evicted: "list[tuple]" = []
        while self.bytes > self.max_bytes:
            victim_key, victim = self._entries.popitem(last=False)
            self.bytes -= victim.nbytes
            self.stats.evictions += 1
            evicted.append(victim_key)
        return evicted

    def invalidate(self, graph: str, current_generation: int) -> int:
        """Drop *graph*'s entries from generations other than *current*.

        Called when a graph's committed generation advances; returns
        the number of entries dropped.  Entries at the (new) current
        generation are kept — they can only exist when a read committed
        against the already-advanced handle, which is exactly the state
        future reads will see.
        """
        stale = [
            k for k, e in self._entries.items()
            if k[0] == graph and e.generation != current_generation
        ]
        for k in stale:
            self.bytes -= self._entries.pop(k).nbytes
            self.stats.invalidations += 1
        return len(stale)

    # ------------------------------------------------------------------
    def entries(self) -> "list[tuple[tuple, CacheEntry]]":
        """Snapshot of (key, entry) pairs in LRU→MRU order."""
        return list(self._entries.items())

    def as_dict(self) -> "dict[str, Any]":
        return {
            "max_bytes": self.max_bytes,
            "bytes": self.bytes,
            "entries": len(self._entries),
            **self.stats.as_dict(),
        }
