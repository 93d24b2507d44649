"""Simulated-clock time series: counters, gauges, streaming histograms.

The serve layer's end-of-run numbers (``ServiceMetrics`` totals, a
sorted latency list) answer *what happened*; this module answers *when*.
A :class:`SeriesRegistry` records timestamped samples of named series on
the **simulated clock** — the same clock every service decision is made
on — so queue depth, WIP occupancy, budget burn, cache hit rate and
breaker state become functions of time instead of run totals.

Two sample kinds, mirroring the tracer's event kinds:

* ``counter`` — a cumulative, monotonically non-decreasing total
  (completed jobs, crashes, sheds).  The registry enforces
  monotonicity; a rate is the slope between two samples.
* ``gauge`` — an instantaneous level (queue depth, cache hit rate).

:class:`StreamingHistogram` is the bounded-error quantile sketch that
replaces end-of-run sorted-list percentiles: log-spaced buckets with
growth factor *g* hold counts only, so memory is O(log(max/min)) and
any quantile is answered with relative error at most ``sqrt(g) - 1``
(the reported value is the geometric midpoint of the bucket containing
the nearest-rank order statistic, which lies inside the same bucket).
"""

from __future__ import annotations

import math
from typing import Any

from ..trace.records import SampleRecord

__all__ = ["SeriesRegistry", "StreamingHistogram"]


class SeriesRegistry:
    """Named simulated-time series of counter/gauge samples.

    A series' kind is fixed by its first sample; mixing kinds under one
    name raises ``ValueError`` (a series is either cumulative or
    instantaneous, never both).  Counter series must be non-decreasing.
    """

    def __init__(self) -> None:
        self.samples: "list[SampleRecord]" = []
        self._kinds: "dict[str, str]" = {}
        self._last: "dict[str, SampleRecord]" = {}

    def __len__(self) -> int:
        return len(self.samples)

    def counter(self, series: str, t: float, value: float) -> None:
        """Sample a cumulative total at simulated time *t*."""
        self._record(series, "counter", t, value)

    def gauge(self, series: str, t: float, value: float) -> None:
        """Sample an instantaneous level at simulated time *t*."""
        self._record(series, "gauge", t, value)

    def _record(self, series: str, kind: str, t: float, value: float) -> None:
        known = self._kinds.get(series)
        if known is None:
            self._kinds[series] = kind
        elif known != kind:
            raise ValueError(
                f"series {series!r} is a {known}, cannot record a {kind}"
            )
        prev = self._last.get(series)
        if prev is not None:
            if t < prev.t:
                raise ValueError(
                    f"series {series!r}: time went backwards"
                    f" ({prev.t} -> {t})"
                )
            if kind == "counter" and value < prev.value:
                raise ValueError(
                    f"counter series {series!r} decreased"
                    f" ({prev.value} -> {value})"
                )
            if prev.t == t and prev.value == value:
                return  # duplicate point: event-loop sampling dedup
        sample = SampleRecord(series=series, kind=kind, t=float(t), value=float(value))
        self.samples.append(sample)
        self._last[series] = sample

    # ------------------------------------------------------------------
    def names(self) -> "list[str]":
        return sorted(self._kinds)

    def kind_of(self, series: str) -> "str | None":
        return self._kinds.get(series)

    def series(self, name: str) -> "list[SampleRecord]":
        """All samples of one series, in time order."""
        return [s for s in self.samples if s.series == name]

    def last(self, name: str) -> "SampleRecord | None":
        return self._last.get(name)

    def peak(self, name: str) -> "float | None":
        values = [s.value for s in self.samples if s.series == name]
        return max(values) if values else None

    def as_dict(self) -> "dict[str, Any]":
        """JSON-safe ``{series: {"kind": ..., "points": [[t, v], ...]}}``."""
        out: "dict[str, Any]" = {}
        for name in self.names():
            out[name] = {
                "kind": self._kinds[name],
                "points": [[s.t, s.value] for s in self.series(name)],
            }
        return out


class StreamingHistogram:
    """Log-bucket streaming histogram with bounded-error quantiles.

    Values land in bucket ``i`` when ``growth**i <= value <
    growth**(i+1)``; zeros get their own bucket.  :meth:`quantile`
    returns the geometric midpoint of the bucket holding the
    nearest-rank order statistic ``x_(ceil(q*n))``, so its relative
    error versus that order statistic is at most
    :attr:`quantile_error` ``= sqrt(growth) - 1``, and its absolute
    error at most one bucket width — regardless of how many values
    streamed through.
    """

    def __init__(self, growth: float = 1.04) -> None:
        if not growth > 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        self.growth = float(growth)
        self._log_growth = math.log(self.growth)
        self.counts: "dict[int, int]" = {}
        self.zeros = 0
        self.total = 0
        self.min: "float | None" = None
        self.max: "float | None" = None

    def __len__(self) -> int:
        return self.total

    def observe(self, value: float) -> None:
        """Stream one non-negative value into the sketch."""
        value = float(value)
        if not value >= 0.0:
            raise ValueError(f"histogram values must be >= 0, got {value}")
        self.total += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if value == 0.0:
            self.zeros += 1
            return
        idx = self._bucket_of(value)
        self.counts[idx] = self.counts.get(idx, 0) + 1

    def _bucket_of(self, value: float) -> int:
        idx = math.floor(math.log(value) / self._log_growth)
        # float-boundary repair: guarantee growth**idx <= value
        if self.growth ** idx > value:
            idx -= 1
        elif self.growth ** (idx + 1) <= value:
            idx += 1
        return idx

    def bucket_bounds(self, value: float) -> "tuple[float, float]":
        """``[lo, hi)`` of the bucket *value* lands in (0-bucket: (0, 0))."""
        if value == 0.0:
            return (0.0, 0.0)
        idx = self._bucket_of(value)
        return (self.growth ** idx, self.growth ** (idx + 1))

    def bucket_width(self, value: float) -> float:
        """Width of the bucket containing *value* (0 for the 0-bucket)."""
        lo, hi = self.bucket_bounds(value)
        return hi - lo

    @property
    def quantile_error(self) -> float:
        """Max relative error of any reported quantile: ``sqrt(g) - 1``."""
        return math.sqrt(self.growth) - 1.0

    def quantile(self, q: float) -> "float | None":
        """Bounded-error estimate of the *q*-quantile (None when empty).

        Targets the nearest-rank order statistic ``x_(r)``,
        ``r = ceil(q * n)`` clamped to ``[1, n]``; the estimate is the
        geometric midpoint of the bucket containing ``x_(r)``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.total == 0:
            return None
        rank = max(1, min(self.total, math.ceil(q * self.total)))
        if rank <= self.zeros:
            return 0.0
        cum = self.zeros
        for idx in sorted(self.counts):
            cum += self.counts[idx]
            if cum >= rank:
                return self.growth ** (idx + 0.5)
        # unreachable: cum == total >= rank by the clamp
        raise AssertionError("rank exceeded total")  # pragma: no cover

    def as_dict(self) -> "dict[str, Any]":
        return {
            "growth": self.growth,
            "total": self.total,
            "zeros": self.zeros,
            "min": self.min,
            "max": self.max,
            "quantile_error": self.quantile_error,
            "buckets": {str(i): self.counts[i] for i in sorted(self.counts)},
        }
