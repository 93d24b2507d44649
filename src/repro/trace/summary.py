"""Flame-style text summary of a trace.

Spans are aggregated by their *path* (the chain of names from the root),
so the same phase under different parents stays distinct.  Rendering is
an indented tree with call counts and total/self/mean durations (self =
exclusive time, total minus closed children), followed by counter totals
— the per-phase view Figures 5-14 of the paper reason about::

    span                                count       total        self        mean
    outer-iteration                         4   1.23e-03s   1.10e-04s   3.08e-04s
      phase1-init                           4   ...
      phase2-propagate                      4   ...
      phase3-filter                         4   ...
    counters                            count         sum
    relaxation-round                       37          37
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

from .records import COUNTER, Trace

__all__ = ["PathStats", "summarize_spans", "render_summary"]


@dataclass
class PathStats:
    """Aggregated timing of every span sharing one root-to-name path.

    ``self_total`` is the *exclusive* time: ``total`` minus the time
    spent in closed child spans, so a parent phase isn't double-counted
    against the leaves nested in it.
    """

    path: "Tuple[str, ...]"
    count: int = 0
    total: float = 0.0
    self_total: float = 0.0
    attrs_sums: "Dict[str, float]" = field(default_factory=dict)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    @property
    def depth(self) -> int:
        return len(self.path) - 1

    @property
    def name(self) -> str:
        return self.path[-1]


def summarize_spans(trace: Trace) -> "list[PathStats]":
    """Aggregate spans by path, in first-appearance (pre-)order."""
    stats: "dict[Tuple[str, ...], PathStats]" = {}
    for span in trace.spans:
        ps = stats.get(span.path)
        if ps is None:
            ps = stats[span.path] = PathStats(path=span.path)
        ps.count += 1
        if span.closed:
            ps.total += span.duration
            ps.self_total += span.duration
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                ps.attrs_sums[key] = ps.attrs_sums.get(key, 0.0) + value
    # exclusive time: subtract each closed child's duration from its
    # parent's path bucket (a root's or an orphan's ``path[:-1]`` is
    # empty, which names no bucket)
    for span in trace.spans:
        if span.closed:
            parent = stats.get(span.path[:-1])
            if parent is not None:
                parent.self_total -= span.duration
    return list(stats.values())


def _fmt_seconds(s: float) -> str:
    if math.isnan(s):
        return "-"
    return f"{s:.3e}s"


def render_summary(trace: Trace, *, width: int = 40) -> str:
    """Render the aggregated span tree and counter totals as text."""
    lines: "list[str]" = []
    if trace.meta:
        meta = ", ".join(f"{k}={v}" for k, v in sorted(trace.meta.items()))
        lines.append(f"trace: {meta}")
    lines.append(
        f"{len(trace.spans)} spans, {len(trace.events)} events"
    )
    span_stats = summarize_spans(trace)
    if span_stats:
        lines.append(
            f"{'span':<{width}} {'count':>7} {'total':>11}"
            f" {'self':>11} {'mean':>11}"
        )
        for ps in span_stats:
            label = "  " * ps.depth + ps.name
            extra = ""
            if ps.attrs_sums:
                extra = "  [" + ", ".join(
                    f"{k}={v:g}" for k, v in sorted(ps.attrs_sums.items())
                ) + "]"
            lines.append(
                f"{label:<{width}} {ps.count:>7}"
                f" {_fmt_seconds(ps.total):>11} {_fmt_seconds(ps.self_total):>11}"
                f" {_fmt_seconds(ps.mean):>11}{extra}"
            )
    counters: "dict[str, tuple[int, float]]" = {}
    gauges: "dict[str, tuple[int, float]]" = {}
    for e in trace.events:
        table = counters if e.kind == COUNTER else gauges
        count, acc = table.get(e.name, (0, 0.0))
        # counters sum; gauges keep the last observed value
        table[e.name] = (count + 1, acc + e.value if e.kind == COUNTER else e.value)
    if counters:
        lines.append(f"{'counter':<{width}} {'count':>7} {'sum':>11}")
        for name in sorted(counters):
            count, total = counters[name]
            lines.append(f"{name:<{width}} {count:>7} {total:>11g}")
    if gauges:
        lines.append(f"{'gauge':<{width}} {'count':>7} {'last':>11}")
        for name in sorted(gauges):
            count, last = gauges[name]
            lines.append(f"{name:<{width}} {count:>7} {last:>11g}")
    return "\n".join(lines)
