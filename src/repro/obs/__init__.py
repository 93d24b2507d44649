"""Unified observability over ``repro.trace``/``repro.profile``/``repro.serve``.

The serve layer (PRs 8-9) makes scheduling decisions whose quality was
only visible as end-of-run totals.  This package turns a run into
*over-time* evidence, all on the **simulated clock**:

* :class:`SeriesRegistry` + :class:`StreamingHistogram`
  (``timeseries``) — counter/gauge time series and log-bucket latency
  sketches with provable quantile error (``sqrt(growth) - 1``);
* :func:`job_timeline` (``timeline``) — every job's decision history
  folded into a contiguous phase decomposition that spans its
  end-to-end latency exactly;
* :class:`ObsRecorder` (``recorder``) — the ``SccService(observer=...)``
  hook that samples the control plane as it runs;
* :func:`export_perfetto` (``perfetto``) — one ``trace.json`` for
  https://ui.perfetto.dev: worker tracks, queue lanes, per-job phase
  lanes, and data-plane kernel spans correlated by job id;
* :class:`SLOSpec` + :func:`evaluate_slo` (``slo``) — declarative
  latency/availability objectives with error-budget burn alerts, wired
  to the ``repro obs slo`` CLI and the ``obs-slo`` CI gate.

Series points and timelines are the trace's own
:class:`~repro.trace.SampleRecord` and :class:`~repro.trace.TimelineRecord`,
so a run's observability data joins a JSONL trace unconverted.

``repro.serve`` never imports this package — the observer hook is
duck-typed — so the control plane stays observability-agnostic.  See
``docs/observability.md`` §10.
"""

from .timeseries import SeriesRegistry, StreamingHistogram
from .timeline import PHASE_OF_DECISION, job_timeline
from .recorder import BREAKER_STATE_LEVELS, ObsRecorder
from .perfetto import dump_perfetto, export_perfetto
from .slo import (
    ObjectiveResult,
    SLObjective,
    SLOReport,
    SLOSpec,
    evaluate_slo,
)

__all__ = [
    "SeriesRegistry",
    "StreamingHistogram",
    "PHASE_OF_DECISION",
    "job_timeline",
    "ObsRecorder",
    "BREAKER_STATE_LEVELS",
    "export_perfetto",
    "dump_perfetto",
    "SLObjective",
    "SLOSpec",
    "ObjectiveResult",
    "SLOReport",
    "evaluate_slo",
]
