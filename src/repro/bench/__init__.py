"""Benchmark harness: timing protocol, throughput metric, experiments."""

from .timing import TimedRun, median_time
from .throughput import geometric_mean, throughput_mvs
from .runners import ALGORITHM_NAMES, RunResult
from .formatting import format_seconds, render_series, render_table
from .export import export_json, to_jsonable
from .experiments import (
    RUNTIME_COLUMNS,
    ExperimentResult,
    ablation_figure,
    expanded_meshes,
    mesh_table_properties,
    powerlaw_table_properties,
    runtime_table,
    throughput_figures,
)

__all__ = [
    "TimedRun",
    "median_time",
    "geometric_mean",
    "throughput_mvs",
    "ALGORITHM_NAMES",
    "RunResult",
    "format_seconds",
    "render_series",
    "render_table",
    "export_json",
    "to_jsonable",
    "RUNTIME_COLUMNS",
    "ExperimentResult",
    "ablation_figure",
    "expanded_meshes",
    "mesh_table_properties",
    "powerlaw_table_properties",
    "runtime_table",
    "throughput_figures",
]
