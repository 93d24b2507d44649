"""Tests for the benchmark harness (timing, throughput, runners, render)."""

import numpy as np
import pytest

from repro.bench import (
    RUNTIME_COLUMNS,
    format_seconds,
    geometric_mean,
    median_time,
    render_series,
    render_table,
    runtime_table,
    throughput_figures,
    throughput_mvs,
)
from repro.bench.runners import run_algorithm
from repro.device import A100, XEON_6226R
from repro.errors import AlgorithmError
from repro.graph import cycle_graph, scc_ladder


class TestTiming:
    def test_median_of_fast_runs(self):
        t = median_time(lambda: None, repeats=5)
        assert t.repeats == 5
        assert t.min_s <= t.median_s <= t.max_s

    def test_slow_run_reduces_repeats(self):
        import time

        calls = []
        t = median_time(
            lambda: (calls.append(1), time.sleep(0.02))[0],
            repeats=9,
            slow_threshold_s=0.01,
        )
        assert t.repeats == 3

    def test_very_slow_single_run(self):
        import time

        t = median_time(lambda: time.sleep(0.02), repeats=9, slow_threshold_s=0.001)
        assert t.repeats == 1


class TestThroughput:
    def test_mvs(self):
        assert throughput_mvs(2_000_000, 2.0) == pytest.approx(1.0)

    def test_mvs_invalid(self):
        with pytest.raises(ValueError):
            throughput_mvs(10, 0.0)

    def test_geomean(self):
        assert geometric_mean([1.0, 100.0]) == pytest.approx(10.0)

    def test_geomean_empty(self):
        assert geometric_mean([]) == 0.0

    def test_geomean_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestRunners:
    def test_run_ecl(self):
        g = cycle_graph(50).with_name("c50")
        r = run_algorithm(g, "ecl-scc", A100, verify=True)
        assert r.algorithm == "ecl-scc"
        assert r.device == "A100"
        assert r.graph_name == "c50"
        assert r.num_sccs == 1
        assert r.model_seconds > 0
        assert r.model_throughput_mvs > 0
        assert r.wall is None

    def test_run_with_wall_timing(self):
        g = scc_ladder(20)
        r = run_algorithm(g, "gpu-scc", A100, time_wall=True, repeats=3)
        assert r.wall is not None
        assert r.wall_throughput_mvs > 0

    @pytest.mark.parametrize(
        "algo", ["ecl-scc", "ecl-scc-minmax", "gpu-scc", "ispan", "hong",
                 "fb", "fb-trim", "tarjan", "kosaraju"],
    )
    def test_all_algorithms_run(self, algo):
        g = scc_ladder(8)
        r = run_algorithm(g, algo, XEON_6226R)
        assert r.num_sccs == 8

    def test_unknown_algorithm(self):
        with pytest.raises(AlgorithmError):
            run_algorithm(cycle_graph(3), "dijkstra", A100)

    def test_oracles_serial_cost(self):
        g = cycle_graph(100)
        r = run_algorithm(g, "tarjan", XEON_6226R)
        assert r.counters["serial_work"] > 0


class TestFormatting:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, 2.5], [30, 0.001]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert all(len(l) == len(lines[1]) for l in lines[1:])

    def test_format_seconds(self):
        assert format_seconds(0.0123) == "0.0123"
        assert format_seconds(123.4) == "123.4"
        assert format_seconds(float("nan")) == "-"

    def test_render_series(self):
        out = render_series({"s1": {"a": 1.0, "b": 2.0}}, title="F")
        assert "F" in out and "a:" in out and "s1" in out
        assert out.count("|") == 2

    def test_render_series_nan(self):
        out = render_series({"s": {"x": float("nan")}})
        assert "-" in out


class TestExperimentPlumbing:
    def test_runtime_table_and_figures(self):
        groups = [("ladder", [scc_ladder(16), scc_ladder(16)])]
        cols = (RUNTIME_COLUMNS[1], RUNTIME_COLUMNS[4])  # ECL A100, iSpan Ryzen
        res = runtime_table(groups, table_name="mini", columns=cols)
        assert len(res.rows) == 1
        assert res.rows[0]["ECL-SCC A100"] > 0
        fig = throughput_figures(res, figure_name="figmini", columns=cols)
        assert "geomean" in fig.series["ECL-SCC A100"]
        assert fig.series["ECL-SCC A100"]["ladder"] > 0
