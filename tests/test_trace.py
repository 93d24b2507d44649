"""Tests for the structured tracing subsystem (``repro.trace``):
span nesting, JSONL round-trips, the NullTracer zero-overhead contract,
and the trace-vs-EclResult count invariants."""

import itertools

import numpy as np
import pytest

from repro.baselines import (
    coloring_scc,
    fb_scc,
    fbtrim_scc,
    gpu_scc,
    hong_scc,
    ispan_scc,
    kosaraju_scc,
    multistep_scc,
    tarjan_scc,
)
from repro.bench.runners import run_algorithm
from repro.core import ecl_scc, minmax_scc
from repro.device import A100
from repro.distributed import block_partition, distributed_ecl_scc
from repro.graph import cycle_graph, planted_scc_graph, random_gnm, scc_ladder
from repro.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    dumps_jsonl,
    ensure_tracer,
    load_jsonl,
    loads_jsonl,
    render_summary,
)
from repro.trace.tracer import _NULL_SPAN


def fake_clock():
    """Deterministic clock: 0.0, 1.0, 2.0, ..."""
    counter = itertools.count()
    return lambda: float(next(counter))


class TestSpanNesting:
    def test_nesting_and_ordering(self):
        tr = Tracer(clock=fake_clock())
        with tr.span("outer", index=1):
            with tr.span("a"):
                pass
            with tr.span("b"):
                tr.counter("hits", 2)
        trace = tr.finish()
        outer, a, b = trace.spans
        assert [s.name for s in trace.spans] == ["outer", "a", "b"]
        assert outer.parent_id is None and outer.depth == 0
        assert a.parent_id == outer.span_id and a.depth == 1
        assert b.parent_id == outer.span_id and b.depth == 1
        # deterministic clock: starts/ends are strictly ordered
        assert outer.t_start < a.t_start < a.t_end < b.t_start
        assert b.t_end < outer.t_end
        assert outer.attrs == {"index": 1}
        (ev,) = trace.events
        assert ev.name == "hits" and ev.value == 2.0
        assert ev.span_id == b.span_id

    def test_set_attrs_and_duration(self):
        tr = Tracer(clock=fake_clock())
        with tr.span("p") as sp:
            sp.set(rounds=3).set(edges=10)
        rec = tr.trace.spans[0]
        assert rec.attrs == {"rounds": 3, "edges": 10}
        assert rec.closed and rec.duration == 1.0

    def test_explicit_close(self):
        tr = Tracer(clock=fake_clock())
        h = tr.span("manual")
        assert tr.current_span_id == h.record.span_id
        h.close()
        assert tr.current_span_id is None
        assert h.record.closed
        h.close()  # double close is a no-op
        assert h.record.t_end == 1.0

    def test_finish_closes_open_spans(self):
        tr = Tracer(clock=fake_clock())
        tr.span("left-open")
        trace = tr.finish()
        assert trace.spans[0].closed

    def test_helpers(self):
        tr = Tracer(clock=fake_clock())
        with tr.span("outer"):
            with tr.span("inner"):
                pass
            with tr.span("inner"):
                pass
        trace = tr.finish()
        assert trace.count_spans("inner") == 2
        assert [s.name for s in trace.roots()] == ["outer"]
        kids = trace.children_of(trace.spans[0])
        assert [s.name for s in kids] == ["inner", "inner"]
        assert trace.span_path(trace.spans[1]) == ("outer", "inner")


class TestJsonlRoundTrip:
    def make_trace(self):
        tr = Tracer(clock=fake_clock(), meta={"algo": "test", "n": 5})
        with tr.span("outer", index=np.int64(1)):
            with tr.span("inner", edges=np.int32(7)) as sp:
                tr.counter("work", np.float64(2.5), engine="sync")
                tr.gauge("level", 9, depth=1)
                sp.set(rounds=2)
        tr.span("open-at-dump")  # never closed
        return tr.trace

    def test_round_trip_preserves_everything(self):
        trace = self.make_trace()
        back = loads_jsonl(dumps_jsonl(trace))
        assert back.meta == trace.meta
        assert len(back.spans) == len(trace.spans)
        assert len(back.events) == len(trace.events)
        for orig, rt in zip(trace.spans, back.spans):
            assert (orig.name, orig.span_id, orig.parent_id, orig.depth) == (
                rt.name, rt.span_id, rt.parent_id, rt.depth
            )
            assert orig.attrs == rt.attrs
            assert orig.t_start == rt.t_start
            assert (np.isnan(orig.t_end) and np.isnan(rt.t_end)) or (
                orig.t_end == rt.t_end
            )
        for orig, rt in zip(trace.events, back.events):
            assert (orig.name, orig.kind, orig.value, orig.t, orig.span_id) == (
                rt.name, rt.kind, rt.value, rt.t, rt.span_id
            )
            assert orig.attrs == rt.attrs

    def test_numpy_scalars_serialize_plain(self):
        text = dumps_jsonl(self.make_trace())
        assert "np.int64" not in text and "float64" not in text

    def test_file_round_trip(self, tmp_path):
        from repro.trace import dump_jsonl

        trace = self.make_trace()
        path = tmp_path / "trace.jsonl"
        dump_jsonl(trace, path)
        back = load_jsonl(path)
        assert back.count_spans("inner") == 1
        assert back.sum_counter("work") == 2.5

    def test_summary_renders(self):
        text = render_summary(self.make_trace())
        assert "outer" in text and "inner" in text
        assert "work" in text and "level" in text


class TestNullTracerOverhead:
    def test_null_tracer_never_reads_clock(self):
        # the poisoned clock raises if any disabled path touches it
        tr = NullTracer()
        with tr.span("x", index=1) as sp:
            sp.set(rounds=2)
            tr.counter("c", 5, engine="sync")
            tr.gauge("g", 1.0)
        tr.finish()
        with pytest.raises(AssertionError):
            tr._clock()

    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("x"):
            NULL_TRACER.counter("c")
            NULL_TRACER.gauge("g", 1)
        assert not NULL_TRACER.trace.spans
        assert not NULL_TRACER.trace.events

    def test_shared_span_handle(self):
        # one reusable handle — no allocation per span on the disabled path
        a = NULL_TRACER.span("a")
        b = NULL_TRACER.span("b", attr=1)
        assert a is b is _NULL_SPAN
        assert a.set(x=1) is a and a.record is None
        a.close()

    def test_ensure_tracer(self):
        assert ensure_tracer(None) is NULL_TRACER
        tr = Tracer()
        assert ensure_tracer(tr) is tr
        assert not NULL_TRACER.enabled and tr.enabled

    def test_untraced_runs_have_no_trace(self):
        g = scc_ladder(6)
        assert ecl_scc(g).trace is None
        assert tarjan_scc(g).trace is None
        assert gpu_scc(g).trace is None


class TestEclTraceCounts:
    """The acceptance invariants: span counts equal EclResult counts."""

    @pytest.mark.parametrize("algo", [ecl_scc, minmax_scc])
    def test_phase_spans_match_result_counts(self, algo):
        for g in (
            scc_ladder(12),
            cycle_graph(9),
            planted_scc_graph([4, 1, 6, 2, 5], extra_dag_edges=8, seed=3)[0],
            random_gnm(60, 180, seed=1),
        ):
            tr = Tracer()
            res = algo(g, tracer=tr)
            trace = tr.finish()
            assert res.trace is trace
            assert trace.count_spans("outer-iteration") == res.outer_iterations
            for phase in ("phase1-init", "phase2-propagate", "phase3-filter"):
                assert trace.count_spans(phase) == res.outer_iterations
            assert (
                trace.sum_counter("relaxation-round") == res.propagation_rounds
            )

    def test_phase_spans_nest_in_outer(self):
        tr = Tracer()
        ecl_scc(scc_ladder(8), tracer=tr)
        trace = tr.finish()
        outer_ids = {s.span_id for s in trace.find_spans("outer-iteration")}
        for phase in ("phase1-init", "phase2-propagate", "phase3-filter"):
            for s in trace.find_spans(phase):
                assert s.parent_id in outer_ids

    def test_traced_run_matches_untraced(self):
        g = random_gnm(50, 150, seed=7)
        plain = ecl_scc(g)
        traced = ecl_scc(g, tracer=Tracer())
        assert np.array_equal(plain.labels, traced.labels)
        assert plain.outer_iterations == traced.outer_iterations
        assert plain.propagation_rounds == traced.propagation_rounds

    def test_edge_filter_counters(self):
        tr = Tracer()
        res = ecl_scc(scc_ladder(10), tracer=tr)
        trace = tr.finish()
        kept = trace.sum_counter("edges-kept")
        removed = trace.sum_counter("edges-removed")
        assert kept + removed > 0
        # the last filter pass leaves edges_final edges
        assert removed > 0 or kept == res.edges_final


class TestBaselineTraces:
    BASELINES = [
        (tarjan_scc, "tarjan-dfs"),
        (kosaraju_scc, "kosaraju-pass1"),
        (fb_scc, "fb-task"),
        (fbtrim_scc, "trim"),
        (gpu_scc, "phase1-trim"),
        (ispan_scc, "phase1-trim"),
        (hong_scc, "phase1-trim"),
        (multistep_scc, "step1-trim"),
        (coloring_scc, "outer-iteration"),
    ]

    @pytest.mark.parametrize(
        "fn,span", BASELINES, ids=[f.__name__ for f, _ in BASELINES]
    )
    def test_baseline_emits_spans(self, fn, span):
        g = planted_scc_graph([3, 5, 1, 4], extra_dag_edges=6, seed=0)[0]
        tr = Tracer()
        res = fn(g, tracer=tr)
        trace = tr.finish()
        assert res.trace is trace
        assert trace.count_spans(span) >= 1
        truth = tarjan_scc(g).labels
        assert np.array_equal(res.labels, truth)


class TestDistributedTrace:
    def test_superstep_spans_match_counts(self):
        g = planted_scc_graph([6, 3, 8, 2, 5], extra_dag_edges=12, seed=2)[0]
        part = block_partition(g, 4)
        tr = Tracer()
        res = distributed_ecl_scc(g, part, tracer=tr)
        trace = tr.finish()
        assert res.trace is trace
        assert trace.count_spans("superstep") == res.supersteps
        assert trace.count_spans("outer-iteration") == res.outer_iterations
        kinds = {s.attrs["kind"] for s in trace.find_spans("superstep")}
        assert kinds == {"phase1-init", "phase2-exchange", "phase3-filter"}
        plain = distributed_ecl_scc(g, part)
        assert np.array_equal(plain.labels, res.labels)

    def test_halo_counters_match_cluster(self):
        g = random_gnm(80, 240, seed=5)
        part = block_partition(g, 4)
        tr = Tracer()
        res = distributed_ecl_scc(g, part, tracer=tr)
        total = tr.finish().sum_counter("halo-messages")
        assert total == res.cluster.summary()["total_messages"]


class TestRunAlgorithmTrace:
    def test_run_algorithm_carries_trace(self):
        g = scc_ladder(8)
        tr = Tracer()
        rr = run_algorithm(g, "ecl-scc", A100, tracer=tr)
        assert rr.trace is tr.trace
        assert rr.trace.count_spans("outer-iteration") >= 1

    def test_wall_repeats_run_untraced(self):
        g = scc_ladder(6)
        tr = Tracer()
        rr = run_algorithm(g, "ecl-scc", A100, tracer=tr, time_wall=True, repeats=3)
        # exactly one traced run despite 3 timed repeats
        outer = rr.trace.count_spans("outer-iteration")
        single = ecl_scc(g).outer_iterations
        assert outer == single

    def test_untraced_run_algorithm(self):
        rr = run_algorithm(scc_ladder(5), "tarjan", A100)
        assert rr.trace is None


class TestTraceCli:
    def test_trace_subcommand_counts_match(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.jsonl"
        assert main(["trace", "ladder:16", "--jsonl", str(path)]) == 0
        out = capsys.readouterr().out
        assert "outer-iteration" in out
        trace = load_jsonl(path)
        res = ecl_scc(scc_ladder(16))
        assert trace.count_spans("outer-iteration") == res.outer_iterations
        assert trace.count_spans("phase2-propagate") == res.outer_iterations
        assert trace.sum_counter("relaxation-round") == res.propagation_rounds

    def test_trace_load_mode(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.jsonl"
        assert main(["trace", "cycle:12", "--jsonl", str(path),
                     "--no-summary"]) == 0
        capsys.readouterr()
        assert main(["trace", "--load", str(path)]) == 0
        assert "outer-iteration" in capsys.readouterr().out

    def test_trace_unknown_workload(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["trace", "no-such-workload"])
