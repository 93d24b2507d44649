"""Tests for the kernel-grain profiling layer (``repro.profile``):
ledger completeness, per-phase attribution summing to the device total,
roofline classification of the paper's performance claims, trace
diffing, schema versioning, and the CLI surface."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import solve
from repro.baselines import fb_scc, gpu_scc, ispan_scc
from repro.core import ecl_scc, minmax_scc
from repro.core.options import EclOptions
from repro.device import A100, XEON_6226R, KernelCounters, VirtualDevice
from repro.device.counters import COUNTER_FIELDS
from repro.distributed import block_partition, distributed_ecl_scc
from repro.distributed.cluster import ClusterSpec
from repro.faults import FaultPlan
from repro.graph import random_gnm, scc_ladder
from repro.profile import (
    CLASSIFICATIONS,
    aggregate_counters,
    attach_ledger,
    attribute_launches,
    build_profile,
    diff_traces,
    profile_cluster,
    profile_run,
    render_cluster_profile,
    render_diff,
    render_profile,
    to_prometheus,
)
from repro.trace import (
    SCHEMA_VERSION,
    LaunchRecord,
    NullTracer,
    Tracer,
    dumps_jsonl,
    loads_jsonl,
    render_summary,
)


def flickr_32():
    from repro.graph.suite import powerlaw_suite

    (g, _), = powerlaw_suite(names=["flickr"], scale=1 / 32)
    return g


# ---------------------------------------------------------------------------
# ledger mechanics
# ---------------------------------------------------------------------------

class TestLedger:
    def test_ledger_covers_every_counter(self):
        g = random_gnm(120, 400, seed=1)
        tr = Tracer()
        res = ecl_scc(g, tracer=tr)
        tr.finish()
        agg = aggregate_counters(res.trace.launches).snapshot()
        assert agg == res.device.counters.snapshot()

    def test_null_tracer_attaches_nothing(self):
        g = scc_ladder(12)
        res = ecl_scc(g, tracer=NullTracer())
        assert res.device.ledger is None
        assert res.trace is None

    def test_tracing_does_not_perturb_counters(self):
        g = random_gnm(90, 300, seed=2)
        tr = Tracer()
        traced = ecl_scc(g, tracer=tr)
        tr.finish()
        untraced = ecl_scc(g)
        assert traced.device.counters.snapshot() == \
            untraced.device.counters.snapshot()

    def test_records_carry_span_paths(self):
        g = scc_ladder(8)
        tr = Tracer()
        res = ecl_scc(g, tracer=tr)
        tr.finish()
        paths = {rec.path for rec in res.trace.launches}
        assert ("outer-iteration", "phase1-init") in paths
        assert ("outer-iteration", "phase2-propagate") in paths
        kinds = {rec.kind for rec in res.trace.launches}
        assert kinds <= {"launch", "work", "serial", "round"}

    def test_launch_paths_are_their_spans_paths(self):
        """Each charge carries the path of the span it names, and a
        charge outside every span carries ``()``."""
        tr = Tracer()
        device = VirtualDevice(A100)
        attach_ledger(device, tr)
        device.launch(vertices=8)  # before any span opens
        with tr.span("solve"):
            ecl_scc(scc_ladder(8), options=EclOptions(engine="adaptive"),
                    device=device, tracer=tr)
        trace = tr.finish()
        spans = {s.span_id: s for s in trace.spans}
        outside = [r for r in trace.launches if r.span_id is None]
        inside = [r for r in trace.launches if r.span_id is not None]
        assert [r.path for r in outside] == [()]
        assert inside
        for rec in inside:
            assert rec.path == spans[rec.span_id].path
        assert ("solve", "outer-iteration", "phase2-propagate") in \
            {r.path for r in inside}

    def test_one_counter_field_list(self):
        assert tuple(KernelCounters().snapshot()) == COUNTER_FIELDS
        fields = tuple(f.name for f in dataclasses.fields(LaunchRecord))
        assert fields[:4] == ("seq", "kind", "path", "span_id")
        assert fields[4:] == COUNTER_FIELDS

    def test_oracle_serial_charge_is_ledgered(self):
        g = scc_ladder(10)
        tr = Tracer()
        rr = solve(g, "tarjan", device=A100, tracer=tr)
        tr.finish()
        agg = aggregate_counters(rr.trace.launches).snapshot()
        assert agg == rr.counters
        assert agg["serial_work"] > 0
        (rec,) = [r for r in rr.trace.launches if r.kind == "serial"]
        assert rec.path[-1] == "serial-oracle"


# ---------------------------------------------------------------------------
# attribution sums to the device estimate
# ---------------------------------------------------------------------------

ENGINES = ("sync", "async", "atomic", "frontier", "adaptive")
BACKENDS = ("dense", "frontier")
DEVICES = (A100, XEON_6226R)


class TestAttributionSum:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.name)
    def test_matrix_sums_to_device_seconds(self, engine, backend, device):
        g = random_gnm(150, 500, seed=5)
        tr = Tracer()
        res = ecl_scc(
            g, options=EclOptions(engine=engine), device=device,
            backend=backend, tracer=tr,
        )
        tr.finish()
        report = profile_run(res)
        assert report.attributed_seconds == pytest.approx(
            report.device_seconds, rel=1e-9
        )
        assert report.device_seconds == res.device.seconds

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 60),
        m=st.integers(0, 200),
        seed=st.integers(0, 2**16),
        engine=st.sampled_from(ENGINES),
        device=st.sampled_from(DEVICES),
    )
    def test_property_attribution_is_exact(self, n, m, seed, engine, device):
        g = random_gnm(n, m, seed=seed)
        tr = Tracer()
        res = ecl_scc(
            g, options=EclOptions(engine=engine), device=device, tracer=tr
        )
        tr.finish()
        report = profile_run(res)
        assert report.attributed_seconds == pytest.approx(
            report.device_seconds, rel=1e-9
        )

    def test_baselines_and_minmax_sum(self):
        g = random_gnm(100, 350, seed=9)
        for fn in (gpu_scc, ispan_scc, fb_scc, minmax_scc):
            tr = Tracer()
            res = fn(g, tracer=tr)
            tr.finish()
            report = profile_run(res)
            assert report.attributed_seconds == pytest.approx(
                report.device_seconds, rel=1e-9
            ), fn.__name__

    def test_faulted_runs_stay_exact(self):
        g = flickr_32()
        for plan in (FaultPlan.monotone(0), FaultPlan.chaos(0)):
            tr = Tracer()
            rr = solve(g, "ecl-scc", device=A100, tracer=tr, faults=plan)
            tr.finish()
            agg = aggregate_counters(rr.trace.launches).snapshot()
            assert agg == rr.counters  # bit-identical through crash/heal
            report = profile_run(rr)
            assert report.attributed_seconds == pytest.approx(
                report.device_seconds, rel=1e-9
            )


# ---------------------------------------------------------------------------
# golden report + the paper's classification claims
# ---------------------------------------------------------------------------

class TestGoldenToroidHex:
    """Pinned ProfileReport for ecl-scc (dense/sync) on toroid-hex:o0."""

    GOLDEN = {
        "outer-iteration/phase1-init": (18, 0, "launch-overhead-bound"),
        "outer-iteration/phase2-propagate": (35, 311, "launch-overhead-bound"),
        "outer-iteration": (18, 0, "launch-overhead-bound"),
        "outer-iteration/phase3-filter": (17, 0, "launch-overhead-bound"),
    }

    def test_golden_report(self):
        from repro.mesh.suite import small_mesh_suite

        grp, = small_mesh_suite(names=["toroid-hex"], num_ordinates=1)
        tr = Tracer()
        rr = solve(grp.graphs[0], "ecl-scc", device=A100, tracer=tr)
        tr.finish()
        report = profile_run(rr)
        got = {
            ph.name: (ph.launches, ph.rounds, ph.classification)
            for ph in report.phases
        }
        assert got == self.GOLDEN
        assert report.binding == "launch-overhead-bound"
        assert report.attributed_seconds == pytest.approx(
            rr.model_seconds, rel=1e-9
        )


class TestPaperClaims:
    """Machine-checked §5 claims: ECL-SCC's Phase 2 is bandwidth-bound on
    power-law graphs; the recursive baselines drown in launch overhead."""

    def test_ecl_phase2_is_irregular_bandwidth_bound(self):
        g = flickr_32()
        tr = Tracer()
        rr = solve(g, "ecl-scc", device=A100, tracer=tr)
        tr.finish()
        report = profile_run(rr)
        phase2 = report.phase("phase2-propagate")
        assert phase2.classification == "irregular-bandwidth-bound"

    def test_fb_and_ispan_are_launch_overhead_bound(self):
        g = flickr_32()
        for algo in ("fb", "ispan"):
            tr = Tracer()
            rr = solve(g, algo, device=A100, tracer=tr)
            tr.finish()
            assert profile_run(rr).binding == "launch-overhead-bound", algo

    def test_serial_oracle_is_serial_bound(self):
        tr = Tracer()
        rr = solve(scc_ladder(20), "tarjan", device=A100, tracer=tr)
        tr.finish()
        assert profile_run(rr).binding == "serial-bound"


# ---------------------------------------------------------------------------
# report exports
# ---------------------------------------------------------------------------

class TestReportExports:
    def make_report(self):
        tr = Tracer()
        res = ecl_scc(scc_ladder(16), tracer=tr)
        tr.finish()
        return profile_run(res)

    def test_json_round_trip(self):
        report = self.make_report()
        payload = json.loads(report.to_json())
        assert payload["device"] == "A100"
        assert payload["binding"] == report.binding
        names = [ph["phase"] for ph in payload["phases"]]
        assert "outer-iteration/phase2-propagate" in names
        total = sum(ph["total_seconds"] for ph in payload["phases"])
        assert total == pytest.approx(payload["device_seconds"], rel=1e-9)

    def test_prometheus_exposition(self):
        text = to_prometheus(self.make_report())
        assert "# TYPE repro_profile_phase_seconds gauge" in text
        assert 'phase="outer-iteration/phase2-propagate"' in text
        assert 'resource="launch"' in text
        assert text.splitlines()[-1].startswith("repro_profile_device_seconds")

    def test_render_mentions_every_phase(self):
        report = self.make_report()
        text = render_profile(report)
        for ph in report.phases:
            assert ph.name in text
        assert "binding:" in text

    def test_phase_lookup(self):
        report = self.make_report()
        assert report.phase("phase1-init").launches > 0
        with pytest.raises(KeyError):
            report.phase("nonexistent-phase")

    def test_classification_vocabulary(self):
        assert set(CLASSIFICATIONS.values()) == {
            "launch-overhead-bound", "irregular-bandwidth-bound",
            "streaming-bound", "atomic-bound", "serial-bound",
            "compute-bound",
        }


# ---------------------------------------------------------------------------
# schema versioning + diffing
# ---------------------------------------------------------------------------

def traced_run(graph, **kwargs):
    tr = Tracer(
        meta={
            "device": "A100",
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
        }
    )
    solve(graph, "ecl-scc", device=A100, tracer=tr, **kwargs)
    return tr.finish()


class TestSchemaAndDiff:
    def test_jsonl_header_declares_schema(self):
        trace = traced_run(scc_ladder(8))
        head = json.loads(dumps_jsonl(trace).splitlines()[0])
        assert head["type"] == "meta"
        assert head["schema"] == SCHEMA_VERSION == 3

    def test_launch_records_round_trip(self):
        trace = traced_run(scc_ladder(8))
        back = loads_jsonl(dumps_jsonl(trace))
        assert back.schema == trace.schema
        assert len(back.launches) == len(trace.launches)
        assert back.launches == trace.launches

    def test_legacy_headerless_trace_is_schema_1(self):
        trace = traced_run(scc_ladder(8))
        body = "\n".join(
            ln for ln in dumps_jsonl(trace).splitlines()
            if json.loads(ln)["type"] != "meta"
        )
        back = loads_jsonl(body)
        assert back.schema == 1
        assert len(back.spans) == len(trace.spans)

    def test_future_schema_is_rejected(self):
        with pytest.raises(ValueError, match="newer than the supported"):
            loads_jsonl('{"type": "meta", "schema": 99, "meta": {}}')

    def test_diff_rejects_mixed_schemas(self):
        a = traced_run(scc_ladder(8))
        b = traced_run(scc_ladder(8))
        b.schema = 1
        with pytest.raises(ValueError, match="mixed trace schema"):
            diff_traces(a, b)

    def test_diff_explains_regression(self):
        base = traced_run(scc_ladder(16))
        new = traced_run(scc_ladder(48))
        diff = diff_traces(base, new)
        assert diff.new_total > diff.base_total
        top = diff.top_regression
        assert top is not None and top.delta > 0
        assert top.phase == "outer-iteration/phase2-propagate"
        assert "bytes_moved" in top.explain()
        text = render_diff(diff)
        assert "top regressed phase" in text
        payload = diff.to_dict()
        assert payload["top_regression"]["phase"] == top.phase

    def test_diff_of_identical_traces_has_no_regression(self):
        base = traced_run(scc_ladder(16))
        new = traced_run(scc_ladder(16))
        diff = diff_traces(base, new)
        assert diff.top_regression is None
        assert "no phase regressed" in render_diff(diff)


# ---------------------------------------------------------------------------
# summary self time
# ---------------------------------------------------------------------------

class TestSummarySelfTime:
    def test_self_time_excludes_children(self):
        import itertools

        counter = itertools.count()
        tr = Tracer(clock=lambda: float(next(counter)))
        with tr.span("outer"):      # t 0..5: total 5
            with tr.span("inner"):  # t 1..2: total 1
                pass
            with tr.span("inner"):  # t 3..4: total 1
                pass
        trace = tr.finish()
        text = render_summary(trace)
        header = next(ln for ln in text.splitlines() if "total" in ln)
        assert "self" in header
        from repro.trace.summary import summarize_spans

        stats = {"/".join(ps.path): ps for ps in summarize_spans(trace)}
        assert stats["outer"].total == 5.0
        assert stats["outer"].self_total == 3.0
        assert stats["outer/inner"].self_total == 2.0


# ---------------------------------------------------------------------------
# cluster profiles
# ---------------------------------------------------------------------------

class TestClusterProfile:
    def test_per_phase_and_straggler_summary(self):
        g = random_gnm(300, 1200, seed=11)
        spec = ClusterSpec(num_ranks=4, stragglers=(1.0, 1.0, 2.5, 1.0))
        res = distributed_ecl_scc(g, block_partition(g, 4), spec)
        prof = profile_cluster(res.cluster)
        assert prof.ranks == 4
        assert set(prof.phases) <= {
            "phase1-init", "phase2-exchange", "phase3-filter",
        }
        assert prof.critical_seconds == pytest.approx(
            sum(ph["seconds"] for ph in prof.phases.values())
        )
        assert prof.imbalance >= 1.0
        assert 0.0 <= prof.idle_fraction < 1.0
        text = render_cluster_profile(prof)
        assert "imbalance" in text and "phase2-exchange" in text

    def test_compute_straggler_is_detected(self):
        # a pure-compute workload so the straggler factor dominates
        from repro.distributed.cluster import VirtualCluster

        spec = ClusterSpec(num_ranks=4, stragglers=(1.0, 1.0, 3.0, 1.0))
        cluster = VirtualCluster(spec)
        for _ in range(5):
            cluster.superstep(np.full(4, 1e6), label="work")
        prof = profile_cluster(cluster)
        assert prof.slowest_rank == 2
        assert prof.stragglers == [2]
        assert prof.imbalance == pytest.approx(2.0)  # 3.0 / mean(1,1,3,1)

    def test_to_dict_is_json_serializable(self):
        g = scc_ladder(12)
        res = distributed_ecl_scc(g, block_partition(g, 2))
        payload = json.loads(json.dumps(profile_cluster(res.cluster).to_dict()))
        assert payload["ranks"] == 2


# ---------------------------------------------------------------------------
# checkpoint/restore keeps ledger and counters aligned
# ---------------------------------------------------------------------------

class TestRecoveryLedger:
    def test_crash_restore_truncates_ledger(self):
        g = flickr_32()
        plan = FaultPlan.monotone(0)
        tr = Tracer()
        faulted = solve(g, "ecl-scc", device=A100, tracer=tr, faults=plan)
        tr.finish()
        clean = solve(g, "ecl-scc", device=A100)
        # the checkpoint charges are extra, but ledger == counters holds
        agg = aggregate_counters(faulted.trace.launches).snapshot()
        assert agg == faulted.counters
        assert np.array_equal(faulted.labels, clean.labels)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestProfileCli:
    def test_profile_table(self, capsys):
        from repro.cli import main

        assert main(["profile", "ladder:16"]) == 0
        out = capsys.readouterr().out
        assert "phase2-propagate" in out
        assert "classification" in out

    def test_profile_json(self, tmp_path, capsys):
        from repro.cli import main

        out_file = tmp_path / "profile.json"
        assert main(["profile", "ladder:16", "--json", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["binding"]
        total = sum(ph["total_seconds"] for ph in payload["phases"])
        assert total == pytest.approx(payload["device_seconds"], rel=1e-9)

    def test_profile_prometheus_stdout(self, capsys):
        from repro.cli import main

        assert main(["profile", "ladder:16", "--prom"]) == 0
        assert "repro_profile_device_seconds" in capsys.readouterr().out

    def test_profile_mesh_workload(self, capsys):
        from repro.cli import main

        assert main(["profile", "mesh:toroid-hex:0"]) == 0
        assert "binding:" in capsys.readouterr().out

    def test_profile_distributed(self, capsys):
        from repro.cli import main

        assert main([
            "profile", "ladder:16", "--ranks", "2",
            "--stragglers", "1.0,1.5",
        ]) == 0
        assert "imbalance" in capsys.readouterr().out

    def test_trace_diff_cli(self, tmp_path, capsys):
        from repro.cli import main

        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for path, rungs in ((a, "16"), (b, "48")):
            assert main([
                "trace", f"ladder:{rungs}", "--jsonl", str(path),
                "--no-summary",
            ]) == 0
        assert main(["trace", "diff", str(a), str(b)]) == 0
        assert "top regressed phase" in capsys.readouterr().out

    def test_trace_diff_needs_two_files(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="exactly two"):
            main(["trace", "diff"])

    def test_smoke_rows_include_profile_counters(self, tmp_path, capsys):
        from repro.cli import main

        out_file = tmp_path / "smoke.json"
        assert main(["bench", "smoke", "--json", str(out_file)]) == 0
        rows = json.loads(out_file.read_text())["results"]
        ecl = [r for r in rows if r["algorithm"] == "ecl-scc"]
        for row in ecl:
            for key in ("bytes_streamed", "global_barriers", "atomics",
                        "rounds"):
                assert key in row, key
            assert "phases" in row
