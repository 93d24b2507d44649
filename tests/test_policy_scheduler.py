"""Round shapes, adaptive scheduler, and decision-log determinism.

The contract under test: each Phase-2 drain round is a dense or a
frontier round (``repro.core.propagation``), the adaptive scheduler
picks the shape each round from backend-invariant statistics
(``repro.engine.scheduler``), labels stay bit-identical to the dense
engine for *any* sequence of shapes, and the decision log replays
exactly across backends, under monotone fault plans, and through
checkpoint/restore.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import solve
from repro.baselines import tarjan_scc
from repro.core import EclOptions, Signatures, VertexFrontier, ecl_scc
from repro.core.propagation import EdgeGrouping, dense_round, frontier_round
from repro.device.executor import VirtualDevice
from repro.device.spec import A100
from repro.engine.scheduler import (
    DENSITY_THRESHOLD,
    LAUNCH_BOUND_RATIO,
    AdaptiveScheduler,
    PolicyDecision,
    RoundStats,
    dense_round_cost,
    frontier_round_cost,
)
from repro.errors import AlgorithmError
from repro.faults import FaultPlan
from repro.graph import cycle_graph, random_gnm, scc_ladder
from repro.trace import Tracer

from .test_relax import multigraphs


# ---------------------------------------------------------------------------
# round-cost forecasts
# ---------------------------------------------------------------------------

class TestPolicyRegistry:
    """Round-cost forecasts of the two round shapes."""

    def test_round_cost_orders_by_density(self):
        """Sparse frontiers favor the frontier round, saturated ones the
        dense sweep — the closed form behind DENSITY_THRESHOLD."""
        ws = 1e9  # out of cache, both sides on raw DRAM bandwidth
        sparse = RoundStats(frontier_size=4, degree_sum=16,
                            worklist_edges=10_000, touched=8_000,
                            num_vertices=5_000, compress=False)
        saturated = RoundStats(frontier_size=5_000, degree_sum=20_000,
                               worklist_edges=10_000, touched=8_000,
                               num_vertices=5_000, compress=False)
        assert frontier_round_cost(sparse, A100, ws) < \
            dense_round_cost(sparse, A100, ws)
        assert dense_round_cost(saturated, A100, ws) < \
            frontier_round_cost(saturated, A100, ws)
        assert 0.0 < DENSITY_THRESHOLD < 1.0


# ---------------------------------------------------------------------------
# fixed-point schedule independence (any per-round mix of shapes)
# ---------------------------------------------------------------------------

def _drain(n, src, dst, schedule, compress):
    """Drive raw drain rounds to a fixed point; return the signatures.

    *schedule* maps the round number to a round function — the
    adversarial version of what the adaptive scheduler does.
    """
    sigs = Signatures.identity(n)
    grouping = EdgeGrouping.build(src, dst)
    frontier = VertexFrontier.seeded(np.arange(n), n)
    dev = VirtualDevice(A100)
    for r in range(3 * n + 16):
        if not frontier.size:
            return sigs
        run_round = schedule(r)
        frontier.advance(run_round(sigs, grouping, frontier, dev, n, compress))
    pytest.fail("no fixed point within the round bound")


@pytest.mark.parametrize("compress", (False, True))
@given(graph=multigraphs(), shapes=st.lists(st.booleans(), min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_any_policy_schedule_reaches_same_fixed_point(compress, graph, shapes):
    """A drawn, repeating per-round sequence of dense and frontier rounds
    converges to the all-dense drain's signatures on multigraphs with
    self-loops and parallel edges — the monotone-join argument the
    adaptive engine's label guarantee rests on."""
    n, src, dst = graph
    ref = _drain(n, src, dst, lambda r: dense_round, compress)
    mixed = _drain(
        n, src, dst,
        lambda r: dense_round if shapes[r % len(shapes)] else frontier_round,
        compress,
    )
    assert np.array_equal(mixed.sig_in, ref.sig_in)
    assert np.array_equal(mixed.sig_out, ref.sig_out)


# ---------------------------------------------------------------------------
# adaptive engine: labels + launch parity + performance gate
# ---------------------------------------------------------------------------

class TestAdaptiveEngine:
    def test_labels_match_tarjan_and_dense(self, all_graphs):
        for g in all_graphs:
            adaptive = ecl_scc(g, options=EclOptions(engine="adaptive"))
            dense = ecl_scc(g, options=EclOptions(engine="async"))
            assert np.array_equal(adaptive.labels, dense.labels)
            assert np.array_equal(adaptive.labels, tarjan_scc(g).labels)

    def test_decision_log_on_result(self):
        g = random_gnm(80, 300, seed=1)
        res = ecl_scc(g, options=EclOptions(engine="adaptive"))
        assert res.decision_log is not None and len(res.decision_log) > 0
        assert all(isinstance(d, PolicyDecision) for d in res.decision_log)
        # static engines carry no log
        assert ecl_scc(g, options=EclOptions(engine="frontier")).decision_log is None

    def test_adaptive_beats_or_matches_static(self):
        """The bench gate's invariant at test scale: adaptive total
        model seconds <= min(dense, frontier) + 2% per workload."""
        for g in (scc_ladder(8), random_gnm(120, 500, seed=3),
                  cycle_graph(65)):
            seconds = {}
            for engine in ("async", "frontier", "adaptive"):
                dev = VirtualDevice(A100)
                ecl_scc(g, options=EclOptions(engine=engine), device=dev)
                seconds[engine] = dev.estimate(
                    g.num_vertices, g.num_edges, signatures=2
                ).total
            best_static = min(seconds["async"], seconds["frontier"])
            assert seconds["adaptive"] <= best_static * 1.02, seconds

    def test_scan_is_charged_device_work(self):
        """The density scan is honest: a scanning decision moves the
        device counters (vertex work + bytes), not just Python state."""
        g = random_gnm(50, 80, seed=0)  # sparse: scheduler keeps scanning
        res = ecl_scc(g, options=EclOptions(engine="adaptive"))
        scanned = [d for d in res.decision_log if d.scanned]
        assert scanned, "expected at least one scanned decision"
        dev = VirtualDevice(A100)
        sched = AdaptiveScheduler(A100, num_vertices=8, num_edges=8)
        before = dev.counters.snapshot()
        sched.decide(
            dev, frontier=np.array([0, 1]),
            degree=np.zeros(8, dtype=np.int64), worklist_edges=8,
            touched=8, num_vertices=8, compress=True, outer=1, round_no=1,
        )
        after = dev.counters.snapshot()
        assert after["vertex_work"] - before["vertex_work"] == 2
        assert after["bytes_moved"] > before["bytes_moved"]
        assert after["kernel_launches"] == before["kernel_launches"]


# ---------------------------------------------------------------------------
# scheduler unit behavior
# ---------------------------------------------------------------------------

class TestSchedulerUnit:
    def _decide(self, sched, dev, *, frontier, round_no=1, recovery=False):
        n = sched.num_vertices
        return sched.decide(
            dev, frontier=frontier,
            degree=np.ones(n, dtype=np.int64),
            worklist_edges=4, touched=4, num_vertices=n, compress=False,
            outer=1, round_no=round_no, recovery=recovery,
        )

    def test_initial_ratio_is_zero_and_first_round_scans(self):
        sched = AdaptiveScheduler(A100, num_vertices=4, num_edges=4)
        assert sched.launch_ratio == 0.0
        dev = VirtualDevice(A100)
        self._decide(sched, dev, frontier=np.array([0, 1]))
        assert sched.decisions[0].scanned

    def test_lock_needs_round_evidence(self):
        """Launch-only tallies must NOT engage lock mode: before the
        first accounted round the ratio is degenerately 1.0."""
        sched = AdaptiveScheduler(A100, num_vertices=4, num_edges=4)
        sched.note_launches(5)
        assert sched.launch_ratio == 1.0
        dev = VirtualDevice(A100)
        self._decide(sched, dev, frontier=np.array([0]))
        assert sched.decisions[-1].scanned  # still scanned: no evidence

    def test_lock_engages_on_launch_bound_evidence(self):
        sched = AdaptiveScheduler(A100, num_vertices=4, num_edges=4)
        sched.note_launches(100)
        sched._round_s = 1e-9  # tiny accounted round: ratio ~ 1.0
        assert sched.launch_ratio >= LAUNCH_BOUND_RATIO
        dev = VirtualDevice(A100)
        shape = self._decide(sched, dev, frontier=np.array([0]))
        assert shape == "frontier"
        assert not sched.decisions[-1].scanned

    def test_recovery_forces_frontier_without_tally_update(self):
        sched = AdaptiveScheduler(A100, num_vertices=4, num_edges=4)
        dev = VirtualDevice(A100)
        before = (sched._launch_s, sched._round_s)
        shape = self._decide(
            sched, dev, frontier=np.array([0, 1]), recovery=True
        )
        assert shape == "frontier"
        rec = sched.decisions[-1]
        assert rec.recovery and rec.scanned is False
        assert rec.degree_sum == 0
        assert rec.density == rec.avg_degree == 0.0
        assert (sched._launch_s, sched._round_s) == before

    def test_account_round_is_snapshot_delta_based(self):
        sched = AdaptiveScheduler(A100, num_vertices=100, num_edges=400)
        dev = VirtualDevice(A100)
        before = dev.counters.snapshot()
        dev.work(edges=400, bytes_per_edge=24, streamed_bytes=400 * 16)
        sched.account_round(before, dev.counters.snapshot())
        assert sched._round_s > 0.0

    def test_snapshot_restore_roundtrip(self):
        sched = AdaptiveScheduler(A100, num_vertices=8, num_edges=8)
        dev = VirtualDevice(A100)
        self._decide(sched, dev, frontier=np.array([0, 1]))
        sched.note_launches(2, blocks=4)
        snap = sched.state_snapshot()
        self._decide(sched, dev, frontier=np.array([2]), round_no=2)
        sched.note_launches(9)
        assert len(sched.decisions) == 2
        sched.restore_state(snap)
        assert len(sched.decisions) == 1
        assert sched.state_snapshot() == snap

    def test_decision_to_dict(self):
        sched = AdaptiveScheduler(A100, num_vertices=8, num_edges=8)
        dev = VirtualDevice(A100)
        self._decide(sched, dev, frontier=np.array([0, 1]))
        d = sched.decisions[0].to_dict()
        assert {"outer", "round", "policy", "frontier_size", "density",
                "avg_degree", "launch_ratio", "scanned",
                "recovery"} <= set(d)


# ---------------------------------------------------------------------------
# decision-log determinism: goldens, backends, faults, checkpoints
# ---------------------------------------------------------------------------

def _flickr():
    from repro.graph.suite import powerlaw_suite

    return powerlaw_suite(names=["flickr"], scale=1 / 32)[0][0]


def _toroid_o0():
    from repro.mesh.suite import small_mesh_suite

    grp = list(small_mesh_suite(names=["toroid-hex"], num_ordinates=1))[0]
    return grp.graphs[0]


def _decision_key(log, *, include_recovery=False):
    return [
        (d.outer, d.round, d.policy, d.scanned)
        for d in log
        if include_recovery or not d.recovery
    ]


#: golden per-round decision log on the flickr stand-in (A100, defaults):
#: dense opener, one locked round, dense while the frontier saturates,
#: then frontier for the long sparse tail and the second iteration.
GOLDEN_FLICKR_DECISIONS = (
    [(1, 1, "dense", True), (1, 2, "frontier", False),
     (1, 3, "dense", True), (1, 4, "dense", True), (1, 5, "dense", True)]
    + [(1, r, "frontier", True) for r in range(6, 28)]
    + [(2, 1, "frontier", True), (2, 2, "frontier", True)]
)

#: the first five flickr decisions in full: a scanned dense opener, a
#: locked frontier round (no scan: zero degree mass), then scanned dense
#: rounds while the frontier saturates.
GOLDEN_FLICKR_HEAD = [
    {"outer": 1, "round": 1, "policy": "dense", "frontier_size": 25651,
     "degree_sum": 615986, "density": 2.0, "avg_degree": 24.01411251023352,
     "launch_ratio": 1.0, "scanned": True, "recovery": False},
    {"outer": 1, "round": 2, "policy": "frontier", "frontier_size": 25535,
     "degree_sum": 0, "density": 0.0, "avg_degree": 0.0,
     "launch_ratio": 0.5839020572164442, "scanned": False, "recovery": False},
    {"outer": 1, "round": 3, "policy": "dense", "frontier_size": 22579,
     "degree_sum": 533446, "density": 1.7320068962606292,
     "avg_degree": 23.625758448115505, "launch_ratio": 0.33085971813688075,
     "scanned": True, "recovery": False},
    {"outer": 1, "round": 4, "policy": "dense", "frontier_size": 13011,
     "degree_sum": 267584, "density": 0.868798966210271,
     "avg_degree": 20.56598263008224, "launch_ratio": 0.275973058087542,
     "scanned": True, "recovery": False},
    {"outer": 1, "round": 5, "policy": "dense", "frontier_size": 21796,
     "degree_sum": 523429, "density": 1.6994834298182102,
     "avg_degree": 24.014910992842722, "launch_ratio": 0.23240306222304072,
     "scanned": True, "recovery": False},
]

#: compact golden for toroid-hex:o0 (289 decisions): the dense opener,
#: the per-policy totals, and the scan/lock split.
GOLDEN_TOROID_SUMMARY = {
    "decisions": 289,
    "first": (1, 1, "dense", True),
    "picks": {"dense": 1, "frontier": 288},
    "scanned": 17,
}


class TestDecisionDeterminism:
    def test_flickr_golden_log_across_backends(self):
        g = _flickr()
        logs = {}
        for backend in ("dense", "frontier"):
            res = solve(
                g, "ecl-scc", device=A100, engine="adaptive", backend=backend
            )
            logs[backend] = _decision_key(res.decision_log)
            head = [d.to_dict() for d in res.decision_log[:5]]
            # floats to 1e-9 relative, as the bench gates compare them
            assert head == [
                {k: pytest.approx(v, rel=1e-9, abs=0.0)
                 if isinstance(v, float) else v for k, v in d.items()}
                for d in GOLDEN_FLICKR_HEAD
            ]
            for d in head:
                assert [type(v) for v in d.values()] == [
                    type(v) for v in GOLDEN_FLICKR_HEAD[0].values()
                ]
        assert logs["dense"] == GOLDEN_FLICKR_DECISIONS
        assert logs["frontier"] == GOLDEN_FLICKR_DECISIONS

    def test_toroid_golden_summary_across_backends(self):
        g = _toroid_o0()
        keys = {}
        for backend in ("dense", "frontier"):
            res = solve(
                g, "ecl-scc", device=A100, engine="adaptive", backend=backend
            )
            key = _decision_key(res.decision_log)
            picks: "dict[str, int]" = {}
            for _, _, policy, _ in key:
                picks[policy] = picks.get(policy, 0) + 1
            assert {
                "decisions": len(key),
                "first": key[0],
                "picks": picks,
                "scanned": sum(1 for k in key if k[3]),
            } == GOLDEN_TOROID_SUMMARY
            keys[backend] = key
        assert keys["dense"] == keys["frontier"]

    def test_monotone_fault_plan_preserves_main_decisions(self):
        """Fault-injected re-propagation (recovery=True decisions) must
        not perturb the main per-round decision sequence."""
        plan = FaultPlan.monotone(seed=5, rate=0.8)
        for g in (scc_ladder(8), random_gnm(60, 220, seed=3), _flickr()):
            clean = solve(g, "ecl-scc", device=A100, engine="adaptive")
            faulted = solve(
                g, "ecl-scc", device=A100, engine="adaptive", faults=plan
            )
            assert np.array_equal(faulted.labels, clean.labels)
            assert _decision_key(faulted.decision_log) == _decision_key(
                clean.decision_log
            )
            recoveries = [d for d in faulted.decision_log if d.recovery]
            if faulted.fault_report.faults_injected:
                assert all(
                    d.policy == "frontier" and d.scanned is False
                    and d.degree_sum == 0
                    and d.density == d.avg_degree == 0.0
                    for d in recoveries
                )

    def test_chaos_crash_restore_replays_decisions(self):
        """A crash-restore truncates the decision log with the counters,
        so the completed run's log matches the fault-free run's exactly
        (bit-identical labels and counters are asserted elsewhere)."""
        g = scc_ladder(10)
        clean = solve(g, "ecl-scc", device=A100, engine="adaptive")
        chaotic = solve(
            g, "ecl-scc", device=A100, engine="adaptive", faults=FaultPlan.chaos(1)
        )
        assert chaotic.fault_report.restores >= 1
        assert np.array_equal(chaotic.labels, clean.labels)
        assert _decision_key(chaotic.decision_log) == _decision_key(
            clean.decision_log
        )

    def test_scheduler_events_in_trace(self):
        g = random_gnm(80, 300, seed=1)
        tr = Tracer()
        res = solve(g, "ecl-scc", device=A100, engine="adaptive", tracer=tr)
        trace = tr.finish()
        picks = sum(
            int(ev.value) for ev in trace.events
            if ev.kind == "counter" and ev.name == "scheduler:pick"
        )
        assert picks == len(res.decision_log)
        # per-policy round attrs land on the phase2 spans
        attrs = [
            s.attrs for s in trace.spans if s.name == "phase2-propagate"
        ]
        assert attrs and any(
            "rounds_dense" in a or "rounds_frontier" in a for a in attrs
        )


# ---------------------------------------------------------------------------
# profile + distributed integration
# ---------------------------------------------------------------------------

def test_profile_folds_scheduler_picks():
    from repro.profile import profile_run

    g = random_gnm(100, 400, seed=2)
    tr = Tracer()
    res = solve(g, "ecl-scc", device=A100, engine="adaptive", tracer=tr)
    tr.finish()
    report = profile_run(res)
    folded: "dict[str, int]" = {}
    for ph in report.phases:
        for policy, count in ph.decisions.items():
            folded[policy] = folded.get(policy, 0) + count
        assert "decisions" in ph.to_dict()
    by_policy: "dict[str, int]" = {}
    for d in res.decision_log:
        by_policy[d.policy] = by_policy.get(d.policy, 0) + 1
    assert folded == by_policy


def test_distributed_adaptive_matches_static_engines():
    from repro.distributed import block_partition, distributed_ecl_scc
    from repro.distributed.cluster import ClusterSpec

    for g in (random_gnm(120, 480, seed=6), cycle_graph(33)):
        part = block_partition(g, 4)
        spec = ClusterSpec(num_ranks=4)
        results = {
            engine: distributed_ecl_scc(g, part, spec, engine=engine)
            for engine in ("dense", "frontier", "adaptive")
        }
        ref = results["dense"]
        for engine, res in results.items():
            assert np.array_equal(res.labels, ref.labels), engine
            assert res.supersteps == ref.supersteps, engine
        tr = Tracer()
        distributed_ecl_scc(g, part, spec, engine="adaptive", tracer=tr)
        trace = tr.finish()
        assert trace.sum_counter("scheduler:pick") > 0


def test_distributed_adaptive_rejects_unknown_engine():
    from repro.distributed import block_partition, distributed_ecl_scc
    from repro.distributed.cluster import ClusterSpec

    g = cycle_graph(8)
    with pytest.raises(AlgorithmError):
        distributed_ecl_scc(
            g, block_partition(g, 2), ClusterSpec(num_ranks=2),
            engine="warp",
        )
