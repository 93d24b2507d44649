"""Policy registry, adaptive scheduler, and decision-log determinism.

The PR-7 contract under test: Phase-2 propagation is a per-round policy
choice (``repro.engine.policy``), the adaptive scheduler picks the
policy each round from backend-invariant statistics
(``repro.engine.scheduler``), labels stay bit-identical to the dense
engine for *any* policy schedule, and the decision log replays exactly
across backends, under monotone fault plans, and through
checkpoint/restore.
"""

import numpy as np
import pytest

from repro import solve
from repro.baselines import tarjan_scc
from repro.core import EclOptions, Signatures, ecl_scc
from repro.core.propagation import EdgeGrouping
from repro.device.executor import VirtualDevice
from repro.device.spec import A100
from repro.engine.policy import (
    DEFAULT_POLICIES,
    PropagationPolicy,
    RoundState,
    RoundStats,
    get_policy,
    policy_names,
    register_policy,
)
from repro.engine.primitives import build_vertex_incidence
from repro.engine.scheduler import (
    DENSITY_THRESHOLD,
    LAUNCH_BOUND_RATIO,
    AdaptiveScheduler,
    PolicyDecision,
)
from repro.errors import AlgorithmError
from repro.faults import FaultPlan
from repro.graph import CSRGraph, cycle_graph, random_gnm, scc_ladder
from repro.trace import Tracer


# ---------------------------------------------------------------------------
# registry + direction axis
# ---------------------------------------------------------------------------

class TestPolicyRegistry:
    def test_shipped_policies(self):
        assert set(policy_names()) >= {"dense", "frontier", "dense-push"}
        assert DEFAULT_POLICIES == ("dense", "frontier")

    def test_direction_axis(self):
        assert get_policy("dense").direction == "pull"
        assert get_policy("frontier").direction == "push"
        # dense-push: dense coverage, push direction — the axis is a
        # registration choice, not a driver special case
        assert get_policy("dense-push").direction == "push"

    def test_unknown_policy_raises_listing_registry(self):
        with pytest.raises(AlgorithmError, match="dense"):
            get_policy("warp")

    def test_register_validates(self):
        bad = PropagationPolicy()
        with pytest.raises(AlgorithmError):
            register_policy(bad)
        bad.name = "sideways"
        bad.direction = "diagonal"
        with pytest.raises(AlgorithmError):
            register_policy(bad)

    def test_round_cost_orders_by_density(self):
        """Sparse frontiers favor the frontier policy, saturated ones the
        dense sweep — the closed form behind DENSITY_THRESHOLD."""
        dense, frontier = get_policy("dense"), get_policy("frontier")
        ws = 1e9  # out of cache, both sides on raw DRAM bandwidth
        sparse = RoundStats(frontier_size=4, degree_sum=16,
                            worklist_edges=10_000, touched=8_000,
                            num_vertices=5_000, compress=False)
        saturated = RoundStats(frontier_size=5_000, degree_sum=20_000,
                               worklist_edges=10_000, touched=8_000,
                               num_vertices=5_000, compress=False)
        assert frontier.round_cost(sparse, A100, ws) < \
            dense.round_cost(sparse, A100, ws)
        assert dense.round_cost(saturated, A100, ws) < \
            frontier.round_cost(saturated, A100, ws)
        assert 0.0 < DENSITY_THRESHOLD < 1.0


# ---------------------------------------------------------------------------
# fixed-point schedule independence (any per-round policy mix)
# ---------------------------------------------------------------------------

def _run_policy_schedule(graph: CSRGraph, schedule, *, compress=True):
    """Drive raw policy rounds to a fixed point; return the signatures.

    *schedule* maps the round number to a policy name — the adversarial
    version of what the adaptive scheduler does.
    """
    n = graph.num_vertices
    src, dst = graph.edges()
    sigs = Signatures.identity(n)
    grouping = EdgeGrouping.build(src, dst)
    indptr, edge_ids = build_vertex_incidence(src, dst, n)
    dev = VirtualDevice(A100)
    state = RoundState(
        sigs=sigs, grouping=grouping, indptr=indptr, edge_ids=edge_ids,
        frontier=np.arange(n, dtype=np.int64), num_vertices=n,
        compress=compress,
    )
    for rounds in range(3 * n + 16):
        if not state.frontier.size:
            break
        policy = get_policy(schedule(rounds))
        changed_v = policy.run_round(state, dev)
        state.frontier = np.flatnonzero(changed_v)
    else:
        pytest.fail("no fixed point within the round bound")
    return state.sigs


@pytest.mark.parametrize("compress", (False, True))
def test_any_policy_schedule_reaches_same_fixed_point(compress):
    """dense / frontier / dense-push / alternating mixes all converge to
    bit-identical signatures — the monotone-join argument the adaptive
    engine's label guarantee rests on."""
    schedules = {
        "all-dense": lambda r: "dense",
        "all-frontier": lambda r: "frontier",
        "all-dense-push": lambda r: "dense-push",
        "alternating": lambda r: ("dense", "frontier", "dense-push")[r % 3],
    }
    for g in (cycle_graph(17), scc_ladder(6), random_gnm(60, 240, seed=2)):
        ref = None
        for name, schedule in schedules.items():
            sigs = _run_policy_schedule(g, schedule, compress=compress)
            if ref is None:
                ref = sigs
            else:
                assert np.array_equal(sigs.sig_in, ref.sig_in), name
                assert np.array_equal(sigs.sig_out, ref.sig_out), name


def test_dense_push_labels_through_scheduler():
    """A scheduler restricted to dense-push still yields Tarjan labels
    (the policy is registered but outside DEFAULT_POLICIES)."""
    sched_policies = ("dense-push",)
    for g in (cycle_graph(9), random_gnm(40, 150, seed=4)):
        sched = AdaptiveScheduler(
            A100, num_vertices=g.num_vertices, num_edges=g.num_edges,
            policies=sched_policies,
        )
        assert [p.name for p in sched.policies] == ["dense-push"]
        # full adaptive run restricted via the registry-level check:
        # dense-push rounds mixed into an ecl run stay correct
        sigs = _run_policy_schedule(g, lambda r: "dense-push")
        ref = _run_policy_schedule(g, lambda r: "dense")
        assert np.array_equal(sigs.sig_in, ref.sig_in)


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
            indptr=np.zeros(9, dtype=np.int64), worklist_edges=8,
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
            indptr=np.zeros(n + 1, dtype=np.int64),
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
        decision = self._decide(sched, dev, frontier=np.array([0]))
        assert decision.name == "frontier"
        assert not sched.decisions[-1].scanned

    def test_recovery_forces_frontier_without_tally_update(self):
        sched = AdaptiveScheduler(A100, num_vertices=4, num_edges=4)
        dev = VirtualDevice(A100)
        before = (sched._launch_s, sched._round_s)
        d = self._decide(sched, dev, frontier=np.array([0, 1]), recovery=True)
        assert d.name == "frontier"
        rec = sched.decisions[-1]
        assert rec.recovery and not rec.scanned
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
                    d.policy == "frontier" and not d.scanned
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
