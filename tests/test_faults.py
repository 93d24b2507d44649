"""Chaos tests for :mod:`repro.faults`.

The matrix the subsystem promises (docs/robustness.md):

* **monotone** plans (stale reads, lost updates, message drops/dups/
  delays) leave the labels bit-identical to a fault-free run on every
  backend and engine — only the cost changes;
* **corrupting** plans (bit-flips, crashes, rank crashes) recover to
  verified-correct labels through checkpoint/restart, bounded retry,
  failover, and verification-guarded self-healing;
* every injected fault and recovery action is visible as a trace event
  and charged to the cost model.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import FaultPlan, ecl_scc
from repro.analysis.verify import fixed_point_offenders
from repro.baselines import tarjan_scc
from repro.bench.runners import run_algorithm
from repro.core import EclOptions
from repro.device import A100, VirtualDevice
from repro.distributed import block_partition, distributed_ecl_scc
from repro.distributed.cluster import ClusterSpec, VirtualCluster
from repro.errors import (
    AlgorithmError,
    DeviceError,
    FaultError,
    FaultPlanError,
    RankLossError,
    ReproError,
)
from repro.faults import (
    CORRUPTING_FAULT_KINDS,
    MONOTONE_FAULT_KINDS,
    CheckpointStore,
    FaultInjector,
    backoff_seconds,
    heal_labels,
)
from repro.graph import CSRGraph, cycle_graph
from repro.graph.generators import random_gnm, scc_ladder
from repro.trace import Tracer

#: the engine x backend grid of the chaos matrix
ENGINES = {
    "sync": dict(async_phase2=False),
    "async": dict(async_phase2=True),
    "atomic": dict(engine="atomic"),
    "frontier": dict(engine="frontier"),
    "adaptive": dict(engine="adaptive"),
}
BACKENDS = ("dense", "frontier")


def matrix_graphs():
    return [scc_ladder(8), random_gnm(40, 120, seed=3), cycle_graph(17)]


# ---------------------------------------------------------------------------
# FaultPlan: validation + serialization
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = FaultPlan.chaos(seed=11)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_dict_roundtrip(self):
        plan = FaultPlan.monotone(seed=4, rate=0.7)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_field_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"seed": 1, "cosmic_ray_rate": 0.5})

    def test_bad_json_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json("not json at all {")
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json("[1, 2]")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(stale_read_rate=1.5),
            dict(message_drop_rate=-0.1),
            dict(victim_fraction=0.0),
            dict(bitflips=-1),
            dict(checkpoint_every=0),
            dict(max_retries=0),
            dict(backoff_base_us=0.0),
            dict(crash_iteration=0),
            dict(rank_crash_rank=-2),
        ],
    )
    def test_invalid_knobs_raise(self, kwargs):
        with pytest.raises(FaultPlanError):
            FaultPlan(**kwargs)

    def test_presets_and_classes(self):
        assert FaultPlan.monotone(3).is_monotone
        assert not FaultPlan.chaos(3).is_monotone
        assert FaultPlan.chaos(3).has_engine_faults
        assert FaultPlan.chaos(3).has_cluster_faults
        assert not set(MONOTONE_FAULT_KINDS) & set(CORRUPTING_FAULT_KINDS)

    def test_seeded_rng_is_deterministic(self):
        plan = FaultPlan.monotone(42)
        assert plan.rng().random() == plan.rng().random()
        assert plan.with_seed(7).seed == 7

    def test_every_preset_json_roundtrips(self):
        from repro.faults import PRESET_PLAN_NAMES, preset_plan

        for name in PRESET_PLAN_NAMES:
            plan = preset_plan(name, seed=13)
            assert FaultPlan.from_json(plan.to_json()) == plan, name
            assert FaultPlan.from_dict(plan.to_dict()) == plan, name

    def test_unknown_preset_rejected(self):
        from repro.faults import preset_plan

        with pytest.raises(FaultPlanError):
            preset_plan("nope", seed=0)

    def test_serve_presets_carry_serve_faults(self):
        from repro.faults import preset_plan

        assert preset_plan("serve-crash", 0).has_serve_faults
        assert preset_plan("serve-delay", 0).has_serve_faults
        assert not FaultPlan(seed=0).has_serve_faults


# ---------------------------------------------------------------------------
# chaos matrix: monotone invariance (fault kind x engine x backend)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_monotone_plan_is_label_invariant(engine, backend):
    opts = EclOptions(**ENGINES[engine])
    plan = FaultPlan.monotone(seed=5, rate=0.8)
    for g in matrix_graphs():
        clean = ecl_scc(g, options=opts, backend=backend)
        tracer = Tracer()
        res = ecl_scc(g, options=opts, backend=backend, faults=plan, tracer=tracer)
        assert np.array_equal(res.labels, clean.labels)
        rep = res.fault_report
        assert rep is not None and rep.plan == plan
        assert res.status == ("recovered" if rep.faults_injected else "clean")
        # every recorded fault is a monotone kind and visible in the trace
        trace = tracer.finish()
        for kind, count in rep.counts.items():
            if kind.startswith("recovery:"):
                continue
            assert kind in MONOTONE_FAULT_KINDS
            assert trace.sum_counter(f"fault:{kind}") == count


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_faults_charge_extra_work(engine, backend):
    g = scc_ladder(8)
    opts = EclOptions(**ENGINES[engine])
    clean = ecl_scc(g, options=opts, backend=backend)
    res = ecl_scc(
        g, options=opts, backend=backend,
        faults=FaultPlan(seed=2, stale_read_rate=1.0, lost_update_rate=1.0),
    )
    assert res.fault_report.faults_injected > 0
    # regressed signatures force re-propagation: strictly more rounds,
    # and the extra rounds hit the device counters
    assert res.propagation_rounds > clean.propagation_rounds
    snap, ref = res.device.counters.snapshot(), clean.device.counters.snapshot()
    assert snap["kernel_launches"] > ref["kernel_launches"]


# ---------------------------------------------------------------------------
# chaos matrix: corrupting plans recover to verified-correct labels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_chaos_plan_recovers_correct_labels(engine, backend):
    g = scc_ladder(10)
    truth = tarjan_scc(g).labels
    opts = EclOptions(**ENGINES[engine])
    tracer = Tracer()
    res = ecl_scc(
        g, options=opts, backend=backend, faults=FaultPlan.chaos(seed=1), tracer=tracer
    )
    assert np.array_equal(res.labels, truth)
    rep = res.fault_report
    assert res.status == "recovered"
    assert rep.checkpoints_saved > 0
    assert rep.restores >= 1          # crash_iteration=2 fired
    assert rep.heal_passes >= 1       # bitflips=2 healed
    trace = tracer.finish()
    assert trace.sum_counter("fault:crash") == 1
    assert trace.sum_counter("recovery:restore") == rep.restores
    assert trace.sum_counter("recovery:checkpoint") == rep.checkpoints_saved
    assert trace.sum_counter("recovery:self-heal") == rep.heal_passes


def test_crash_restore_is_bit_identical():
    """Checkpoint -> crash -> restore reproduces the no-crash run exactly:
    same labels *and* same device counters (wasted work is discarded on
    restore, re-executed work recharges identically)."""
    g = scc_ladder(12)
    crash = FaultPlan(seed=9, crash_iteration=2, checkpoint_every=1)
    no_crash = FaultPlan(seed=9, checkpoint_every=1)
    a = ecl_scc(g, faults=crash)
    b = ecl_scc(g, faults=no_crash)
    assert a.fault_report.restores == 1
    assert b.fault_report.restores == 0
    assert np.array_equal(a.labels, b.labels)
    assert a.device.counters.snapshot() == b.device.counters.snapshot()


def test_checkpoint_cadence_and_charging():
    g = scc_ladder(12)
    sparse = ecl_scc(g, faults=FaultPlan(seed=0, checkpoint_every=3))
    dense = ecl_scc(g, faults=FaultPlan(seed=0, checkpoint_every=1))
    assert 0 < sparse.fault_report.checkpoints_saved
    assert sparse.fault_report.checkpoints_saved < dense.fault_report.checkpoints_saved
    # saves stream the checkpoint image through the device
    assert dense.device.counters.notes["faults:checkpoint_bytes"] > 0


def test_restore_without_checkpoint_raises():
    store = CheckpointStore(cadence=1)
    with pytest.raises(FaultError):
        store.restore(
            labels=np.zeros(4, dtype=np.int64),
            active=np.ones(4, dtype=bool),
            wl=None,
            device=VirtualDevice(A100),
            crashed_at=1,
        )


# ---------------------------------------------------------------------------
# verification guard + self-healing
# ---------------------------------------------------------------------------

def two_scc_graph():
    # {0,1,2} and {3,4} strongly connected, bridge 2 -> 3
    return CSRGraph.from_edges(
        [0, 1, 2, 2, 3, 4], [1, 2, 0, 3, 4, 3], 5
    )


def test_offender_detection_is_exact():
    g = two_scc_graph()
    labels = tarjan_scc(g).labels
    assert fixed_point_offenders(g, labels).size == 0
    corrupt = labels.copy()
    corrupt[0] ^= 1  # flip one bit of vertex 0's label
    offenders = fixed_point_offenders(g, corrupt)
    # vertex 0's entire class is condemned; the other SCC survives
    assert 0 in offenders
    assert set(offenders) <= {0, 1, 2}


def test_heal_labels_repairs_corruption():
    g = two_scc_graph()
    truth = tarjan_scc(g).labels
    corrupt = truth.copy()
    corrupt[1] ^= 2
    healed = heal_labels(g, corrupt, device=VirtualDevice(A100))
    assert np.array_equal(healed, truth)


def test_bitflips_are_healed_end_to_end():
    g = random_gnm(50, 160, seed=7)
    truth = tarjan_scc(g).labels
    res = ecl_scc(g, faults=FaultPlan(seed=3, bitflips=4))
    assert np.array_equal(res.labels, truth)
    assert res.fault_report.healed_vertices > 0


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------

@st.composite
def digraphs(draw, max_n=20, max_m=60):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return CSRGraph.from_edges(src, dst, n)


@given(digraphs(), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_any_monotone_plan_never_changes_labels(g, seed):
    plan = FaultPlan.monotone(seed, rate=0.9)
    assert np.array_equal(
        ecl_scc(g, faults=plan).labels, ecl_scc(g).labels
    )


@given(digraphs(), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_crash_restore_determinism(g, seed):
    """Property form of the bit-identity contract on arbitrary digraphs."""
    a = ecl_scc(g, faults=FaultPlan(seed=seed, crash_iteration=2))
    b = ecl_scc(g, faults=FaultPlan(seed=seed))
    assert np.array_equal(a.labels, b.labels)
    assert a.device.counters.snapshot() == b.device.counters.snapshot()


# ---------------------------------------------------------------------------
# cluster layer: validation, stragglers, retry accounting
# ---------------------------------------------------------------------------

class TestVirtualCluster:
    def test_negative_superstep_rejected(self):
        cluster = VirtualCluster(ClusterSpec(num_ranks=2))
        with pytest.raises(DeviceError):
            cluster.superstep(-1.0)
        with pytest.raises(DeviceError):
            cluster.superstep(1.0, messages=-5)
        with pytest.raises(DeviceError):
            cluster.superstep(1.0, bytes_out=-5)
        assert cluster.supersteps == 0

    def test_straggler_validation(self):
        with pytest.raises(DeviceError):
            ClusterSpec(num_ranks=2, stragglers=(1.0,))
        with pytest.raises(DeviceError):
            ClusterSpec(num_ranks=2, stragglers=(1.0, 0.5))

    def test_stragglers_stretch_critical_path(self):
        fast = VirtualCluster(ClusterSpec(num_ranks=4))
        slow = VirtualCluster(
            ClusterSpec(num_ranks=4, stragglers=(1.0, 1.0, 1.0, 8.0))
        )
        ops = np.full(4, 1e6)
        fast.superstep(ops)
        slow.superstep(ops)
        assert slow.compute_seconds == pytest.approx(8 * fast.compute_seconds)
        assert slow.last_superstep_seconds > fast.last_superstep_seconds

    def test_charge_retry_accounting(self):
        cluster = VirtualCluster(ClusterSpec(num_ranks=2))
        base = cluster.estimated_seconds
        cluster.charge_retry(0.25)
        assert cluster.retry_supersteps == 1
        assert cluster.estimated_seconds == pytest.approx(base + 0.25)
        assert cluster.summary()["backoff_s"] == pytest.approx(0.25)
        with pytest.raises(DeviceError):
            cluster.charge_retry(-1.0)


def test_backoff_is_exponential_with_floor():
    plan = FaultPlan(seed=0, backoff_base_us=100.0)
    waits = [backoff_seconds(plan, k) for k in range(4)]
    assert waits == [pytest.approx(100e-6 * 2**k) for k in range(4)]
    assert backoff_seconds(plan, 0, floor_s=0.5) == 0.5


def test_backoff_without_jitter_is_bit_identical():
    """Regression: plans without jitter (and calls without an rng) keep
    the exact pre-jitter schedule — bit-identical, not approximately."""
    plan = FaultPlan(seed=0, backoff_base_us=50.0)
    jittery = FaultPlan(seed=0, backoff_base_us=50.0, backoff_jitter=0.25)
    for k in range(5):
        exact = plan.backoff_base_us * 1e-6 * 2**k
        assert backoff_seconds(plan, k) == exact
        # an rng on a jitter-free plan changes nothing...
        assert backoff_seconds(plan, k, rng=plan.rng()) == exact
        # ...and a jittery plan without an rng stays deterministic too
        assert backoff_seconds(jittery, k) == exact


def test_backoff_jitter_is_seeded_and_bounded():
    plan = FaultPlan(seed=9, backoff_base_us=50.0, backoff_jitter=0.25)
    a = [backoff_seconds(plan, k, rng=plan.rng()) for k in range(6)]
    b = [backoff_seconds(plan, k, rng=plan.rng()) for k in range(6)]
    assert a == b                       # same seed -> same jitter draws
    for k, wait in enumerate(a):
        base = plan.backoff_base_us * 1e-6 * 2**k
        assert base * 0.75 <= wait <= base * 1.25
    assert any(w != plan.backoff_base_us * 1e-6 * 2**k for k, w in enumerate(a))


# ---------------------------------------------------------------------------
# distributed chaos: message faults, rank crash, failover
# ---------------------------------------------------------------------------

def dist_fixture(num_ranks=4):
    g = random_gnm(60, 200, seed=1)
    return g, block_partition(g, num_ranks)


def test_distributed_message_faults_are_label_invariant():
    g, part = dist_fixture()
    plan = FaultPlan(
        seed=3, message_drop_rate=0.5, message_dup_rate=0.5,
        message_delay_rate=0.5,
    )
    clean = distributed_ecl_scc(g, part)
    tracer = Tracer()
    res = distributed_ecl_scc(g, part, faults=plan, tracer=tracer)
    assert np.array_equal(res.labels, clean.labels)
    rep = res.fault_report
    assert rep.faults_injected > 0
    assert res.status == "recovered"
    # dropped/duplicated messages are charged on top of the real traffic
    assert res.cluster.total_messages > clean.cluster.total_messages
    trace = tracer.finish()
    injected = sum(
        trace.sum_counter(f"fault:{k}")
        for k in ("message-drop", "message-dup", "message-delay")
    )
    assert injected == rep.faults_injected


def test_rank_crash_retries_and_recovers():
    g, part = dist_fixture()
    plan = FaultPlan(seed=0, rank_crash_superstep=2, rank_recover_after=1)
    clean = distributed_ecl_scc(g, part)
    res = distributed_ecl_scc(g, part, faults=plan)
    assert np.array_equal(res.labels, clean.labels)
    rep = res.fault_report
    assert rep.retries >= 1
    assert rep.failovers == 0
    assert res.status == "recovered"
    assert res.cluster.backoff_seconds > 0
    assert res.cluster.retry_supersteps == rep.retries


def test_rank_loss_fails_over_and_degrades():
    g, part = dist_fixture()
    plan = FaultPlan(
        seed=0, rank_crash_superstep=2, rank_crash_rank=1,
        rank_recover_after=10, max_retries=2, failover=True,
    )
    res = distributed_ecl_scc(g, part, faults=plan)
    assert res.status == "degraded"
    assert res.fault_report.failovers == 1
    assert np.array_equal(res.labels, tarjan_scc(g).labels)


def test_rank_loss_without_failover_raises_structured():
    g, part = dist_fixture()
    plan = FaultPlan(
        seed=0, rank_crash_superstep=2, rank_crash_rank=1,
        rank_recover_after=10, max_retries=2, failover=False,
    )
    with pytest.raises(RankLossError) as exc:
        distributed_ecl_scc(g, part, faults=plan)
    err = exc.value
    assert err.rank == 1
    assert err.retries == 2
    assert err.superstep is not None
    assert err.labels is not None and err.labels.size == g.num_vertices
    assert err.fault_report is not None
    assert err.fault_report.retries == 2
    assert isinstance(err, FaultError) and isinstance(err, ReproError)


# ---------------------------------------------------------------------------
# run_algorithm / report plumbing
# ---------------------------------------------------------------------------

def test_run_algorithm_threads_faults():
    g = scc_ladder(6)
    res = run_algorithm(
        g, "ecl-scc", device=A100, faults=FaultPlan.monotone(seed=2), verify=True
    )
    assert res.status in ("clean", "recovered")
    assert res.fault_report is not None


def test_run_algorithm_rejects_faults_for_baselines():
    g = cycle_graph(5)
    with pytest.raises(AlgorithmError):
        run_algorithm(g, "fb", device=A100, faults=FaultPlan.monotone(seed=0))


def test_fault_report_serializes():
    g = scc_ladder(8)
    res = ecl_scc(g, faults=FaultPlan.chaos(seed=1))
    d = res.fault_report.as_dict()
    assert d["plan"] == FaultPlan.chaos(seed=1).to_dict()
    assert d["faults_injected"] == res.fault_report.faults_injected
    assert all(
        set(e) == {"kind", "site", "step", "detail"} for e in d["events"]
    )


def test_event_cap_counts_keep_accumulating():
    plan = FaultPlan(seed=0, stale_read_rate=1.0, max_engine_faults=1000)
    injector = FaultInjector(plan)
    for i in range(400):
        injector._record("stale-read", "engine:phase2", i)
    assert len(injector.report.events) == 256
    assert injector.report.events_dropped == 144
    assert injector.report.counts["stale-read"] == 400
