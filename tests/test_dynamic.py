"""Tests for repro.dynamic: incremental SCC maintenance.

The load-bearing contract is *bit-identity*: after any interleaving of
batched insertions, deletions and queries, ``DynamicGraph.labels`` must
equal a cold ECL-SCC solve of the then-current graph exactly — the
max-member labelling is canonical, so equality is array equality, not
partition equivalence.  The hypothesis test drives that contract across
engine x backend and under monotone fault plans.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import CSRGraph, DynamicGraph
from repro.core import ecl_scc
from repro.core.options import EclOptions
from repro.device import A100, VirtualDevice
from repro.dynamic import (
    DynamicCheckpoint,
    EdgeLog,
    UnionFind,
    UpdateReport,
    generate_edge_log,
    replay,
)
from repro.errors import (
    AlgorithmError,
    GraphFormatError,
    GraphValidationError,
    VerificationError,
)
from repro.faults import FaultPlan
from repro.graph import cycle_graph, path_graph, random_gnm
from repro.trace import Tracer


def cold_labels(src, dst, n):
    return ecl_scc(CSRGraph.from_edges(src, dst, n)).labels


# ----------------------------------------------------------------------
# basics: the mutable handle
# ----------------------------------------------------------------------
class TestDynamicGraphBasics:
    def test_query_matches_cold_solve_statically(self):
        g = random_gnm(50, 150, seed=1)
        dg = DynamicGraph(g)
        res = dg.query()
        assert np.array_equal(res.labels, ecl_scc(g).labels)
        assert res.num_sccs == ecl_scc(g).num_sccs

    def test_insert_merges_components(self):
        dg = DynamicGraph(path_graph(3))  # 0 -> 1 -> 2, three SCCs
        assert dg.num_sccs == 3
        report = dg.insert_edges([2], [0])
        assert dg.num_sccs == 1
        assert report.op == "insert"
        assert report.merged_components >= 1
        assert np.array_equal(dg.labels, np.array([2, 2, 2]))

    def test_intra_component_insert_is_noop(self):
        dg = DynamicGraph(cycle_graph(4))
        labels_before = dg.labels.copy()
        report = dg.insert_edges([0], [2])
        assert report.merged_components == 0
        assert report.labels_changed == 0
        assert np.array_equal(dg.labels, labels_before)

    def test_delete_splits_component(self):
        dg = DynamicGraph(cycle_graph(4))
        assert dg.num_sccs == 1
        report = dg.delete_edges([1], [2])
        assert dg.num_sccs == 4
        assert report.op == "delete"
        assert report.split_components >= 1
        assert np.array_equal(dg.labels, np.arange(4))

    def test_redundant_delete_keeps_component(self):
        # 2-cycle plus a chord: deleting the chord cannot split
        dg = DynamicGraph(CSRGraph.from_edges([0, 1, 0], [1, 0, 1], 2))
        report = dg.delete_edges([0], [1])
        assert dg.num_sccs == 1
        assert report.labels_changed == 0

    def test_inter_component_delete_is_label_noop(self):
        dg = DynamicGraph(path_graph(3))
        labels_before = dg.labels.copy()
        report = dg.delete_edges([0], [1])
        assert np.array_equal(dg.labels, labels_before)
        assert report.invalidated == 0

    def test_self_loop_delete_never_splits(self):
        dg = DynamicGraph(CSRGraph.from_edges([0, 0, 1], [0, 1, 0], 2))
        report = dg.delete_edges([0], [0])
        assert dg.num_sccs == 1
        assert report.split_components == 0

    def test_insert_delete_reinsert_no_stale_dag_edge(self):
        # regression (hypothesis): the condensation cache is built lazily
        # during the first inter-component insert; the inserted edges must
        # not be counted twice (once by the build, once by add_pairs), or
        # deleting one later leaves a phantom DAG edge that merges
        # components on the next insert
        dg = DynamicGraph(CSRGraph.from_edges([0], [0], 7))
        dg.insert_edges([6], [0])   # builds the cache during this insert
        dg.delete_edges([6], [0])   # must fully retire the DAG edge
        dg.insert_edges([0], [6])   # 0 -> 6 alone must NOT merge {0, 6}
        assert dg.num_sccs == 7
        cold = ecl_scc(dg.graph())
        assert np.array_equal(dg.labels, cold.labels)

    def test_generation_and_history(self):
        dg = DynamicGraph(cycle_graph(3))
        assert dg.generation == 0
        dg.insert_edges([0], [2])
        dg.delete_edges([0], [2])
        assert dg.generation == 2
        assert [r.op for r in dg.history] == ["insert", "delete"]
        assert all(isinstance(r, UpdateReport) for r in dg.history)
        assert [r.generation for r in dg.history] == [1, 2]

    def test_update_cost_is_charged(self):
        dg = DynamicGraph(cycle_graph(8))
        before = dg.model_seconds()
        dg.insert_edges([0], [4])
        mid = dg.model_seconds()
        dg.delete_edges([0], [4])
        assert before < mid < dg.model_seconds()

    def test_apply_deletions_then_insertions(self):
        dg = DynamicGraph(cycle_graph(4))
        reports = dg.apply(deletions=([1], [2]), insertions=([2], [1]))
        assert [r.op for r in reports] == ["delete", "insert"]
        # 0->1, 2->3->0 survive; 2->1 replaces 1->2: cycle broken
        assert np.array_equal(
            dg.labels, cold_labels([0, 2, 3, 2], [1, 3, 0, 1], 4)
        )

    def test_labels_shortcut_skips_cold_solve(self):
        g = cycle_graph(5)
        known = ecl_scc(g).labels
        dg = DynamicGraph(g, labels=known)
        assert dg.device.counters.kernel_launches == 0
        assert np.array_equal(dg.query().labels, known)

    def test_labels_shortcut_validates_size(self):
        with pytest.raises(GraphValidationError):
            DynamicGraph(cycle_graph(5), labels=np.zeros(3, dtype=np.int64))

    def test_unknown_engine_rejected(self):
        with pytest.raises(AlgorithmError, match="valid choices"):
            DynamicGraph(cycle_graph(3), engine="warp")

    def test_batch_validation(self):
        dg = DynamicGraph(cycle_graph(3))
        with pytest.raises(GraphFormatError, match="equal length"):
            dg.insert_edges([0, 1], [2])
        with pytest.raises(GraphFormatError, match="endpoints"):
            dg.insert_edges([0], [7])
        with pytest.raises(GraphFormatError, match="endpoints"):
            dg.delete_edges([-1], [0])

    def test_add_vertices(self):
        dg = DynamicGraph(cycle_graph(3))
        new = dg.add_vertices(2)
        assert list(new) == [3, 4]
        assert dg.num_vertices == 5
        assert np.array_equal(dg.labels[3:], new)  # own singleton SCCs
        dg.insert_edges([2, 3], [3, 0])  # thread them into the cycle
        assert dg.num_sccs == 2
        assert np.array_equal(
            dg.labels, cold_labels([0, 1, 2, 2, 3], [1, 2, 0, 3, 0], 5)
        )

    def test_graph_snapshot_is_current(self):
        dg = DynamicGraph(path_graph(3))
        dg.insert_edges([2], [0])
        snap = dg.graph()
        assert snap.num_edges == 3
        assert np.array_equal(dg.labels, ecl_scc(snap).labels)


# ----------------------------------------------------------------------
# multiset deletion semantics
# ----------------------------------------------------------------------
class TestMultisetDeletes:
    def test_duplicate_edge_single_delete_keeps_cycle(self):
        dg = DynamicGraph(
            CSRGraph.from_edges([0, 1, 1], [1, 0, 0], 2)  # 1->0 twice
        )
        dg.delete_edges([1], [0])
        assert dg.num_edges == 2
        assert dg.num_sccs == 1  # the second instance still closes it

    def test_deleting_both_instances_splits(self):
        dg = DynamicGraph(CSRGraph.from_edges([0, 1, 1], [1, 0, 0], 2))
        dg.delete_edges([1, 1], [0, 0])
        assert dg.num_edges == 1
        assert dg.num_sccs == 2

    def test_nonresident_delete_raises(self):
        dg = DynamicGraph(cycle_graph(3))
        with pytest.raises(GraphValidationError, match="cannot delete"):
            dg.delete_edges([0], [2])

    def test_overdraw_raises_and_batch_is_atomic(self):
        dg = DynamicGraph(cycle_graph(3))
        with pytest.raises(GraphValidationError):
            dg.delete_edges([0, 0], [1, 1])
        # the failed batch must not have removed the resident instance
        assert dg.num_edges == 3
        assert dg.generation == 0


# ----------------------------------------------------------------------
# randomized interleaving (seeded, non-hypothesis fast path)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_interleaved_updates_stay_bit_identical(seed):
    rng = np.random.default_rng(seed)
    n = 40
    g = random_gnm(n, 120, seed=seed)
    dg = DynamicGraph(g)
    edges = list(zip(*(a.tolist() for a in g.edges())))
    for _ in range(20):
        op = rng.integers(0, 3)
        if op == 0 and len(edges) > 5:
            take = rng.choice(len(edges), size=int(rng.integers(1, 4)),
                              replace=False)
            batch = [edges[i] for i in take]
            for i in sorted(map(int, take), reverse=True):
                edges.pop(i)
            dg.delete_edges([e[0] for e in batch], [e[1] for e in batch])
        elif op == 1:
            k = int(rng.integers(1, 4))
            s = rng.integers(0, n, size=k)
            d = rng.integers(0, n, size=k)
            edges += list(zip(s.tolist(), d.tolist()))
            dg.insert_edges(s, d)
        else:
            dg.query()
        assert np.array_equal(
            dg.labels,
            cold_labels([e[0] for e in edges], [e[1] for e in edges], n),
        )


# ----------------------------------------------------------------------
# the property test: any interleaving, engine x backend, under faults
# ----------------------------------------------------------------------
@st.composite
def update_scripts(draw, max_n=16, max_m=40, max_steps=6):
    """A base digraph plus a script of insert/delete/query steps.

    Deletions are drawn as indices into the resident edge list at
    execution time (modulo its current size), so every delete targets a
    resident edge by construction.
    """
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    steps = []
    for _ in range(draw(st.integers(0, max_steps))):
        kind = draw(st.sampled_from(["insert", "delete", "query"]))
        if kind == "insert":
            k = draw(st.integers(1, 4))
            steps.append((
                "insert",
                draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)),
                draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)),
            ))
        elif kind == "delete":
            k = draw(st.integers(1, 3))
            steps.append((
                "delete",
                draw(st.lists(st.integers(0, 10 ** 6), min_size=k, max_size=k)),
                None,
            ))
        else:
            steps.append(("query", None, None))
    return n, src, dst, steps


@pytest.mark.parametrize(
    "engine,backend,faulted",
    [
        ("frontier", "frontier", False),
        ("frontier", "dense", False),
        ("sync", "dense", False),
        ("async", "frontier", False),
        ("frontier", "frontier", True),
        ("adaptive", "frontier", False),
        ("adaptive", "dense", False),
        ("adaptive", "frontier", True),
    ],
)
@given(script=update_scripts())
@settings(max_examples=25, deadline=None)
def test_property_interleaving_bit_identical(engine, backend, faulted, script):
    n, src, dst, steps = script
    faults = FaultPlan.monotone(7) if faulted else None
    opts = EclOptions(engine=engine)
    dg = DynamicGraph(
        CSRGraph.from_edges(src, dst, n),
        engine=engine, backend=backend, faults=faults,
    )
    edges = list(zip(src, dst))
    for kind, a, b in steps:
        if kind == "insert":
            edges += list(zip(a, b))
            dg.insert_edges(a, b)
        elif kind == "delete":
            if not edges:
                continue
            picks = sorted({i % len(edges) for i in a}, reverse=True)
            batch = [edges[i] for i in picks]
            for i in picks:
                edges.pop(i)
            dg.delete_edges([e[0] for e in batch], [e[1] for e in batch])
        else:
            dg.query()
        cold = ecl_scc(
            CSRGraph.from_edges(
                [e[0] for e in edges], [e[1] for e in edges], n
            ),
            options=opts,
        )
        assert np.array_equal(dg.labels, cold.labels)


# ----------------------------------------------------------------------
# checkpoint / restore
# ----------------------------------------------------------------------
class TestCheckpointRestore:
    def test_restore_rolls_back_state(self):
        dg = DynamicGraph(cycle_graph(5))
        ck = dg.checkpoint()
        assert isinstance(ck, DynamicCheckpoint)
        dg.delete_edges([0], [1])
        dg.insert_edges([0, 2], [3, 0])
        dg.restore(ck)
        assert dg.generation == 0
        assert dg.num_edges == 5
        assert dg.num_sccs == 1
        assert len(dg.history) == 0
        assert np.array_equal(dg.labels, ecl_scc(cycle_graph(5)).labels)

    def test_replay_after_restore_is_counter_identical(self):
        dg = DynamicGraph(random_gnm(30, 90, seed=4), tracer=Tracer())
        ck = dg.checkpoint()
        dg.insert_edges([1, 2], [3, 4])
        dg.delete_edges([1], [3])
        first = dg.device.counters.snapshot()
        dg.restore(ck)
        dg.insert_edges([1, 2], [3, 4])
        dg.delete_edges([1], [3])
        assert dg.device.counters.snapshot() == first

    def test_restore_truncates_ledger(self):
        tr = Tracer()
        dg = DynamicGraph(cycle_graph(6), tracer=tr)
        ck = dg.checkpoint()
        dg.delete_edges([2], [3])
        dg.restore(ck)
        assert len(dg.device.ledger.records) == ck.ledger_len

    def test_checkpoint_nbytes(self):
        dg = DynamicGraph(cycle_graph(4))
        ck = dg.checkpoint()
        assert ck.nbytes == ck.src.nbytes + ck.dst.nbytes + ck.labels.nbytes


# ----------------------------------------------------------------------
# ledger / trace integration
# ----------------------------------------------------------------------
def test_update_kernels_attributed_to_dynamic_spans():
    tr = Tracer()
    dg = DynamicGraph(cycle_graph(8), tracer=tr)
    dg.insert_edges([0], [4])
    dg.delete_edges([0], [4])
    dg.query()
    roots = {r.path[0] for r in tr.trace.launches if r.path}
    assert {"dynamic-cold-solve", "dynamic-insert",
            "dynamic-delete", "dynamic-query"} <= roots


# ----------------------------------------------------------------------
# edge logs and replay
# ----------------------------------------------------------------------
class TestEdgeLog:
    def test_generation_is_deterministic(self):
        g = random_gnm(30, 80, seed=2)
        a = generate_edge_log(g, events=50, seed=11)
        b = generate_edge_log(g, events=50, seed=11)
        for field in ("time", "op", "src", "dst"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        c = generate_edge_log(g, events=50, seed=12)
        assert not (
            np.array_equal(a.op, c.op)
            and np.array_equal(a.src, c.src)
            and np.array_equal(a.dst, c.dst)
        )

    def test_timestamps_nondecreasing_and_validated(self):
        g = random_gnm(20, 40, seed=0)
        log = generate_edge_log(g, events=30, seed=0)
        assert np.all(np.diff(log.time) >= 0)
        with pytest.raises(GraphFormatError, match="nondecreasing"):
            EdgeLog(
                base=g,
                time=np.array([2, 1]), op=np.array([1, 1], dtype=np.int8),
                src=np.array([0, 0]), dst=np.array([1, 1]),
            )
        with pytest.raises(GraphFormatError, match="equal length"):
            EdgeLog(
                base=g,
                time=np.array([1]), op=np.array([1, 1], dtype=np.int8),
                src=np.array([0, 0]), dst=np.array([1, 1]),
            )

    def test_insert_fraction_extremes(self):
        g = random_gnm(20, 40, seed=0)
        all_ins = generate_edge_log(g, events=20, seed=0, insert_fraction=1.0)
        assert np.all(all_ins.op == 1)
        all_del = generate_edge_log(g, events=20, seed=0, insert_fraction=0.0)
        assert np.all(all_del.op == -1)

    def test_batches_cover_the_log(self):
        g = random_gnm(20, 40, seed=0)
        log = generate_edge_log(g, events=25, seed=0)
        spans = list(log.batches(10))
        assert spans == [(0, 10), (10, 20), (20, 25)]
        with pytest.raises(GraphFormatError):
            list(log.batches(0))

    def test_final_graph_matches_event_application(self):
        g = random_gnm(25, 70, seed=3)
        log = generate_edge_log(g, events=40, seed=3)
        final = log.final_graph()
        deltas = int(np.sum(log.op))
        assert final.num_edges == g.num_edges + deltas


class TestReplay:
    def test_replay_verifies_bit_identity(self):
        g = random_gnm(64, 256, seed=5)
        log = generate_edge_log(g, events=40, seed=5)
        result = replay(log, batch_size=8, engine="frontier",
                        device=A100, verify=True)
        assert result.verified
        assert result.num_events == 40
        assert len(result.batches) == 5
        assert result.incremental_seconds > 0
        assert result.recompute_seconds > 0
        final = ecl_scc(log.final_graph())
        assert result.final_num_sccs == final.num_sccs

    def test_replay_under_monotone_faults(self):
        g = random_gnm(40, 140, seed=6)
        log = generate_edge_log(g, events=24, seed=6)
        result = replay(
            log, batch_size=6, engine="frontier", device=A100,
            faults=FaultPlan.monotone(3), verify=True,
        )
        assert result.verified

    def test_net_effect_cancellation(self):
        # an edge inserted then deleted inside one batch must cancel
        g = cycle_graph(4)
        log = EdgeLog(
            base=g,
            time=np.array([1, 2]),
            op=np.array([1, -1], dtype=np.int8),
            src=np.array([0, 0]),
            dst=np.array([2, 2]),
        )
        result = replay(log, batch_size=2, device=A100, verify=True)
        assert result.batches[0].inserts == 1
        assert result.batches[0].deletes == 1
        assert result.final_num_sccs == 1

    def test_speedup_definition(self):
        g = random_gnm(48, 160, seed=8)
        log = generate_edge_log(g, events=20, seed=8)
        result = replay(log, batch_size=5, device=A100)
        assert result.speedup == pytest.approx(
            result.recompute_seconds / result.incremental_seconds
        )


# ----------------------------------------------------------------------
# union-find
# ----------------------------------------------------------------------
class TestUnionFind:
    def test_roots_carry_max_label(self):
        labels = np.array([5, 9, 2, 7])
        uf = UnionFind(labels)
        uf.union(0, 2)
        uf.union(1, 3)
        roots = uf.roots()
        assert labels[roots[0]] == 5 and labels[roots[2]] == 5
        assert labels[roots[1]] == 9 and labels[roots[3]] == 9
        assert uf.merges == 2

    def test_union_is_idempotent(self):
        uf = UnionFind(np.array([1, 2]))
        assert uf.union(0, 1)
        assert not uf.union(0, 1)
        assert uf.merges == 1
