"""No reference cycles on the solve, update and serve paths.

Every object these paths create must be freed by reference counting
alone once the caller drops the results.  Cyclic garbage waits for the
collector, so a long update stream or serve run would hold dead graphs
(and report them in its peak memory) between collections.

Method: run the path once to warm imports and module caches, collect,
pause the collector, run the path again and drop what it returned; the
collector must then find nothing to free.
"""

import gc

import pytest

import repro
from repro.bench.runners import ALGORITHM_NAMES
from repro.dynamic.graph import PROBE_LIMIT, DynamicGraph
from repro.graph import CSRGraph, random_gnm
from repro.serve.bench import ServeBenchConfig, run_serve_bench


def cyclic_garbage(path) -> int:
    """Objects the collector frees after a warm, result-dropping *path*."""
    path()
    gc.collect()
    gc.disable()
    try:
        path()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_solve_leaves_no_cycles(algorithm):
    assert cyclic_garbage(
        lambda: repro.solve(random_gnm(40, 120, seed=3), algorithm)
    ) == 0


def _replay():
    # 0 is the hub of a star of 2-cycles; 10-11-12 is a 3-cycle;
    # 13<->14 and 15<->16 are two 2-cycles joined by 14 -> 15
    hub = [(0, i) for i in range(1, 10)] + [(i, 0) for i in range(1, 10)]
    tri = [(10, 11), (11, 12), (12, 10)]
    pairs = [(13, 14), (14, 13), (15, 16), (16, 15), (14, 15)]
    src, dst = zip(*(hub + tri + pairs))
    h = DynamicGraph(CSRGraph.from_edges(src, dst, 17))
    # 16 -> 13 closes a cycle through both 2-cycles: a merge
    merge = h.insert_edges([16], [13])
    # one intra-component deletion: the replacement-path probe fails
    probe = h.delete_edges([10], [11])
    # more than PROBE_LIMIT intra-component deletions: the dense sweep
    # reaches every leaf forward but five no longer reach the hub
    leaves = list(range(1, PROBE_LIMIT + 2))
    sweep = h.delete_edges(leaves, [0] * len(leaves))
    assert len(leaves) > PROBE_LIMIT
    assert merge.merged_components == 1
    assert probe.split_components == 2
    assert sweep.split_components == len(leaves)


def test_dynamic_replay_leaves_no_cycles():
    assert cyclic_garbage(_replay) == 0


def _serve():
    row = run_serve_bench(
        ServeBenchConfig(num_jobs=30, cache_enabled=True, coalesce_enabled=True)
    )
    assert row["cache_hits"] > 0
    assert row["coalesced_reads"] > 0 and row["coalesced_updates"] > 0


def test_serve_bench_leaves_no_cycles():
    assert cyclic_garbage(_serve) == 0
