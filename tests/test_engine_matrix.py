"""Systematic engine-equivalence matrices.

Every Phase-2 engine (sync / async / atomic / frontier) under every
combination of path compression and persistent threads must produce
identical labels on a shared corpus — the strongest regression net for
the propagation code.

The backend x algorithm matrix below extends the net across the shared
``repro.engine`` primitive layer: every algorithm must produce Tarjan's
labels under every registered accounting backend, and under the default
dense backend the kernel-launch counts must stay bit-identical to the
golden counts captured on the pre-engine tree (an A100 run over the same
corpus) — any accidental change to the accounting shows up here.
"""

import itertools

import numpy as np
import pytest

from repro.baselines import tarjan_scc
from repro.bench.runners import _execute
from repro.core import EclOptions, ecl_scc
from repro.device.spec import A100
from repro.engine import backend_names
from repro.graph import permute_random, cycle_graph

ENGINES = ("sync", "async", "atomic", "frontier", "adaptive")
FLAGS = list(itertools.product((False, True), repeat=2))  # compression, persistent


def make_options(engine: str, compression: bool, persistent: bool) -> EclOptions:
    return EclOptions(
        engine=engine,
        path_compression=compression,
        persistent_threads=persistent,
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("compression,persistent", FLAGS)
def test_engine_matrix_labels(engine, compression, persistent, all_graphs):
    opts = make_options(engine, compression, persistent)
    for g in all_graphs:
        res = ecl_scc(g, options=opts)
        assert np.array_equal(res.labels, tarjan_scc(g).labels), (
            engine, compression, persistent, g,
        )


@pytest.mark.parametrize("engine", ENGINES)
def test_engines_with_randomized_ids(engine, random_graphs):
    opts = make_options(engine, True, True)
    for g in random_graphs[:6]:
        res = ecl_scc(g, options=opts, randomize_ids=True, seed=3)
        assert np.array_equal(res.labels, tarjan_scc(g).labels)


# kernel-launch counts per (algorithm, corpus graph) captured before the
# engine refactor (A100; corpus = corpus_small() + corpus_random())
GOLDEN_LAUNCHES = {
    "ecl-scc": [0, 2, 2, 4, 5, 7, 5, 5, 5, 5, 7, 5, 10, 7, 15, 10, 12, 12,
                12, 10, 12, 12, 12, 10, 10, 12, 10],
    "ecl-scc-minmax": [0, 2, 2, 4, 5, 5, 5, 5, 6, 20, 14, 5, 16, 13, 21, 18,
                       20, 14, 14, 23, 18, 15, 19, 17, 17, 14, 17],
    "gpu-scc": [0, 4, 4, 6, 8, 4, 8, 8, 10, 38, 12, 8, 55, 10, 38, 36, 54,
                25, 65, 23, 61, 24, 54, 30, 50, 25, 55],
    "ispan": [0, 4, 4, 5, 7, 4, 7, 7, 9, 37, 12, 7, 55, 10, 38, 31, 54, 24,
              65, 22, 56, 23, 54, 29, 50, 24, 55],
    "hong": [0, 4, 4, 8, 6, 4, 10, 10, 12, 40, 12, 10, 52, 10, 38, 36, 52,
             27, 61, 25, 59, 26, 54, 40, 57, 27, 55],
    "multistep": [0, 4, 4, 8, 6, 4, 10, 10, 12, 40, 12, 10, 20, 10, 26, 34,
                  35, 27, 36, 25, 31, 26, 42, 31, 39, 27, 42],
    "coloring": [0, 3, 3, 3, 5, 3, 5, 5, 7, 35, 3, 5, 5, 3, 13, 25, 24, 23,
                 25, 28, 20, 23, 31, 23, 18, 25, 33],
    "fb": [0, 0, 12, 0, 5, 4, 5, 5, 7, 35, 60, 5, 50, 85, 34, 38, 48, 32,
           49, 59, 49, 37, 45, 49, 54, 43, 51],
    "fb-trim": [0, 5, 5, 7, 7, 5, 9, 9, 11, 39, 13, 9, 64, 11, 32, 35, 42,
                26, 44, 23, 49, 28, 57, 38, 46, 28, 44],
}


# frontier-engine launch counts on the same corpus (A100, dense
# backend): one fused compaction(+re-init) launch plus one drain launch
# per non-empty Phase 2 — element-wise at or below the dense ecl-scc
# golden counts above, which is the engine's whole point
GOLDEN_FRONTIER_LAUNCHES = [0, 2, 2, 4, 4, 6, 4, 4, 4, 4, 6, 4, 8, 6, 12,
                            8, 10, 10, 10, 8, 10, 10, 10, 8, 8, 10, 8]


@pytest.mark.parametrize("engine", ("frontier", "adaptive"))
def test_frontier_golden_launches(engine, all_graphs):
    """Frontier AND adaptive reproduce the frontier golden launch counts.

    The adaptive engine's launch parity is structural: dense rounds are
    in-kernel work inside the drain (no extra launch), and the density
    scan is charged as work, so whichever policies the scheduler picks,
    the launch count equals the static frontier engine's exactly.
    """
    from repro.device.executor import VirtualDevice

    assert len(GOLDEN_FRONTIER_LAUNCHES) == len(all_graphs)
    opts = EclOptions(engine=engine)
    for i, g in enumerate(all_graphs):
        dev = VirtualDevice(A100)
        res = ecl_scc(g, options=opts, device=dev)
        launches = res.device.counters.kernel_launches
        assert launches == GOLDEN_FRONTIER_LAUNCHES[i], (i, launches)
        assert launches <= GOLDEN_LAUNCHES["ecl-scc"][i], i


# full KernelCounters.snapshot() of the frontier and adaptive engines on
# the same corpus (A100, dense backend), one tuple per graph in
# COUNTER_FIELDS order, captured while the two engines still had
# separate drains.  Launch counts alone miss work charged without a
# launch, such as a scheduler density scan paid by mistake.
COUNTER_FIELDS = (
    "kernel_launches",
    "global_barriers",
    "edge_work",
    "vertex_work",
    "bytes_moved",
    "atomics",
    "serial_work",
    "rounds",
    "blocks_scheduled",
    "bytes_streamed",
)
GOLDEN_FRONTIER_COUNTERS = {
    "frontier": [
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        (2, 2, 0, 2, 32, 0, 0, 0, 2, 0),
        (2, 2, 0, 10, 160, 0, 0, 0, 2, 0),
        (4, 4, 2, 6, 152, 1, 0, 1, 4, 40),
        (4, 4, 6, 20, 512, 3, 0, 2, 4, 88),
        (6, 6, 3, 16, 344, 3, 0, 2, 6, 72),
        (4, 4, 9, 28, 744, 3, 0, 2, 4, 104),
        (4, 4, 11, 32, 872, 3, 0, 2, 4, 120),
        (4, 4, 11, 38, 976, 6, 0, 3, 4, 144),
        (4, 4, 87, 314, 8096, 60, 0, 9, 4, 1024),
        (6, 6, 30, 124, 2984, 23, 0, 3, 6, 456),
        (4, 4, 60, 170, 4760, 9, 0, 2, 4, 472),
        (8, 8, 93, 312, 8088, 56, 0, 5, 8, 1184),
        (6, 6, 118, 428, 10912, 53, 0, 3, 6, 1240),
        (12, 12, 260, 842, 22360, 110, 0, 9, 12, 2400),
        (8, 8, 463, 1596, 41752, 130, 0, 7, 8, 3936),
        (10, 10, 289, 1032, 26616, 99, 0, 9, 10, 2512),
        (10, 10, 673, 2468, 63512, 187, 0, 9, 10, 5184),
        (10, 10, 274, 968, 24976, 95, 0, 8, 10, 2488),
        (8, 8, 1231, 4040, 108424, 447, 0, 8, 8, 9024),
        (10, 10, 324, 1120, 29216, 122, 0, 8, 10, 2784),
        (10, 10, 1706, 5780, 153744, 633, 0, 9, 10, 11752),
        (10, 10, 353, 1208, 31672, 138, 0, 9, 10, 2968),
        (8, 8, 969, 3300, 86696, 260, 0, 7, 8, 8192),
        (8, 8, 319, 1036, 27608, 125, 0, 7, 8, 2856),
        (10, 10, 1264, 4588, 118496, 334, 0, 7, 10, 9552),
        (8, 8, 333, 1108, 29384, 125, 0, 10, 8, 2824),
    ],
    "adaptive": [
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        (2, 2, 0, 2, 32, 0, 0, 0, 2, 0),
        (2, 2, 0, 10, 160, 0, 0, 0, 2, 0),
        (4, 4, 2, 5, 112, 1, 0, 1, 4, 48),
        (4, 4, 6, 18, 432, 3, 0, 2, 4, 104),
        (6, 6, 3, 18, 344, 3, 0, 2, 6, 72),
        (4, 4, 9, 22, 584, 3, 0, 2, 4, 136),
        (4, 4, 11, 22, 632, 3, 0, 2, 4, 168),
        (4, 4, 11, 35, 856, 6, 0, 3, 4, 168),
        (4, 4, 87, 297, 7416, 60, 0, 9, 4, 1160),
        (6, 6, 30, 119, 2704, 23, 0, 3, 6, 512),
        (4, 4, 60, 105, 3360, 9, 0, 2, 4, 752),
        (8, 8, 93, 280, 7208, 56, 0, 5, 8, 1360),
        (6, 6, 118, 364, 9232, 53, 0, 3, 6, 1576),
        (12, 12, 260, 751, 20240, 110, 0, 9, 12, 2824),
        (8, 8, 463, 1314, 35328, 130, 0, 7, 8, 5224),
        (10, 10, 289, 896, 23416, 99, 0, 9, 10, 3152),
        (10, 10, 673, 2098, 55112, 187, 0, 9, 10, 6864),
        (10, 10, 274, 832, 21776, 95, 0, 8, 10, 3128),
        (8, 8, 1231, 3580, 98024, 447, 0, 8, 8, 11104),
        (10, 10, 324, 982, 25992, 122, 0, 8, 10, 3432),
        (10, 10, 1706, 5230, 141344, 633, 0, 9, 10, 14232),
        (10, 10, 353, 1070, 28448, 138, 0, 9, 10, 3616),
        (8, 8, 969, 2660, 72296, 260, 0, 7, 8, 11072),
        (8, 8, 319, 900, 24408, 125, 0, 7, 8, 3496),
        (10, 10, 1264, 3856, 102072, 334, 0, 7, 10, 12840),
        (8, 8, 333, 972, 26184, 125, 0, 10, 8, 3464),
    ],
}


@pytest.mark.parametrize("engine", ("frontier", "adaptive"))
def test_frontier_golden_counters(engine, all_graphs):
    """Frontier and adaptive reproduce every counter of the goldens."""
    from repro.device.executor import VirtualDevice

    golden = GOLDEN_FRONTIER_COUNTERS[engine]
    assert len(golden) == len(all_graphs), "corpus drifted; recapture goldens"
    opts = EclOptions(engine=engine)
    for i, g in enumerate(all_graphs):
        res = ecl_scc(g, options=opts, device=VirtualDevice(A100))
        assert res.device.counters.snapshot() == dict(
            zip(COUNTER_FIELDS, golden[i])
        ), (engine, i)


@pytest.mark.parametrize("backend", backend_names())
@pytest.mark.parametrize("algorithm", sorted(GOLDEN_LAUNCHES))
def test_backend_algorithm_matrix(algorithm, backend, all_graphs):
    """Labels match Tarjan under every backend; launch counts match the
    pre-refactor goldens under the default dense backend."""
    golden = GOLDEN_LAUNCHES[algorithm]
    assert len(golden) == len(all_graphs), "corpus drifted; recapture goldens"
    for i, g in enumerate(all_graphs):
        res = _execute(algorithm, g, A100, None, None, backend)
        assert np.array_equal(res.labels, tarjan_scc(g).labels), (
            algorithm, backend, i,
        )
        if backend == "dense":
            launches = res.device.counters.kernel_launches
            assert launches == golden[i], (algorithm, i, launches, golden[i])


class TestRandomizeIds:
    def test_labels_refer_to_original_ids(self):
        g = cycle_graph(12)
        res = ecl_scc(g, randomize_ids=True)
        assert (res.labels == 11).all()

    def test_cuts_rounds_on_sequential_cycle(self):
        g = cycle_graph(4096)
        plain = ecl_scc(g)
        rand = ecl_scc(g, randomize_ids=True, seed=1)
        assert np.array_equal(plain.labels, rand.labels)
        assert rand.propagation_rounds < plain.propagation_rounds / 5

    def test_seed_determinism(self):
        g, _ = permute_random(cycle_graph(64), seed=0)
        a = ecl_scc(g, randomize_ids=True, seed=7)
        b = ecl_scc(g, randomize_ids=True, seed=7)
        assert a.propagation_rounds == b.propagation_rounds
        assert np.array_equal(a.labels, b.labels)

    def test_permutation_seed_round_trip(self):
        from repro.engine import normalize_labels_to_max

        g, _ = permute_random(cycle_graph(64), seed=0)
        res = ecl_scc(g, randomize_ids=True, seed=7)
        assert res.permutation_seed == 7
        assert ecl_scc(g).permutation_seed is None
        # the recorded seed is enough to reproduce the exact run: rebuild
        # the permutation, run unrandomized, and map the labels back
        permuted, mapping = permute_random(g, res.permutation_seed)
        inner = ecl_scc(permuted)
        assert np.array_equal(
            normalize_labels_to_max(inner.labels[mapping]), res.labels
        )

    def test_trivial_graphs(self):
        from repro.graph import CSRGraph

        res = ecl_scc(CSRGraph.empty(1), randomize_ids=True)
        assert res.labels.tolist() == [0]
        res = ecl_scc(CSRGraph.empty(0), randomize_ids=True)
        assert res.labels.size == 0
