"""Property-based tests (hypothesis) for the core invariants.

Strategy: generate random digraphs of several shapes and check the
library's fundamental contracts — algorithm equivalence, condensation
acyclicity, Phase-3 soundness, trim soundness, signature monotonicity.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from repro.analysis import partitions_equal
from repro.baselines import coloring_scc, kosaraju_scc, multistep_scc, tarjan_scc
from repro.engine import trim1, trim2, trim3
from repro.core import (
    ALL_OFF,
    ALL_ON,
    EdgeGrouping,
    Signatures,
    ecl_scc,
    ecl_scc_reference,
    minmax_scc,
    propagate_sync,
)
from repro.device import A100, VirtualDevice
from repro.engine.relax import push
from repro.graph import CSRGraph, condense, dag_depth, topological_levels
from repro.trace import Tracer
from repro.types import NO_VERTEX, VERTEX_DTYPE


@st.composite
def digraphs(draw, max_n=24, max_m=80):
    """Random digraph as (n, src, dst) with duplicates and self-loops."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    return CSRGraph.from_edges(src, dst, n)


@st.composite
def sparse_digraphs(draw, max_n=40):
    """Mesh-like sparse digraphs: out-degree <= 3."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = []
    for v in range(n):
        deg = draw(st.integers(0, 3))
        for _ in range(deg):
            edges.append((v, draw(st.integers(0, n - 1))))
    if edges:
        src, dst = zip(*edges)
    else:
        src, dst = [], []
    return CSRGraph.from_edges(src, dst, n)


COMMON = dict(max_examples=60, deadline=None)


@given(digraphs())
@settings(**COMMON)
def test_ecl_equals_tarjan(g):
    assert np.array_equal(ecl_scc(g).labels, tarjan_scc(g).labels)


@given(sparse_digraphs())
@settings(**COMMON)
def test_ecl_equals_tarjan_sparse(g):
    assert np.array_equal(ecl_scc(g).labels, tarjan_scc(g).labels)


@given(digraphs(max_n=16, max_m=48))
@settings(max_examples=30, deadline=None)
def test_all_off_and_minmax_and_reference_agree(g):
    truth = tarjan_scc(g).labels
    assert np.array_equal(ecl_scc(g, options=ALL_OFF).labels, truth)
    assert np.array_equal(ecl_scc_reference(g), truth)
    assert np.array_equal(minmax_scc(g).labels, truth)


@given(digraphs())
@settings(**COMMON)
def test_oracles_agree(g):
    assert np.array_equal(tarjan_scc(g).labels, kosaraju_scc(g).labels)


@given(digraphs(max_n=18, max_m=50))
@settings(max_examples=40, deadline=None)
def test_coloring_and_multistep_agree(g):
    truth = tarjan_scc(g).labels
    assert np.array_equal(coloring_scc(g).labels, truth)
    assert np.array_equal(multistep_scc(g).labels, truth)


@given(digraphs())
@settings(**COMMON)
def test_condensation_is_acyclic(g):
    labels = tarjan_scc(g).labels
    dag, dense = condense(g, labels)
    topological_levels(dag)  # raises GraphValidationError on a cycle
    # every vertex maps into the dag's vertex range
    if dense.size:
        assert dense.max() < max(dag.num_vertices, 1)


@given(digraphs())
@settings(**COMMON)
def test_labels_are_max_member_ids(g):
    labels = ecl_scc(g).labels
    n = g.num_vertices
    for rep in np.unique(labels):
        members = np.flatnonzero(labels == rep)
        assert members.max() == rep


@given(digraphs())
@settings(**COMMON)
def test_reversal_preserves_sccs(g):
    a = tarjan_scc(g).labels
    b = tarjan_scc(g.reverse_copy()).labels
    assert partitions_equal(a, b)


@given(digraphs())
@settings(**COMMON)
def test_dag_depth_bounds(g):
    labels = tarjan_scc(g).labels
    d = dag_depth(g, labels)
    k = np.unique(labels).size
    assert (0 if g.num_vertices == 0 else 1) <= d <= max(k, 1)


@given(digraphs(max_m=60))
@settings(**COMMON)
def test_trim_soundness(g):
    """Trim-1/2 must only remove genuinely trivial/size-2 SCCs and label
    them exactly as Tarjan would."""
    truth = tarjan_scc(g).labels
    labels = np.full(g.num_vertices, NO_VERTEX, dtype=VERTEX_DTYPE)
    active = np.ones(g.num_vertices, dtype=bool)
    dev = VirtualDevice(A100)
    trim1(g, active, labels, dev)
    trim2(g, active, labels, dev)
    removed = ~active
    assert np.array_equal(labels[removed], truth[removed])


@given(digraphs(max_m=60))
@settings(**COMMON)
def test_trim3_soundness(g):
    """Trim-3 must only remove genuine size-3 SCCs with Tarjan's labels."""
    truth = tarjan_scc(g).labels
    labels = np.full(g.num_vertices, NO_VERTEX, dtype=VERTEX_DTYPE)
    active = np.ones(g.num_vertices, dtype=bool)
    removed = trim3(g, active, labels, VirtualDevice(A100))
    assert removed % 3 == 0
    rm = ~active
    assert np.array_equal(labels[rm], truth[rm])
    # removed vertices are exactly size-3 components of the truth
    for v in np.flatnonzero(rm):
        assert int(np.count_nonzero(truth == truth[v])) == 3


@given(digraphs(max_m=60))
@settings(**COMMON)
def test_signature_monotonicity(g):
    """One relaxation round never decreases any signature value."""
    if g.num_edges == 0:
        return
    src, dst = g.edges()
    sigs = Signatures.identity(g.num_vertices)
    for _ in range(4):
        before_in = sigs.sig_in.copy()
        before_out = sigs.sig_out.copy()
        push(sigs, src, dst, compress=True)
        assert np.all(sigs.sig_in >= before_in)
        assert np.all(sigs.sig_out >= before_out)


def _propagation_depth(g, extreme) -> int:
    """D: the largest hop distance from a vertex u to the *extreme*
    (``max`` or ``min``) ID that u reaches, or to u from the extreme ID
    that reaches u — the Jacobi round by which every signature settles.
    Reachability and distances come from SciPy alone."""
    n = g.num_vertices
    src, dst = g.edges()
    adj = csr_matrix((np.ones(src.size), (src, dst)), shape=(n, n))
    dist = shortest_path(adj, unweighted=True)  # dist[u, u] == 0
    reach = np.isfinite(dist)
    ids = np.arange(n)
    depth = 0.0
    for u in range(n):
        down, up = extreme(ids[reach[u]]), extreme(ids[reach[:, u]])
        depth = max(depth, dist[u, down], dist[up, u])
    return int(depth)


@given(digraphs())
@settings(**COMMON)
def test_sync_round_counts_match_distance_oracle(g):
    """Without path compression, sync Phase 2 from identity signatures
    runs 1 + D rounds (D settles every signature, one more finds
    quiescence), one launch and m edge relaxations per round; minmax's
    first Phase 2 runs until both its max and its min pairs settle."""
    n, m = g.num_vertices, g.num_edges
    d_max = _propagation_depth(g, np.max)
    src, dst = g.edges()
    dev = VirtualDevice(A100)
    rounds = propagate_sync(
        Signatures.identity(n), EdgeGrouping.build(src, dst), dev, ALL_OFF, n
    )
    assert rounds == 1 + d_max
    assert dev.counters.kernel_launches == rounds
    assert dev.counters.edge_work == rounds * m
    tracer = Tracer()
    minmax_scc(g, tracer=tracer)
    first = tracer.trace.find_spans("phase2-propagate")[0]
    expected = 1 + max(d_max, _propagation_depth(g, np.min)) if m else 0
    assert first.attrs["rounds"] == expected


@given(digraphs(max_m=60))
@settings(max_examples=40, deadline=None)
def test_phase3_never_splits_an_scc(g):
    """§3.2.1: after any number of full outer iterations, intra-SCC edges
    survive.  Run one iteration manually and check."""
    if g.num_edges == 0:
        return
    truth = tarjan_scc(g).labels
    src, dst = g.edges()
    grouping = EdgeGrouping.build(src, dst)
    sigs = Signatures.identity(g.num_vertices)
    dev = VirtualDevice(A100)
    from repro.core.options import EclOptions

    propagate_sync(sigs, grouping, dev, EclOptions(async_phase2=False), g.num_vertices)
    keep = (sigs.sig_in[src] == sigs.sig_in[dst]) & (
        sigs.sig_out[src] == sigs.sig_out[dst]
    )
    intra = truth[src] == truth[dst]
    assert np.all(keep[intra])  # no intra-SCC edge is ever removed


@given(digraphs())
@settings(**COMMON)
def test_completion_counts_sum_to_n(g):
    res = ecl_scc(g)
    assert sum(res.completed_per_iteration) == g.num_vertices


@given(st.integers(2, 200))
@settings(max_examples=30, deadline=None)
def test_cycle_any_size(n):
    g = CSRGraph.from_edges(
        np.arange(n, dtype=np.int64), (np.arange(n, dtype=np.int64) + 1) % n, n
    )
    res = ecl_scc(g)
    assert res.num_sccs == 1
    assert (res.labels == n - 1).all()


# ---------------------------------------------------------------------------
# frontier Phase-2 engine: cross-iteration reuse reaches the dense fixed point
# ---------------------------------------------------------------------------


@given(digraphs(), st.integers(0, 2**10))
@settings(**COMMON)
def test_frontier_fixed_point_under_edge_removal(g, seed):
    """Frontier labels equal the dense engine's after random edge removals.

    Removing edges perturbs the worklist exactly the way Phase 3 does
    between iterations, so this exercises the invalidated-seed path on
    arbitrary survivor subsets — and the randomized-ID variant exercises
    the permutation_seed path on top.
    """
    from repro.core import EclOptions

    rng = np.random.default_rng(seed)
    src, dst = g.edges()
    if src.size:
        keep = rng.random(src.size) < 0.6
        g = CSRGraph.from_edges(src[keep], dst[keep], g.num_vertices)
    dense = ecl_scc(g, options=EclOptions(engine="sync"))
    front = ecl_scc(g, options=EclOptions(engine="frontier"))
    assert np.array_equal(front.labels, dense.labels)
    permuted = ecl_scc(
        g, options=EclOptions(engine="frontier"),
        randomize_ids=True, seed=seed % 97,
    )
    if g.num_vertices > 1:
        assert permuted.permutation_seed == seed % 97
    assert np.array_equal(permuted.labels, dense.labels)


@given(digraphs(max_n=16, max_m=40), st.integers(0, 255))
@settings(max_examples=30, deadline=None)
def test_frontier_fixed_point_under_monotone_faults(g, seed):
    """Monotone fault presets regress signatures mid-run; the frontier's
    regressed-vertex reseeding must still converge to the dense labels."""
    from repro.core import EclOptions
    from repro.faults import FaultPlan

    dense = ecl_scc(g, options=EclOptions(engine="sync"))
    faulted = ecl_scc(
        g, options=EclOptions(engine="frontier"),
        faults=FaultPlan.monotone(seed=seed),
    )
    assert np.array_equal(faulted.labels, dense.labels)
