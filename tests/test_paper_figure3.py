"""Fidelity test: the paper's Fig. 3 worked example, step by step.

The paper illustrates ECL-SCC on a 12-vertex, 15-edge graph with two
unreachable clusters.  §3.1-3.2 make concrete claims about the run:

* after Phase 2 of iteration 1, the "max" SCCs of both clusters (the ones
  containing vertices 9 and 11) satisfy ``v_in == v_out`` and every other
  vertex does not;
* iteration 1's Phase 3 separates those SCCs out;
* the final signatures identify each SCC by its max member, with all
  intra-SCC edges intact and all inter-SCC edges removed.

The exact edge list of Fig. 3a is not fully legible from the figure, so
this test constructs *a* 12-vertex/15-edge graph with the same SCC
structure the text describes (clusters {left: list-like with SCCs
{3,5},{2,9} and trivial 0,7} and {right: SCCs {1,4,6,8,10,11}}) and
checks the §3.2 claims mechanically.
"""

import numpy as np

from repro.core import ALL_ON, EclOptions, Signatures, ecl_scc
from repro.core.propagation import EdgeGrouping, propagate_sync
from repro.core.worklist import DoubleBufferWorklist, phase3_filter
from repro.device import A100, VirtualDevice
from repro.graph import CSRGraph
from repro.baselines import tarjan_scc

EDGES = [
    (0, 3), (3, 5), (5, 3),          # left cluster: 0 -> SCC {3,5}
    (5, 7), (7, 9),                  # ... -> 7 -> SCC {2,9}
    (9, 2), (2, 9),
    (1, 4), (4, 6), (6, 1),          # right cluster: SCC {1,4,6,8,10,11}
    (4, 8), (8, 10), (10, 4),
    (6, 11), (11, 6),
]


def build():
    src, dst = zip(*EDGES)
    return CSRGraph.from_edges(src, dst, 12, name="fig3")


def test_shape():
    g = build()
    assert g.num_vertices == 12
    assert g.num_edges == 15


def test_final_sccs():
    g = build()
    truth = tarjan_scc(g).labels
    res = ecl_scc(g)
    assert np.array_equal(res.labels, truth)
    # SCC structure the figure describes
    assert res.labels[3] == res.labels[5] == 5
    assert res.labels[2] == res.labels[9] == 9
    for v in (1, 4, 6, 8, 10, 11):
        assert res.labels[v] == 11
    assert res.labels[0] == 0 and res.labels[7] == 7
    assert res.num_sccs == 5


def test_phase2_identifies_max_sccs_first():
    """§3.2.1: after the first Phase-2 fixed point, exactly the max SCC of
    each cluster satisfies v_in == v_out."""
    g = build()
    sigs = Signatures.identity(12)
    src, dst = g.edges()
    grouping = EdgeGrouping.build(src, dst)
    propagate_sync(
        sigs, grouping, VirtualDevice(A100),
        EclOptions(async_phase2=False), 12,
    )
    done = sigs.completed()
    # left cluster's max SCC is {2, 9}; right cluster's is the big one
    expected_done = {2, 9, 1, 4, 6, 8, 10, 11}
    assert set(np.flatnonzero(done).tolist()) == expected_done
    # every member of a max SCC carries the cluster's max ID
    assert sigs.sig_in[2] == sigs.sig_in[9] == 9
    for v in (1, 4, 6, 8, 10, 11):
        assert sigs.sig_in[v] == 11
    # ancestors of the max SCC carry its ID in v_out but not v_in
    for v in (0, 3, 5, 7):
        assert sigs.sig_out[v] == 9
        assert sigs.sig_in[v] != 9


def test_phase3_separates_max_sccs():
    """§3.2.1: iteration 1's edge removal detaches the max SCCs."""
    g = build()
    sigs = Signatures.identity(12)
    src, dst = g.edges()
    grouping = EdgeGrouping.build(src, dst)
    dev = VirtualDevice(A100)
    propagate_sync(sigs, grouping, dev, EclOptions(async_phase2=False), 12)
    wl = DoubleBufferWorklist(src.copy(), dst.copy())
    phase3_filter(wl, sigs, dev, ALL_ON)
    survivors = set(zip(wl.src.tolist(), wl.dst.tolist()))
    # no surviving edge touches a completed (max-SCC) vertex
    done = set(np.flatnonzero(sigs.completed()).tolist())
    assert all(u not in done and v not in done for u, v in survivors)
    # intra-SCC edges of the *unfinished* SCC {3,5} survive
    assert (3, 5) in survivors and (5, 3) in survivors


def test_never_removes_intra_scc_edges():
    """§3.2.1's final guarantee, on this graph, for every iteration."""
    g = build()
    truth = tarjan_scc(g).labels
    res = ecl_scc(g, options=ALL_ON.disabling("remove_scc_edges"))
    # with plain Phase 3, exactly the intra-SCC edges remain at the end
    src, dst = g.edges()
    intra = int(np.count_nonzero(truth[src] == truth[dst]))
    assert res.edges_final == intra == 12


def test_converges_in_few_iterations():
    """the text: 'terminates after repeating these three phases a couple
    more times' — single digits, not |V|."""
    res = ecl_scc(build())
    assert res.outer_iterations <= 4
