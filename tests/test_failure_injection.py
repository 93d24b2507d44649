"""Failure injection: malformed inputs must fail loudly, never corrupt.

Every entry point is fed inconsistent data; the contract is a typed
exception from :mod:`repro.errors` (or a built-in TypeError), never a
silent wrong answer, hang, or segfault-style numpy error.
"""

import numpy as np
import pytest

from repro.core import EclOptions, ecl_scc
from repro.errors import (
    AlgorithmError,
    ConvergenceError,
    DeviceError,
    FaultError,
    FaultPlanError,
    GraphFormatError,
    MeshError,
    RankLossError,
    ReproError,
    VerificationError,
)
from repro.graph import CSRGraph, EdgeList, cycle_graph
from repro.mesh import Mesh, ElementType
from repro.types import NO_VERTEX


class TestGraphInputs:
    def test_indptr_truncated(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 1]), np.array([0, 1]))

    def test_float_edges(self):
        with pytest.raises(TypeError):
            CSRGraph.from_edges(np.array([0.5]), np.array([1.0]))

    def test_negative_vertex_count(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges([0], [1], num_vertices=-5)

    def test_noninteger_vertex_space(self):
        with pytest.raises(GraphFormatError):
            EdgeList([0, 1], [1, 2], num_vertices=1)

    def test_huge_vertex_id(self):
        # IDs beyond the declared space must be rejected, not wrapped
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges([2**40], [0], num_vertices=10)


class TestAlgorithmGuards:
    def test_ecl_iteration_cap(self):
        g = cycle_graph(50)
        opts = EclOptions(max_rounds=2, async_phase2=False, path_compression=False)
        with pytest.raises(ConvergenceError):
            ecl_scc(g, options=opts)

    def test_convergence_error_is_repro_error(self):
        assert issubclass(ConvergenceError, ReproError)
        assert issubclass(ConvergenceError, AlgorithmError)

    def test_verification_error_is_assertionlike(self):
        assert issubclass(VerificationError, AssertionError)

    def test_options_reject_nonsense(self):
        with pytest.raises(AlgorithmError):
            EclOptions(block_edges=-3)


class TestFaultPayloads:
    """Failure exceptions carry structured state, not just messages."""

    def test_convergence_error_payload(self):
        g = cycle_graph(50)
        opts = EclOptions(max_rounds=2, async_phase2=False, path_compression=False)
        with pytest.raises(ConvergenceError) as exc:
            ecl_scc(g, options=opts)
        err = exc.value
        assert err.iterations == 2
        assert err.sig_in is not None and err.sig_in.size == 50
        assert err.sig_out is not None and err.sig_out.size == 50
        assert 0 < err.active_count <= 50
        state = err.partial_state()
        assert state["iterations"] == 2
        assert state["active_count"] == err.active_count

    def test_convergence_error_outer_loop_payload(self):
        g = cycle_graph(30)
        opts = EclOptions(max_outer_iterations=1, remove_scc_edges=False,
                          path_compression=False, async_phase2=False,
                          max_rounds=3)
        with pytest.raises(ConvergenceError) as exc:
            ecl_scc(g, options=opts)
        # either bound may trip first; both must attach progress
        assert exc.value.iterations is not None

    def test_atomic_engine_attaches_payload(self):
        g = cycle_graph(40)
        opts = EclOptions(engine="atomic", max_rounds=2,
                          path_compression=False)
        with pytest.raises(ConvergenceError) as exc:
            ecl_scc(g, options=opts)
        assert exc.value.iterations == 2
        assert exc.value.sig_in is not None

    def test_partial_labels_are_no_vertex_where_unknown(self):
        g = cycle_graph(20)
        opts = EclOptions(max_rounds=1, async_phase2=False,
                          path_compression=False)
        with pytest.raises(ConvergenceError) as exc:
            ecl_scc(g, options=opts)
        labels = exc.value.labels
        if labels is not None:
            assert (labels == NO_VERTEX).all()  # nothing completed yet

    def test_fault_plan_error_is_typed(self):
        from repro import FaultPlan

        with pytest.raises(FaultPlanError):
            FaultPlan(stale_read_rate=2.0)
        assert issubclass(FaultPlanError, FaultError)
        assert issubclass(FaultPlanError, ValueError)
        assert issubclass(RankLossError, FaultError)
        assert issubclass(FaultError, ReproError)

    def test_negative_superstep_is_device_error(self):
        from repro.distributed.cluster import ClusterSpec, VirtualCluster

        cluster = VirtualCluster(ClusterSpec(num_ranks=3))
        with pytest.raises(DeviceError):
            cluster.superstep([1.0, 2.0, -3.0])

    def test_rank_loss_error_payload(self):
        from repro import FaultPlan
        from repro.distributed import block_partition, distributed_ecl_scc
        from repro.graph import random_gnm

        g = random_gnm(30, 90, seed=5)
        plan = FaultPlan(
            seed=0, rank_crash_superstep=1, rank_recover_after=5,
            max_retries=2, failover=False,
        )
        with pytest.raises(RankLossError) as exc:
            distributed_ecl_scc(g, block_partition(g, 3), faults=plan)
        err = exc.value
        assert err.rank == 0
        assert err.retries == 2
        assert err.labels is not None
        assert err.fault_report is not None


class TestMeshInputs:
    def test_wrong_cell_arity(self):
        pts = np.zeros((8, 3))
        with pytest.raises(MeshError):
            Mesh(pts, np.arange(4).reshape(1, 4), ElementType.HEX)

    def test_dangling_node_reference(self):
        pts = np.zeros((3, 2))
        from repro.errors import MeshTopologyError

        with pytest.raises(MeshTopologyError):
            Mesh(pts, np.array([[0, 1, 2, 9]]), ElementType.QUAD)

    def test_nonmanifold_detected(self):
        # three quads sharing one edge
        from repro.mesh import interior_faces
        from repro.errors import MeshTopologyError

        pts = np.array(
            [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1], [1, -1], [0, -1]],
            dtype=float,
        )
        cells = np.array(
            [[0, 1, 2, 3], [1, 4, 5, 2], [1, 2, 5, 4]]  # edge (1,2) thrice
        )
        m = Mesh(pts, cells, ElementType.QUAD)
        with pytest.raises(MeshTopologyError):
            interior_faces(m)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [GraphFormatError, MeshError, AlgorithmError, VerificationError],
    )
    def test_all_catchable_as_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_graph_errors_are_value_errors(self):
        assert issubclass(GraphFormatError, ValueError)
