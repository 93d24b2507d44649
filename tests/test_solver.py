"""Tests for the one front door (repro.solve, which is
repro.bench.runners.run_algorithm) and the EclOptions.engine field it
rides on."""

import numpy as np
import pytest

import repro
import repro.bench.runners
from repro import EclOptions, solve
from repro.bench.runners import RunResult
from repro.core import ecl_scc
from repro.core.options import ALL_OFF, ALL_ON, ENGINE_NAMES, validate_engine
from repro.dynamic import DynamicGraph
from repro.errors import AlgorithmError
from repro.graph import cycle_graph, random_gnm


G = random_gnm(40, 120, seed=1)


# ----------------------------------------------------------------------
# solve(): the one-call front door
# ----------------------------------------------------------------------
class TestSolve:
    def test_default_solve_is_ecl_scc(self):
        res = solve(G)
        assert isinstance(res, RunResult)
        assert res.algorithm == "ecl-scc"
        assert np.array_equal(res.labels, ecl_scc(G).labels)

    def test_positional_algorithm(self):
        res = solve(G, "tarjan")
        assert res.algorithm == "tarjan"
        assert res.num_sccs == ecl_scc(G).num_sccs

    def test_engine_keyword(self):
        res = solve(G, engine="frontier", verify=True)
        assert np.array_equal(res.labels, ecl_scc(G).labels)

    def test_unknown_engine_lists_choices(self):
        with pytest.raises(AlgorithmError) as exc:
            solve(G, engine="warp")
        for name in ENGINE_NAMES:
            assert name in str(exc.value)

    def test_exported_at_top_level(self):
        # one function object: serve's SOLVE jobs and the benchmark's
        # traced pass reach the runner through the module attribute
        assert repro.solve is repro.bench.runners.run_algorithm

    @pytest.mark.parametrize("algorithm", ["ispan", "ecl-scc-minmax", "tarjan"])
    def test_options_rejected_for_other_codes(self, algorithm):
        # only ECL-SCC reads EclOptions; an ablation of any other code
        # must not silently measure the unablated code
        with pytest.raises(AlgorithmError, match="only supported for 'ecl-scc'"):
            solve(G, algorithm, options=ALL_OFF)


class TestSolveLegacyShims:
    def test_unknown_keyword_raises_typeerror(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            solve(G, fronteir_phase2=True)  # typo must not pass silently
        # the removed spellings are unknown keywords too
        for legacy in ({"algo": "tarjan"}, {"frontier_phase2": True}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                solve(G, **legacy)


# ----------------------------------------------------------------------
# repeated static solves, and a static solve as the degenerate dynamic case
# ----------------------------------------------------------------------
class TestSolver:
    def test_repeated_solves_are_identical(self):
        a = solve(G, engine="frontier")
        b = solve(G, engine="frontier")
        assert np.array_equal(a.labels, b.labels)
        assert a.model_seconds == b.model_seconds
        assert a.counters == b.counters

    def test_static_equals_degenerate_dynamic_query(self):
        static = solve(G, engine="frontier")
        handle = DynamicGraph(G, engine="frontier")
        assert np.array_equal(handle.query().labels, static.labels)

    def test_solver_dynamic_stays_identical_under_updates(self):
        handle = DynamicGraph(cycle_graph(6), engine="frontier")
        handle.delete_edges([2], [3])
        handle.insert_edges([2], [3])
        assert np.array_equal(
            handle.query().labels, ecl_scc(cycle_graph(6)).labels
        )


# ----------------------------------------------------------------------
# EclOptions.engine: the registry-backed field
# ----------------------------------------------------------------------
class TestEngineField:
    def test_engine_field_validates_on_construction(self):
        assert EclOptions(engine="frontier").phase2_engine == "frontier"
        with pytest.raises(AlgorithmError, match="valid choices"):
            EclOptions(engine="bogus")

    def test_default_engine_derives_from_ablation_flags(self):
        assert ALL_ON.phase2_engine == "async"
        assert EclOptions(async_phase2=False).phase2_engine == "sync"
        # an explicit engine overrides the flags
        assert EclOptions(async_phase2=False, engine="atomic").phase2_engine == "atomic"

    def test_validate_engine_passthrough(self):
        for name in ENGINE_NAMES:
            assert validate_engine(name) == name
