"""Tests for EclOptions, the Signatures helper and path compression."""

import numpy as np
import pytest

from repro.core import ALL_OFF, ALL_ON, EclOptions, Signatures, ablation_variants
from repro.engine.relax import compress_paths, rose, snapshot
from repro.errors import AlgorithmError

#: an empty vertex set: runs one half of compress_paths alone
NOBODY = np.empty(0, dtype=np.int64)


class TestOptions:
    def test_defaults_all_on(self):
        o = EclOptions()
        assert o.async_phase2 and o.remove_scc_edges
        assert o.path_compression and o.persistent_threads

    def test_all_off(self):
        assert not ALL_OFF.async_phase2
        assert not ALL_OFF.persistent_threads

    def test_disabling(self):
        o = ALL_ON.disabling("async_phase2")
        assert not o.async_phase2
        assert o.path_compression  # others untouched

    def test_disabling_unknown(self):
        with pytest.raises(AlgorithmError):
            ALL_ON.disabling("warp_specialization")

    def test_ablation_variants_match_figure14(self):
        v = ablation_variants()
        assert set(v) == {
            "all on", "no async", "no SCC-edge removal",
            "no path compression", "no persistent threads", "all off",
        }
        assert v["all on"] == ALL_ON
        assert v["all off"] == ALL_OFF

    def test_bounds_auto(self):
        o = EclOptions()
        assert o.outer_bound(10) == 12
        # the engine-safe auto round bound: the async engine's
        # cross-launch round total can exceed |V| + 2 (a value crossing a
        # block boundary only advances at the next launch)
        assert o.rounds_bound(10) == 46

    def test_bounds_explicit(self):
        o = EclOptions(max_outer_iterations=5, max_rounds=7)
        assert o.outer_bound(1000) == 5
        assert o.rounds_bound(1000) == 7

    def test_invalid_bounds(self):
        with pytest.raises(AlgorithmError):
            EclOptions(max_rounds=-1)

    def test_frozen(self):
        with pytest.raises(Exception):
            ALL_ON.async_phase2 = False  # type: ignore[misc]

    def test_engine_validated(self):
        from repro.core.options import ENGINE_NAMES

        for name in ENGINE_NAMES:
            assert EclOptions(engine=name).engine == name
        with pytest.raises(AlgorithmError):
            EclOptions(engine="warp")

    def test_replace_revalidates_engine(self):
        """dataclasses.replace() copies go back through __post_init__, so
        an invalid engine name cannot be smuggled past construction —
        the single-validation-path guarantee of the engine registry."""
        import dataclasses

        base = EclOptions(engine="adaptive")
        copy = dataclasses.replace(base, path_compression=False)
        assert copy.engine == "adaptive"
        with pytest.raises(AlgorithmError):
            dataclasses.replace(base, engine="hyperwarp")


class TestSignatures:
    def test_identity_init(self):
        s = Signatures.identity(5)
        assert s.sig_in.tolist() == [0, 1, 2, 3, 4]
        assert s.sig_out.tolist() == [0, 1, 2, 3, 4]

    def test_reinit(self):
        s = Signatures.identity(4)
        s.sig_in[:] = 3
        s.reinit()
        assert s.sig_in.tolist() == [0, 1, 2, 3]

    def test_completed(self):
        s = Signatures.identity(3)
        s.sig_out[1] = 2
        assert s.completed().tolist() == [True, False, True]

    def test_pointer_jump_progress(self):
        s = Signatures.identity(4)
        # chain 0 -> 1 -> 2 -> 3 in the out-signature
        s.sig_out = np.array([1, 2, 3, 3])
        snap = snapshot(s)
        compress_paths(s, None, NOBODY)
        assert rose(s, snap).any()
        assert s.sig_out.tolist() == [2, 3, 3, 3]

    def test_pointer_jump_fixed_point(self):
        s = Signatures.identity(4)
        snap = snapshot(s)
        compress_paths(s, None, NOBODY)
        assert not rose(s, snap).any()

    def test_feedback_cross_rule(self):
        # v=0 with in=2 (ancestor 2), out=1 (descendant 1):
        # descendant 1 absorbs v's in (2); ancestor 2 absorbs v's out (1)
        s = Signatures.identity(3)
        s.sig_in = np.array([2, 1, 2])
        s.sig_out = np.array([1, 1, 2])
        snap = snapshot(s)
        compress_paths(s, NOBODY, np.array([0]))
        assert rose(s, snap).any()
        assert s.sig_in[1] == 2      # in[out[0]] absorbed in[0]
        assert s.sig_out[2] >= 1     # out[in[0]] absorbed out[0] (no-op here)

    def test_feedback_monotone(self):
        s = Signatures.identity(6)
        rng = np.random.default_rng(0)
        s.sig_in = np.sort(rng.integers(0, 6, 6))  # arbitrary but valid IDs
        before_in = s.sig_in.copy()
        before_out = s.sig_out.copy()
        compress_paths(s, NOBODY, None)
        assert np.all(s.sig_in >= before_in)
        assert np.all(s.sig_out >= before_out)

    def test_feedback_no_change_returns_false(self):
        s = Signatures.identity(3)
        snap = snapshot(s)
        compress_paths(s, NOBODY, None)
        assert not rose(s, snap).any()
