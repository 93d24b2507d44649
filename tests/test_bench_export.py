"""Tests for the JSON export of experiment results."""

import json

import numpy as np
import pytest

from repro import solve
from repro.bench import (
    RUNTIME_COLUMNS,
    export_json,
    runtime_table,
    to_jsonable,
)
from repro.device import A100
from repro.graph import scc_ladder


class TestToJsonable:
    def test_scalars(self):
        assert to_jsonable(np.int64(5)) == 5
        assert to_jsonable(np.float64(1.5)) == 1.5
        assert to_jsonable("x") == "x"
        assert to_jsonable(None) is None

    def test_small_array(self):
        assert to_jsonable(np.arange(3)) == [0, 1, 2]

    def test_large_array_summarized(self):
        out = to_jsonable(np.arange(1000))
        assert out["__array__"] is True
        assert out["shape"] == [1000]
        assert out["head"] == list(range(8))

    def test_nested(self):
        out = to_jsonable({"a": [np.int64(1), {"b": np.float32(2.0)}]})
        assert out == {"a": [1, {"b": 2.0}]}

    def test_run_result(self):
        r = solve(scc_ladder(5), "ecl-scc", device=A100)
        out = to_jsonable(r)
        assert out["num_sccs"] == 5
        assert out["model_seconds"] > 0
        assert out["wall_median_seconds"] is None
        assert "kernel_launches" in out["counters"]

    def test_opaque_fallback(self):
        class Thing:
            def __repr__(self):
                return "<thing>"

        assert to_jsonable(Thing()) == {"__repr__": "<thing>"}


class TestExportJson:
    def test_roundtrip_runtime_table(self, tmp_path):
        groups = [("ladder", [scc_ladder(8)])]
        cols = (RUNTIME_COLUMNS[1],)
        res = runtime_table(groups, table_name="mini", columns=cols)
        p = export_json(res, tmp_path / "mini.json")
        data = json.loads(p.read_text())
        assert data["name"] == "mini"
        assert data["rows"][0]["graph"] == "ladder"
        assert data["rows"][0]["ECL-SCC A100"] > 0
        # raw run results serialized with counters
        runs = data["raw"]
        assert any("ecl-scc" in json.dumps(v) for v in runs.values())
