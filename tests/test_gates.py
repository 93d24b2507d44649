"""Tests for :mod:`repro.bench.gates` — the exact CI gates.

One synthetic document carries a row of every gated kind (a smoke row
with a phase, a dynamic-replay row, an engine triple, a cache/nocache
serve pair and the breaker verdict), so each rule is driven by one
small edit.
"""

import copy
import json

import pytest

from repro.bench import gates
from repro.cli import main

PHASE = "outer-iteration/phase2-propagate"

BASE = {
    "device": "A100",
    "breaker_win": {"ok": True, "p99_degradation": 2.5,
                    "shed_rate_delta": 0.25},
    "results": [
        {"algorithm": "ecl-scc", "graph": "mesh", "num_sccs": 12,
         "model_seconds": 3.0e-4,
         "phases": {PHASE: {"seconds": 2.0e-4,
                            "classification": "launch-overhead-bound"}}},
        {"algorithm": "dynamic-replay", "graph": "mesh:replay-b12",
         "model_seconds": 1.0e-4, "recompute_seconds": 4.0e-4},
        {"algorithm": "ecl-scc", "engine": "async", "graph": "g",
         "model_seconds": 1.0e-4},
        {"algorithm": "ecl-scc", "engine": "frontier", "graph": "g",
         "model_seconds": 2.0e-4},
        {"algorithm": "ecl-scc", "engine": "adaptive", "graph": "g",
         "model_seconds": 1.0e-4},
        {"algorithm": "serve-bench", "engine": None, "graph": "zipf-clean",
         "cache_enabled": True, "throughput_jps": 73000.0, "p99_ms": 0.16},
        {"algorithm": "serve-bench", "engine": None,
         "graph": "zipf-clean-nocache", "cache_enabled": False,
         "throughput_jps": 60000.0, "p99_ms": 0.18},
    ],
}


def _row(doc, graph, engine=None):
    return next(r for r in doc["results"]
                if r["graph"] == graph and r.get("engine") == engine)


def _set(graph, engine=None, **fields):
    return lambda doc: _row(doc, graph, engine).update(fields)


def _set_phase(**fields):
    return lambda doc: _row(doc, "mesh")["phases"][PHASE].update(fields)


# (edit, rebaselined, exit code, text the verdict must print).  A
# rebaselined case commits the edited document as its own baseline:
# the exact rule passes, so only a suite claim can fail it.
CASES = [
    pytest.param(lambda doc: None, False, 0, "gate: pass", id="identical"),
    pytest.param(_set("mesh", model_seconds=3.0e-4 * (1 + 1e-12)), False, 0,
                 "gate: pass", id="float-rel-1e-12"),
    pytest.param(_set("mesh", num_sccs=13), False, 1,
                 "[ecl-scc/mesh].num_sccs: 12 -> 13", id="int"),
    pytest.param(_set_phase(classification="streaming-bound"), False, 1,
                 f'[ecl-scc/mesh].phases.{PHASE}.classification:'
                 ' "launch-overhead-bound" -> "streaming-bound"', id="string"),
    pytest.param(_set_phase(seconds=2.0e-4 * (1 + 1e-6)), False, 1,
                 f"[ecl-scc/mesh].phases.{PHASE}.seconds: 0.0002 ->",
                 id="float-rel-1e-6"),
    pytest.param(lambda doc: doc["results"].pop(0), False, 1,
                 "[ecl-scc/mesh].num_sccs: 12 -> (missing)", id="removed-row"),
    pytest.param(lambda doc: doc["results"].append(
                     {"algorithm": "fb", "graph": "mesh", "num_sccs": 12}),
                 False, 1, "[fb/mesh].num_sccs: (missing) -> 12",
                 id="added-row"),
    pytest.param(_set("g", "adaptive", model_seconds=1.0e-4 * 1.019), True, 0,
                 "gate: pass", id="adaptive-within-slack"),
    pytest.param(_set("g", "adaptive", model_seconds=1.0e-4 * 1.021), True, 1,
                 "g: adaptive 1.021e-04s exceeds async 1.000e-04s",
                 id="adaptive-over-slack"),
    pytest.param(_set("mesh:replay-b12", model_seconds=4.0e-4), True, 1,
                 "mesh:replay-b12: incremental", id="replay"),
    pytest.param(_set("zipf-clean", throughput_jps=60000.0), True, 1,
                 "zipf-clean: throughput", id="cache-throughput"),
    pytest.param(_set("zipf-clean", p99_ms=0.19), True, 1,
                 "zipf-clean: p99", id="cache-p99"),
    pytest.param(lambda doc: doc["breaker_win"].update(ok=False), True, 1,
                 'breaker_win: {"ok": false', id="breaker-win"),
]


@pytest.mark.parametrize("edit, rebaselined, exit_code, expected", CASES)
def test_gate(tmp_path, capsys, edit, rebaselined, exit_code, expected):
    doc = copy.deepcopy(BASE)
    edit(doc)
    baseline = tmp_path / "BENCH.json"
    baseline.write_text(json.dumps(doc if rebaselined else BASE))
    assert gates.check(doc, str(baseline)) == exit_code
    assert expected in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["bench", "smoke"], ["bench", "engines"], ["serve", "bench"],
], ids=" ".join)
def test_json_equal_to_baseline_is_refused(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    baseline = tmp_path / "BENCH.json"
    baseline.write_text("{}\n")
    with pytest.raises(SystemExit, match="BENCH.json .* are the same file"):
        main([*command, "--json", "BENCH.json", "--baseline", str(baseline)])
    assert baseline.read_text() == "{}\n"
