"""The CI gates of ``bench smoke``, ``bench engines`` and ``serve bench``.

A gated run's JSON document must equal the suite's committed baseline
(``BENCH_smoke.json``, ``BENCH_engines.json``, ``BENCH_serve.json``) at
every leaf path, ``results`` rows keyed by algorithm/engine/graph (e.g.
``[ecl-scc/toroid-hex:o0].phases.outer-iteration/phase2-propagate.seconds``)
and floats to a relative :data:`REL_TOL`: any modelled change, faster or
slower, fails until the baseline is regenerated in the same commit.  The
suite's claims must hold on the fresh rows even then: adaptive within
:data:`ADAPTIVE_SLACK` of the best static engine on every graph (checked
by ``bench engines`` with or without a baseline), every
``dynamic-replay`` row cheaper than recompute, a cache-enabled serve row
beating its ``-nocache`` twin on throughput at no worse p99, and
``breaker_win["ok"]`` (from :func:`repro.serve.bench.breaker_comparison`).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

__all__ = ["REL_TOL", "ADAPTIVE_SLACK", "check", "refuse_self_comparison"]

#: relative agreement of two floats at one path; the bound the profiler's
#: per-phase attribution sums are held to (docs/observability.md §8).
REL_TOL = 1e-9

#: the adaptive scheduler pays for its density scans, so it may exceed
#: the best static engine by this much, never more.
ADAPTIVE_SLACK = 0.02


def _leaves(value: Any, path: str, out: "dict[str, Any]") -> None:
    if isinstance(value, dict) and value:
        for key, item in value.items():
            _leaves(item, f"{path}.{key}", out)
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            _leaves(item, f"{path}[{i}]", out)
    else:
        out[path] = value


def _flatten(doc: "dict[str, Any]") -> "dict[str, Any]":
    out: "dict[str, Any]" = {}
    for key, value in doc.items():
        if key != "results":
            _leaves(value, key, out)
    keys: "set[str]" = set()
    for row in doc["results"]:
        key = "/".join(str(row[f]) for f in ("algorithm", "engine", "graph")
                       if row.get(f) is not None)
        if key in keys:
            raise ValueError(f"two results rows share the key [{key}]")
        keys.add(key)
        _leaves(row, f"[{key}]", out)
    return out


def _same(old: Any, new: Any) -> bool:
    if type(old) is float and type(new) is float:
        return math.isclose(old, new, rel_tol=REL_TOL)
    return type(old) is type(new) and old == new


def _diff(base: "dict[str, Any]", new: "dict[str, Any]") -> "list[str]":
    old, cur = _flatten(base), _flatten(new)
    failures = []
    for path in [*old, *(p for p in cur if p not in old)]:
        if path not in old or path not in cur or not _same(old[path], cur[path]):
            shown = [json.dumps(side[path]) if path in side else "(missing)"
                     for side in (old, cur)]
            failures.append(f"{path}: {shown[0]} -> {shown[1]}")
    return failures


def _claim_failures(doc: "dict[str, Any]") -> "list[str]":
    failures = []
    engines: "dict[str, dict[str, float]]" = {}
    serve = {r["graph"]: r for r in doc["results"] if r["algorithm"] == "serve-bench"}
    for row in doc["results"]:
        if row["algorithm"] == "dynamic-replay":
            if not row["model_seconds"] < row["recompute_seconds"]:
                failures.append(f"{row['graph']}: incremental {row['model_seconds']:.3e}s"
                                f" does not beat recompute {row['recompute_seconds']:.3e}s")
        elif row["algorithm"] == "ecl-scc" and "engine" in row:
            engines.setdefault(row["graph"], {})[row["engine"]] = row["model_seconds"]
    for graph, seconds in engines.items():
        adaptive = seconds.pop("adaptive", None)
        if adaptive is None or not seconds:
            continue
        best = min(seconds, key=seconds.get)
        if adaptive > seconds[best] * (1.0 + ADAPTIVE_SLACK):
            failures.append(f"{graph}: adaptive {adaptive:.3e}s exceeds {best}"
                            f" {seconds[best]:.3e}s by more than +{ADAPTIVE_SLACK:.0%}")
    for name, on in serve.items():
        off = serve.get(name + "-nocache")
        if off is None or not on["cache_enabled"]:
            continue
        if not on["throughput_jps"] > off["throughput_jps"]:
            failures.append(f"{name}: throughput {on['throughput_jps']:.1f}/s with cache"
                            f" does not beat {off['throughput_jps']:.1f}/s without")
        if None not in (on["p99_ms"], off["p99_ms"]) and on["p99_ms"] > off["p99_ms"]:
            failures.append(f"{name}: p99 {on['p99_ms']:.4f}ms with cache is worse"
                            f" than {off['p99_ms']:.4f}ms without")
    win = doc.get("breaker_win")
    if win is not None and not win["ok"]:
        failures.append(f"breaker_win: {json.dumps(win, sort_keys=True)}")
    return failures


def refuse_self_comparison(json_out: "str | None", baseline: "str | None") -> None:
    """Exit when ``--json`` would overwrite the ``--baseline`` it is gated on."""
    if json_out and baseline and Path(json_out).resolve() == Path(baseline).resolve():
        raise SystemExit(f"--json {json_out} and --baseline {baseline} are the same file:"
                         " the run would overwrite its baseline and compare with itself")


def check(doc: "dict[str, Any]", baseline: "str | None") -> int:
    """Gate *doc* (against *baseline*, when given); prints, returns the exit code."""
    doc = json.loads(json.dumps(doc, default=str))  # compare what the command writes
    failures = [] if baseline is None else _diff(json.loads(Path(baseline).read_text()), doc)
    failures += _claim_failures(doc)
    if failures:
        print(f"gate: FAIL ({len(failures)} failure(s))")
        for failure in failures:
            print(f"  {failure}")
        return 1
    against = f"equal to {baseline}, " if baseline is not None else ""
    print(f"gate: pass ({against}suite claims hold)")
    return 0
