"""One entry point per paper table/figure (see DESIGN.md experiment index).

Every function returns plain data (dicts/lists) plus a rendered ASCII
block, so the pytest-benchmark harness, the examples, and the
EXPERIMENTS.md generator all share one implementation.

Device-column convention for the runtime tables (paper Tables 5-7):
ECL-SCC and GPU-SCC on the Titan V and A100 models; iSpan on the Ryzen
and Xeon models.  Runtimes are virtual-device estimates ("model
seconds"); Python wall time is recorded alongside in the raw results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..analysis.sccstats import scc_statistics
from ..baselines.tarjan import tarjan_scc
from ..core.options import ablation_variants
from ..device.spec import A100, RYZEN_2950X, TITAN_V, XEON_6226R
from ..graph.csr import CSRGraph
from ..graph.ops import replicate
from ..graph.suite import powerlaw_suite
from ..mesh.suite import large_mesh_suite, small_mesh_suite
from .formatting import format_seconds, render_series, render_table
from .runners import RunResult
from .throughput import geometric_mean

__all__ = [
    "ExperimentResult",
    "mesh_table_properties",
    "powerlaw_table_properties",
    "runtime_table",
    "throughput_figures",
    "ablation_figure",
    "expanded_meshes",
    "RUNTIME_COLUMNS",
]

#: the six columns of Tables 5-7: (label, algorithm, device)
RUNTIME_COLUMNS = (
    ("ECL-SCC Titan V", "ecl-scc", TITAN_V),
    ("ECL-SCC A100", "ecl-scc", A100),
    ("GPU-SCC Titan V", "gpu-scc", TITAN_V),
    ("GPU-SCC A100", "gpu-scc", A100),
    ("iSpan Ryzen", "ispan", RYZEN_2950X),
    ("iSpan Xeon", "ispan", XEON_6226R),
)


@dataclass
class ExperimentResult:
    """Structured output of one experiment."""

    name: str
    rendered: str
    rows: "list[dict]" = field(default_factory=list)
    series: "dict[str, dict[str, float]]" = field(default_factory=dict)
    raw: dict = field(default_factory=dict)
    elapsed_s: float = 0.0


# ---------------------------------------------------------------------------
# Tables 1-3: input properties
# ---------------------------------------------------------------------------

def mesh_table_properties(kind: str, **suite_kwargs) -> ExperimentResult:
    """Table 1 (kind='small') / Table 2 (kind='large') at the active scale."""
    t0 = time.perf_counter()
    suite = small_mesh_suite(**suite_kwargs) if kind == "small" else large_mesh_suite(**suite_kwargs)
    rows = []
    for grp in suite:
        stats = [scc_statistics(g, tarjan_scc(g).labels) for g in grp.graphs]
        rows.append(
            {
                "graph": grp.name,
                "N_ord": len(grp.graphs),
                "vertices": stats[0].num_vertices,
                "edges": int(np.mean([s.num_edges for s in stats])),
                "avg_deg": round(float(np.mean([s.avg_degree for s in stats])), 2),
                "max_din": max(s.max_in_degree for s in stats),
                "max_dout": max(s.max_out_degree for s in stats),
                "min_sccs": min(s.num_sccs for s in stats),
                "max_sccs": max(s.num_sccs for s in stats),
                "min_size1": min(s.size1_sccs for s in stats),
                "max_size1": max(s.size1_sccs for s in stats),
                "min_size2": min(s.size2_sccs for s in stats),
                "max_size2": max(s.size2_sccs for s in stats),
                "min_largest": min(s.largest_scc for s in stats),
                "max_largest": max(s.largest_scc for s in stats),
                "min_depth": min(s.dag_depth for s in stats),
                "max_depth": max(s.dag_depth for s in stats),
                "paper": grp.spec.paper_sccs,
            }
        )
    headers = [
        "graph", "N_ord", "vertices", "edges", "avg_deg", "max_din", "max_dout",
        "min_sccs", "max_sccs", "min_size1", "max_size1", "min_size2",
        "max_size2", "min_largest", "max_largest", "min_depth", "max_depth",
    ]
    table = render_table(
        headers,
        [[r[h] for h in headers] for r in rows],
        title=f"Table {'1' if kind == 'small' else '2'}: {kind} mesh graphs (scaled)",
    )
    return ExperimentResult(
        name=f"table{'1' if kind == 'small' else '2'}",
        rendered=table,
        rows=rows,
        raw={"suite": suite},
        elapsed_s=time.perf_counter() - t0,
    )


def powerlaw_table_properties(**suite_kwargs) -> ExperimentResult:
    """Table 3 at the active scale."""
    t0 = time.perf_counter()
    rows = []
    graphs = []
    for g, planted in powerlaw_suite(**suite_kwargs):
        s = scc_statistics(g, tarjan_scc(g).labels)
        graphs.append(g)
        rows.append({"graph": g.name, **s.as_row(), "planted": planted})
    headers = [
        "graph", "vertices", "edges", "avg_deg", "max_din", "max_dout",
        "sccs", "size1", "size2", "largest", "dag_depth",
    ]
    table = render_table(
        headers,
        [[r[h] for h in headers] for r in rows],
        title="Table 3: power-law graphs (synthetic stand-ins, scaled)",
    )
    return ExperimentResult(
        name="table3",
        rendered=table,
        rows=rows,
        raw={"graphs": graphs},
        elapsed_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Tables 5-7 and Figures 5-13: runtimes and throughputs
# ---------------------------------------------------------------------------

def runtime_table(
    groups: "Sequence[tuple[str, list[CSRGraph]]]",
    *,
    table_name: str,
    columns=RUNTIME_COLUMNS,
    verify: bool = True,
) -> ExperimentResult:
    """Average model runtime per group and column (the Table 5/6/7 shape).

    ``groups`` is a list of (group name, graphs); mesh groups average the
    runtime across ordinates before computing throughput, exactly like
    the paper (§4); power-law "groups" hold a single graph.
    """
    from ..solver import solve  # repro.solver imports this package

    t0 = time.perf_counter()
    rows = []
    raw_runs: "dict[tuple[str, str], list[RunResult]]" = {}
    for gname, graphs in groups:
        row: "dict[str, object]" = {"graph": gname, "vertices": graphs[0].num_vertices}
        for label, algo, spec in columns:
            runs = [
                solve(g, algo, device=spec, verify=verify and algo == "ecl-scc")
                for g in graphs
            ]
            raw_runs[(gname, label)] = runs
            row[label] = float(np.mean([r.model_seconds for r in runs]))
            row[label + " wall"] = float(np.mean([r.wall.median_s if r.wall else np.nan for r in runs])) if any(r.wall for r in runs) else float("nan")
        rows.append(row)
    headers = ["graph"] + [c[0] for c in columns]
    table = render_table(
        headers,
        [[r["graph"]] + [format_seconds(float(r[c[0]])) for c in columns] for r in rows],
        title=f"{table_name}: average model runtime (seconds)",
    )
    return ExperimentResult(
        name=table_name,
        rendered=table,
        rows=rows,
        raw={"runs": raw_runs},
        elapsed_s=time.perf_counter() - t0,
    )


def throughput_figures(
    runtime_result: ExperimentResult,
    *,
    figure_name: str,
    columns=RUNTIME_COLUMNS,
) -> ExperimentResult:
    """Figures 5-13: throughput series (Mv/s) + geometric means."""
    t0 = time.perf_counter()
    series: "dict[str, dict[str, float]]" = {c[0]: {} for c in columns}
    for row in runtime_result.rows:
        v = int(row["vertices"])
        for label, _, _ in columns:
            secs = float(row[label])  # type: ignore[arg-type]
            series[label][str(row["graph"])] = v / secs / 1e6
    for label in list(series):
        vals = list(series[label].values())
        series[label]["geomean"] = geometric_mean(vals)
    rendered = render_series(series, title=f"{figure_name}: throughput (Mv/s)")
    return ExperimentResult(
        name=figure_name,
        rendered=rendered,
        series=series,
        raw={"runtime": runtime_result},
        elapsed_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Figure 14: optimization ablation
# ---------------------------------------------------------------------------

def ablation_figure(
    classes: "Sequence[tuple[str, list[CSRGraph]]]",
    *,
    device=A100,
) -> ExperimentResult:
    """Figure 14: geomean throughput per input class per ECL-SCC variant."""
    from ..solver import solve  # repro.solver imports this package

    t0 = time.perf_counter()
    variants = ablation_variants()
    series: "dict[str, dict[str, float]]" = {v: {} for v in variants}
    raw: dict = {}
    for cname, graphs in classes:
        for vname, opts in variants.items():
            runs = [
                solve(g, device=device, options=opts) for g in graphs
            ]
            raw[(cname, vname)] = runs
            series[vname][cname] = geometric_mean(
                [r.model_throughput_mvs for r in runs]
            )
    rendered = render_series(
        series, title=f"Figure 14: ECL-SCC ablation on {device.name} (geomean Mv/s)"
    )
    return ExperimentResult(
        name="figure14",
        rendered=rendered,
        series=series,
        raw=raw,
        elapsed_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# §5.1.4: expanded meshes
# ---------------------------------------------------------------------------

def expanded_meshes(*, copies: int = 10, **suite_kwargs) -> ExperimentResult:
    """Replicate twist-hex and toroid-hex 10x and compare ECL vs GPU-SCC
    (A100) vs iSpan (Xeon), the §5.1.4 experiment."""
    t0 = time.perf_counter()
    groups = []
    for name in ("twist-hex", "toroid-hex"):
        suite = large_mesh_suite(names=[name], num_ordinates=1, **suite_kwargs)
        g = suite[0].graphs[0]
        big = replicate(g, copies, name=f"{name}-x{copies}")
        groups.append((big.name, [big]))
    cols = (
        ("ECL-SCC A100", "ecl-scc", A100),
        ("GPU-SCC A100", "gpu-scc", A100),
        ("iSpan Xeon", "ispan", XEON_6226R),
    )
    res = runtime_table(groups, table_name="expanded-meshes", columns=cols)
    res.elapsed_s = time.perf_counter() - t0
    return res
