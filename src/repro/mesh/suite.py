"""The paper's mesh workloads (Tables 1, 2, 4) at configurable scale.

Each :class:`MeshGroupSpec` names one mesh family, its builder, the
element count and ordinate count the paper used, and the paper's measured
SCC statistics (for EXPERIMENTS.md comparisons).  ``small_mesh_suite`` /
``large_mesh_suite`` instantiate the groups at a default laptop scale
(``REPRO_FULL=1`` switches to paper scale) and build one sweep graph per
ordinate, exactly like the evaluation in §4.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from ..graph.csr import CSRGraph
from .builders import (
    beam_hex,
    klein_bottle,
    mobius_strip,
    star,
    toroid_hex,
    toroid_wedge,
    torch_hex,
    torch_tet,
    twist_hex,
)
from .core import Mesh
from .sweepgraph import sweep_graphs

__all__ = [
    "MeshGroupSpec",
    "MeshGroup",
    "SMALL_MESH_SPECS",
    "LARGE_MESH_SPECS",
    "small_mesh_suite",
    "large_mesh_suite",
    "build_group",
    "default_mesh_scale",
]


@dataclass(frozen=True)
class MeshGroupSpec:
    """One row-group of Table 1 or 2."""

    name: str
    table: str                      # "small" | "large"
    element_type: str               # Table 4
    order: int                      # Table 4
    paper_ordinates: int            # N_Omega
    paper_vertices: int
    paper_edges: int
    builder: Callable[[int], Mesh]
    #: builder resolution parameter that reproduces paper_vertices
    paper_n: int
    #: paper SCC statistics: (min SCCs, max SCCs, min largest, max largest,
    #: min DAG depth, max DAG depth)
    paper_sccs: "tuple[int, int, int, int, int, int]"


@dataclass
class MeshGroup:
    """An instantiated group: the mesh and its per-ordinate sweep graphs."""

    spec: MeshGroupSpec
    mesh: Mesh
    graphs: "list[CSRGraph]"

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def num_ordinates(self) -> int:
        return len(self.graphs)


SMALL_MESH_SPECS: "tuple[MeshGroupSpec, ...]" = (
    MeshGroupSpec("beam-hex", "small", "Hexahedral", 1, 30, 262_144, 769_000,
                  beam_hex, 32, (262_144, 262_144, 1, 1, 318, 318)),
    MeshGroupSpec("star", "small", "Quadrilateral", 1, 8, 327_680, 654_000,
                  star, 256, (327_680, 327_680, 1, 1, 1_534, 1_534)),
    MeshGroupSpec("torch-hex", "small", "Hexahedral", 1, 32, 264_064, 782_000,
                  torch_hex, 11, (263_213, 263_519, 5, 8, 286, 364)),
    MeshGroupSpec("torch-tet", "small", "Tetrahedral", 1, 32, 515_360, 1_008_000,
                  torch_tet, 8, (513_410, 514_425, 4, 6, 484, 1_335)),
    MeshGroupSpec("toroid-hex", "small", "Hexahedral", 3, 32, 196_608, 581_000,
                  toroid_hex, 16, (189_045, 193_745, 32, 420, 220, 697)),
    MeshGroupSpec("toroid-wedge", "small", "Wedge", 3, 32, 196_608, 486_000,
                  toroid_wedge, 13, (189_981, 193_467, 2, 200, 282, 346)),
)

LARGE_MESH_SPECS: "tuple[MeshGroupSpec, ...]" = (
    MeshGroupSpec("klein-bottle", "large", "Quadrilateral", 3, 8, 8_388_608, 19_000_000,
                  klein_bottle, 1448, (1, 75_750, 8_312_856, 8_388_608, 1, 4)),
    MeshGroupSpec("mobius-strip", "large", "Quadrilateral", 3, 8, 4_194_304, 11_000_000,
                  mobius_strip, 1448, (758_836, 4_194_304, 1, 3_246_558, 1, 15_652)),
    MeshGroupSpec("torch-hex", "large", "Hexahedral", 1, 32, 2_112_512, 6_000_000,
                  torch_hex, 22, (2_109_019, 2_110_311, 6, 16, 583, 752)),
    MeshGroupSpec("torch-tet", "large", "Tetrahedral", 1, 32, 4_122_880, 6_000_000,
                  torch_tet, 15, (4_113_688, 4_117_636, 4, 6, 1_019, 2_745)),
    MeshGroupSpec("toroid-hex", "large", "Hexahedral", 3, 32, 1_572_864, 5_000_000,
                  toroid_hex, 32, (1_535_516, 1_561_334, 64, 1_504, 444, 1_865)),
    MeshGroupSpec("toroid-wedge", "large", "Wedge", 3, 32, 1_572_864, 4_000_000,
                  toroid_wedge, 25, (1_542_117, 1_560_181, 2, 747, 570, 703)),
    MeshGroupSpec("twist-hex", "large", "Hexahedral", 3, 61, 6_291_456, 19_000_000,
                  twist_hex, 46, (1, 1, 6_291_456, 6_291_456, 1, 1)),
)


def default_mesh_scale(table: str) -> float:
    """Linear resolution scale factor (applied to the builder's n).

    Full scale when ``REPRO_FULL=1``; otherwise small meshes run at ~1/32
    of the paper's element counts and large meshes at ~1/128 so the whole
    harness stays laptop-sized (element count scales with n^2 or n^3, so
    the *n* factors below are the cube/square roots of those ratios).
    """
    if os.environ.get("REPRO_FULL", "") == "1":
        return 1.0
    return 0.32 if table == "small" else 0.2


def default_num_ordinates(spec: MeshGroupSpec) -> int:
    if os.environ.get("REPRO_FULL", "") == "1":
        return spec.paper_ordinates
    return min(spec.paper_ordinates, 4)


def build_group(
    spec: MeshGroupSpec,
    *,
    scale: "float | None" = None,
    num_ordinates: "int | None" = None,
) -> MeshGroup:
    """Instantiate one mesh group at the requested scale."""
    if scale is None:
        scale = default_mesh_scale(spec.table)
    if num_ordinates is None:
        num_ordinates = default_num_ordinates(spec)
    n = max(2, int(round(spec.paper_n * scale)))
    mesh = spec.builder(n)
    graphs = [g for _, g in sweep_graphs(mesh, num_ordinates)]
    return MeshGroup(spec=spec, mesh=mesh, graphs=graphs)


def small_mesh_suite(
    *, scale: "float | None" = None, num_ordinates: "int | None" = None,
    names: "list[str] | None" = None,
) -> "list[MeshGroup]":
    """All Table 1 groups (optionally a named subset)."""
    specs = [s for s in SMALL_MESH_SPECS if names is None or s.name in names]
    return [build_group(s, scale=scale, num_ordinates=num_ordinates) for s in specs]


def large_mesh_suite(
    *, scale: "float | None" = None, num_ordinates: "int | None" = None,
    names: "list[str] | None" = None,
) -> "list[MeshGroup]":
    """All Table 2 groups (optionally a named subset)."""
    specs = [s for s in LARGE_MESH_SPECS if names is None or s.name in names]
    return [build_group(s, scale=scale, num_ordinates=num_ordinates) for s in specs]
