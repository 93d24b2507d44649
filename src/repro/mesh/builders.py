"""Builders for the paper's mesh geometries (Table 4).

Each function reproduces one named mesh family:

=============  =============  =====  ==========================================
mesh           element type   order  geometry here
=============  =============  =====  ==========================================
beam-hex       hexahedral     1      straight structured beam (8:1:1)
star           quadrilateral  1      2-D five-pointed star (polar quad grid)
torch-hex      hexahedral     1      plasma-torch cylinder, jittered vertices
torch-tet      tetrahedral    1      same geometry, hexes split into 6 tets
toroid-hex     hexahedral     3      closed solid torus + smooth wobble
toroid-wedge   wedge          3      same torus, hexes split into 2 wedges
mobius-strip   quadrilateral  3      Mobius band surface mesh (+ wobble)
klein-bottle   quadrilateral  3      figure-8 Klein-bottle immersion (+ wobble)
twist-hex      hexahedral     3      closed square-section ring, twisted
=============  =============  =====  ==========================================

Construction idioms:

* *Baked* parametric coordinates: closed geometries (torus, Mobius, Klein,
  twisted ring) are built by evaluating the parametric map at grid nodes
  and welding the periodic seams, so connectivity is genuinely periodic
  and bilinear quad faces are non-planar (varying normals).
* *Transforms* (``mesh.transform``): order-3 curvature on top of the baked
  shape comes from a smooth ambient-space wobble, evaluated exactly at
  face quadrature points by :mod:`repro.mesh.geometry` — the source of
  re-entrant faces.
* *Deterministic jitter*: the torch meshes are low-order but unstructured
  in character; a smooth deterministic vertex jitter reproduces the
  irregular planar-face cycle structure of real unstructured meshes.
"""

from __future__ import annotations

import numpy as np

from ..errors import MeshError
from ..types import FLOAT_DTYPE, VERTEX_DTYPE
from .core import Mesh
from .elements import ElementType
from .transform import sinusoidal_wobble

__all__ = [
    "structured_hex_grid",
    "parametric_hex_grid",
    "parametric_quad_grid",
    "hex_to_tets",
    "hex_to_wedges",
    "jitter_points",
    "beam_hex",
    "star",
    "torch_hex",
    "torch_tet",
    "toroid_hex",
    "toroid_wedge",
    "mobius_strip",
    "klein_bottle",
    "twist_hex",
]


# ---------------------------------------------------------------------------
# grid machinery
# ---------------------------------------------------------------------------

def _node_ids_3d(nx: int, ny: int, nz: int, periodic: "tuple[bool, bool, bool]") -> np.ndarray:
    """Node-index lattice with periodic axes welded by index wrap-around."""
    px, py, pz = periodic
    gx = nx if px else nx + 1
    gy = ny if py else ny + 1
    gz = nz if pz else nz + 1
    ids = np.arange(gx * gy * gz, dtype=VERTEX_DTYPE).reshape(gx, gy, gz)
    ix = np.arange(nx + 1) % gx if px else np.arange(nx + 1)
    iy = np.arange(ny + 1) % gy if py else np.arange(ny + 1)
    iz = np.arange(nz + 1) % gz if pz else np.arange(nz + 1)
    return ids[np.ix_(ix, iy, iz)]


def _hex_cells(nid: np.ndarray) -> np.ndarray:
    """VTK hex connectivity from a (nx+1, ny+1, nz+1) node-id lattice."""
    c000 = nid[:-1, :-1, :-1]
    c100 = nid[1:, :-1, :-1]
    c110 = nid[1:, 1:, :-1]
    c010 = nid[:-1, 1:, :-1]
    c001 = nid[:-1, :-1, 1:]
    c101 = nid[1:, :-1, 1:]
    c111 = nid[1:, 1:, 1:]
    c011 = nid[:-1, 1:, 1:]
    cells = np.stack(
        [c000, c100, c110, c010, c001, c101, c111, c011], axis=-1
    ).reshape(-1, 8)
    return cells.astype(VERTEX_DTYPE)


def structured_hex_grid(
    shape: "tuple[int, int, int]",
    extents: "tuple[float, float, float]" = (1.0, 1.0, 1.0),
    *,
    name: str = "",
) -> Mesh:
    """Axis-aligned box of ``nx*ny*nz`` unit-order hexahedra."""
    nx, ny, nz = shape
    if min(nx, ny, nz) < 1:
        raise MeshError(f"hex grid needs positive shape, got {shape}")
    xs = np.linspace(0.0, extents[0], nx + 1)
    ys = np.linspace(0.0, extents[1], ny + 1)
    zs = np.linspace(0.0, extents[2], nz + 1)
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    points = np.stack([X, Y, Z], axis=-1).reshape(-1, 3)
    nid = np.arange((nx + 1) * (ny + 1) * (nz + 1), dtype=VERTEX_DTYPE).reshape(
        nx + 1, ny + 1, nz + 1
    )
    return Mesh(points, _hex_cells(nid), ElementType.HEX, name=name)


def parametric_hex_grid(
    shape: "tuple[int, int, int]",
    param_fn,
    *,
    periodic: "tuple[bool, bool, bool]" = (False, False, False),
    name: str = "",
) -> Mesh:
    """Hex grid whose node coordinates come from ``param_fn(u, v, w)``.

    ``param_fn`` receives unit-cube parameter arrays and returns ``(..., 3)``
    coordinates; periodic axes are welded (node count = cell count along
    that axis), so ``param_fn`` must agree at parameter 0 and 1 there.
    """
    nx, ny, nz = shape
    periodic = tuple(bool(p) for p in periodic)
    gx = nx if periodic[0] else nx + 1
    gy = ny if periodic[1] else ny + 1
    gz = nz if periodic[2] else nz + 1
    u = (np.arange(gx) / nx)
    v = (np.arange(gy) / ny)
    w = (np.arange(gz) / nz)
    U, V, W = np.meshgrid(u, v, w, indexing="ij")
    pts = np.asarray(param_fn(U, V, W), dtype=FLOAT_DTYPE)
    if pts.shape != (gx, gy, gz, 3):
        raise MeshError(
            f"param_fn must return shape {(gx, gy, gz, 3)}, got {pts.shape}"
        )
    nid = _node_ids_3d(nx, ny, nz, periodic)
    return Mesh(pts.reshape(-1, 3), _hex_cells(nid), ElementType.HEX, name=name)


def parametric_quad_grid(
    shape: "tuple[int, int]",
    param_fn,
    *,
    identify: str = "none",
    name: str = "",
    order: int = 1,
    transform=None,
) -> Mesh:
    """Quad surface grid from ``param_fn(u, v) -> (..., 2|3)`` coordinates.

    ``identify`` welds seams topologically:

    * ``"none"``    — open patch;
    * ``"cyl-u"``   — u periodic (cylinder/annulus);
    * ``"mobius"``  — ``(u+1, v) ~ (u, 1-v)``;
    * ``"klein"``   — ``(u+1, v) ~ (u, 1-v)`` and v periodic;
    * ``"torus"``   — u and v periodic.

    ``param_fn`` must satisfy the chosen identification exactly.
    """
    nu, nv = shape
    if min(nu, nv) < 1:
        raise MeshError(f"quad grid needs positive shape, got {shape}")
    # full node lattice ids, then weld
    nid = np.arange((nu + 1) * (nv + 1), dtype=VERTEX_DTYPE).reshape(nu + 1, nv + 1)
    if identify in ("cyl-u", "torus"):
        nid[nu, :] = nid[0, :]
    elif identify in ("mobius", "klein"):
        nid[nu, :] = nid[0, ::-1]
    elif identify != "none":
        raise MeshError(f"unknown identification {identify!r}")
    if identify in ("torus", "klein"):
        nid[:, nv] = nid[:, 0]
        # re-apply the u seam in case the corner got overwritten
        if identify == "klein":
            nid[nu, :] = nid[0, ::-1]
        else:
            nid[nu, :] = nid[0, :]
    # compress ids to a dense range
    used, dense = np.unique(nid, return_inverse=True)
    nid = dense.reshape(nid.shape).astype(VERTEX_DTYPE)
    # coordinates: evaluate param_fn on the full lattice, take first owner
    uu = np.arange(nu + 1) / nu
    vv = np.arange(nv + 1) / nv
    U, V = np.meshgrid(uu, vv, indexing="ij")
    pts_full = np.asarray(param_fn(U, V), dtype=FLOAT_DTYPE)
    e = pts_full.shape[-1]
    if pts_full.shape != (nu + 1, nv + 1, e) or e not in (2, 3):
        raise MeshError(f"param_fn returned bad shape {pts_full.shape}")
    npts = int(nid.max()) + 1
    points = np.zeros((npts, e), dtype=FLOAT_DTYPE)
    points[nid.ravel()] = pts_full.reshape(-1, e)
    # CCW quad cells
    c00 = nid[:-1, :-1]
    c10 = nid[1:, :-1]
    c11 = nid[1:, 1:]
    c01 = nid[:-1, 1:]
    cells = np.stack([c00, c10, c11, c01], axis=-1).reshape(-1, 4)
    return Mesh(
        points, cells, ElementType.QUAD, transform=transform, order=order, name=name
    )


# ---------------------------------------------------------------------------
# element splitting
# ---------------------------------------------------------------------------

#: 6-tet decomposition of a hex around the 0-6 diagonal; neighbouring
#: structured hexes produce matching face diagonals (verified in tests).
_HEX_TO_TETS = ((0, 1, 2, 6), (0, 2, 3, 6), (0, 3, 7, 6), (0, 7, 4, 6), (0, 4, 5, 6), (0, 5, 1, 6))

#: 2-wedge decomposition of a hex along the 0-2 / 4-6 diagonal plane.
_HEX_TO_WEDGES = ((0, 1, 2, 4, 5, 6), (0, 2, 3, 4, 6, 7))


def hex_to_tets(mesh: Mesh) -> Mesh:
    """Split every hex into 6 tets (conforming on structured grids)."""
    if mesh.element_type is not ElementType.HEX:
        raise MeshError("hex_to_tets requires a hex mesh")
    parts = [mesh.cells[:, list(t)] for t in _HEX_TO_TETS]
    cells = np.stack(parts, axis=1).reshape(-1, 4)
    return Mesh(
        mesh.base_points,
        cells,
        ElementType.TET,
        transform=mesh.transform,
        order=mesh.order,
        name=mesh.name,
    )


def hex_to_wedges(mesh: Mesh) -> Mesh:
    """Split every hex into 2 wedges (conforming on structured grids)."""
    if mesh.element_type is not ElementType.HEX:
        raise MeshError("hex_to_wedges requires a hex mesh")
    parts = [mesh.cells[:, list(w)] for w in _HEX_TO_WEDGES]
    cells = np.stack(parts, axis=1).reshape(-1, 6)
    return Mesh(
        mesh.base_points,
        cells,
        ElementType.WEDGE,
        transform=mesh.transform,
        order=mesh.order,
        name=mesh.name,
    )


def jitter_points(points: np.ndarray, amplitude: float, *, fixed: "np.ndarray | None" = None) -> np.ndarray:
    """Deterministic smooth vertex jitter (unstructured-mesh surrogate).

    Perturbs each coordinate by a product of incommensurate sinusoids of
    the other coordinates — smooth, reproducible, and resolution-stable
    (the perturbation field is a function of position, not of index).
    ``fixed`` masks nodes to keep (e.g. boundaries).
    """
    p = np.asarray(points, dtype=FLOAT_DTYPE)
    out = p.copy()
    e = p.shape[1]
    freqs = (9.3, 12.7, 7.9)
    for ax in range(e):
        wob = np.ones(p.shape[0], dtype=FLOAT_DTYPE)
        for o in range(e):
            if o == ax:
                continue
            wob = wob * np.sin(freqs[(ax + o) % 3] * p[:, o] + 0.71 * (ax + 1) + o)
        out[:, ax] += amplitude * wob
    if fixed is not None:
        out[fixed] = p[fixed]
    return out


# ---------------------------------------------------------------------------
# the named meshes
# ---------------------------------------------------------------------------

def beam_hex(n: int = 16, *, name: str = "beam-hex") -> Mesh:
    """Straight 8:1:1 beam of ``8*n^3`` hexes (order 1; all-trivial SCCs)."""
    m = structured_hex_grid((8 * n, n, n), (8.0, 1.0, 1.0), name=name)
    return m


def star(n: int = 64, *, points_count: int = 5, name: str = "star") -> Mesh:
    """2-D five-pointed star: polar quad grid with R(theta) boundary.

    ``n`` controls resolution; elements = ``n * 5n`` (radial x angular).
    A small inner radius avoids the degenerate pole.  Order 1, acyclic
    sweep graphs with a deep DAG (Table 1: depth ~ perimeter).
    """
    nt, nr = 5 * n, n

    def fn(U, V):
        theta = 2.0 * np.pi * U
        rmax = 1.0 + 0.45 * np.cos(points_count * theta)
        r = 0.08 + (rmax - 0.08) * V
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)

    return parametric_quad_grid((nt, nr), fn, identify="cyl-u", name=name)


def _torch_transform():
    """Box -> tapered cylinder shell (the torch body with a nozzle).

    Applied as a :attr:`Mesh.transform`, so element *faces* follow the
    curved geometry exactly (evaluated at quadrature points), the way a
    mesh fitted to a curved domain behaves.  The base box is
    ``[0,1] x [0,1] x [0,1]`` (azimuthal, radial, axial).
    """

    def fn(p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=FLOAT_DTYPE)
        theta = 1.75 * np.pi * p[..., 0]  # open shell (a slit avoids a seam)
        taper = 1.0 - 0.45 * p[..., 2] ** 2
        r = (0.25 + 0.75 * p[..., 1]) * taper
        return np.stack(
            [r * np.cos(theta), r * np.sin(theta), 4.0 * p[..., 2]], axis=-1
        )

    return fn


def torch_hex(n: int = 12, *, jitter: float = 0.012, name: str = "torch-hex") -> Mesh:
    """Plasma-torch body: tapered cylinder shell, jittered vertices.

    Order 1 elements on a curved domain: faces follow the cylinder taper
    (via the mesh transform) and the deterministic jitter makes the mesh
    irregular, which together give the scattered size 2-8 SCCs of the
    torch rows in Tables 1-2.  Elements = ``12n * 2n * 8n``.
    """
    shape = (12 * n, 2 * n, 8 * n)
    m = structured_hex_grid(shape, (1.0, 1.0, 1.0), name=name)
    pts = jitter_points(m.base_points * np.array([9.0, 1.5, 6.0]), jitter)
    pts = pts / np.array([9.0, 1.5, 6.0])
    return Mesh(pts, m.cells, ElementType.HEX, transform=_torch_transform(), name=name)


def torch_tet(n: int = 10, *, jitter: float = 0.012, name: str = "torch-tet") -> Mesh:
    """Tetrahedral representation of the torch (6 tets per hex).

    Tet faces are planar in the base box but curved through the torch
    transform, so re-entrant faces (and hence small SCC clusters) appear
    exactly as in real curved-domain tet meshes.
    """
    return hex_to_tets(torch_hex(n, jitter=jitter, name=name))


def _torus_param(major: float = 2.0, minor: float = 0.7):
    def fn(U, V, W):
        pol = 2.0 * np.pi * U
        r = minor * (0.35 + 0.65 * V)
        tor = 2.0 * np.pi * W
        ring = major + r * np.cos(pol)
        return np.stack(
            [ring * np.cos(tor), ring * np.sin(tor), r * np.sin(pol)], axis=-1
        )

    return fn


def toroid_hex(n: int = 10, *, wobble: float = 0.05, name: str = "toroid-hex") -> Mesh:
    """Closed solid torus of hexes, order-3 curvature via ambient wobble.

    Elements = ``4n * n * 12n``; poloidal and toroidal directions are
    topologically periodic (welded seams).  The wobble curves faces so
    quadrature normals change sign locally: clusters of small SCCs.
    """
    shape = (4 * n, n, 12 * n)
    m = parametric_hex_grid(
        shape, _torus_param(), periodic=(True, False, True), name=name
    )
    return Mesh(
        m.base_points,
        m.cells,
        ElementType.HEX,
        transform=sinusoidal_wobble(wobble, 2.2),
        order=3,
        name=name,
    )


def toroid_wedge(n: int = 10, *, wobble: float = 0.05, name: str = "toroid-wedge") -> Mesh:
    """Wedge version of the toroid (2 wedges per hex, order 3)."""
    base = toroid_hex(n, wobble=wobble, name=name)
    return hex_to_wedges(base)


def _quad_cell_index(nu: int, nv: int):
    """Element index of quad-grid cell (i, j) (i-major, matching builders)."""
    return lambda i, j: i * nv + j


def _flat_quad_chart(nu: int, nv: int, extents: "tuple[float, float]") -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Open flat rectangle chart: (points, cells, node-id lattice)."""
    xs = np.linspace(0.0, extents[0], nu + 1)
    ys = np.linspace(0.0, extents[1], nv + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    points = np.stack([X, Y], axis=-1).reshape(-1, 2)
    nid = np.arange((nu + 1) * (nv + 1), dtype=VERTEX_DTYPE).reshape(nu + 1, nv + 1)
    c00, c10, c11, c01 = nid[:-1, :-1], nid[1:, :-1], nid[1:, 1:], nid[:-1, 1:]
    cells = np.stack([c00, c10, c11, c01], axis=-1).reshape(-1, 4)
    return points.astype(FLOAT_DTYPE), cells.astype(VERTEX_DTYPE), nid


def mobius_strip(n: int = 64, *, name: str = "mobius-strip") -> Mesh:
    """Mobius band: flat rectangle chart with a reflected x-identification.

    Elements = ``2n * n`` on a quarter-annulus arc chart; element
    ``(nu-1, j)`` glues to ``(0, nv-1-j)`` with the radial coordinate
    reflected (the Mobius quotient).  The chart tangent rotates 90
    degrees along the arc, so a sweep-monotone path through the chart
    back to the seam exists only for ordinates in the opposing quadrants
    — those develop one giant SCC through the glued seam — while the
    remaining ordinates stay completely acyclic.  This reproduces the
    extreme per-ordinate variability of Table 2's mobius-strip row
    (1 .. |V| SCCs, largest 1 .. 0.77|V|).
    """
    nu, nv = 2 * n, n
    radius, width = 2.0, 0.8
    xs = np.arange(nu + 1) / nu
    ys = np.arange(nv + 1) / nv
    U, V = np.meshgrid(xs, ys, indexing="ij")
    theta = 0.5 * np.pi * U  # quarter-arc chart: tangent rotates 90 deg
    r = radius + width * (V - 0.5)
    points = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1).reshape(-1, 2)
    nid = np.arange((nu + 1) * (nv + 1), dtype=VERTEX_DTYPE).reshape(nu + 1, nv + 1)
    c00, c10, c11, c01 = nid[:-1, :-1], nid[1:, :-1], nid[1:, 1:], nid[:-1, 1:]
    cells = np.stack([c00, c10, c11, c01], axis=-1).reshape(-1, 4)
    cell = _quad_cell_index(nu, nv)
    j = np.arange(nv, dtype=VERTEX_DTYPE)
    elem_a = np.asarray([cell(nu - 1, int(jj)) for jj in j], dtype=VERTEX_DTYPE)
    elem_b = np.asarray([cell(0, int(nv - 1 - jj)) for jj in j], dtype=VERTEX_DTYPE)
    # A's x+ boundary edge in A's CCW order: (c10, c11) = (nid[nu,j], nid[nu,j+1])
    nodes_a = np.stack([nid[nu, :-1], nid[nu, 1:]], axis=1).astype(VERTEX_DTYPE)
    counts = np.full(nv, 2, dtype=VERTEX_DTYPE)
    return Mesh(
        points,
        cells,
        ElementType.QUAD,
        order=3,
        name=name,
        identified_faces=(elem_a, elem_b, nodes_a, counts),
    )


def klein_bottle(n: int = 32, *, name: str = "klein-bottle") -> Mesh:
    """Klein bottle: flat rectangle chart, x glued with reflection and y
    glued periodically — the flat Klein-bottle quotient (the surface has
    no embedding in 3-D, so the abstract flat model is the honest one).

    Elements = ``2n * 2n``.  On the flat quotient every constant wind has
    closed flow lines (two x-wraps close any line; y-columns are directed
    cycles outright), so every ordinate yields one giant SCC spanning the
    mesh — Table 2's klein-bottle row (largest SCC ~ |V| for all 8
    ordinates, DAG depth 1-4).
    """
    nu, nv = 2 * n, 2 * n
    points, cells, nid = _flat_quad_chart(nu, nv, (2.0, 2.0))
    cell = _quad_cell_index(nu, nv)
    j = np.arange(nv, dtype=VERTEX_DTYPE)
    i = np.arange(nu, dtype=VERTEX_DTYPE)
    # x-seam, reflected (Mobius-style)
    ea_x = np.asarray([cell(nu - 1, int(jj)) for jj in j], dtype=VERTEX_DTYPE)
    eb_x = np.asarray([cell(0, int(nv - 1 - jj)) for jj in j], dtype=VERTEX_DTYPE)
    nodes_x = np.stack([nid[nu, :-1], nid[nu, 1:]], axis=1).astype(VERTEX_DTYPE)
    # y-seam, plain periodic; A's y+ edge in CCW order is (c11, c01)
    ea_y = np.asarray([cell(int(ii), nv - 1) for ii in i], dtype=VERTEX_DTYPE)
    eb_y = np.asarray([cell(int(ii), 0) for ii in i], dtype=VERTEX_DTYPE)
    nodes_y = np.stack([nid[1:, nv], nid[:-1, nv]], axis=1).astype(VERTEX_DTYPE)
    elem_a = np.concatenate([ea_x, ea_y])
    elem_b = np.concatenate([eb_x, eb_y])
    nodes_a = np.vstack([nodes_x, nodes_y])
    counts = np.full(elem_a.size, 2, dtype=VERTEX_DTYPE)
    return Mesh(
        points,
        cells,
        ElementType.QUAD,
        order=3,
        name=name,
        identified_faces=(elem_a, elem_b, nodes_a, counts),
    )


def twist_hex(n: int = 8, *, twists: int = 3, name: str = "twist-hex") -> Mesh:
    """The MFEM twist miniapp: a z-periodic bar whose ends are glued with
    a rotation of ``twists`` quarter turns (Table 4: twists 3 and 6).

    Elements = ``2n * 2n * 16n``.  The bar itself is straight; the glued
    identification means every ordinate with a nonzero axial component
    drives flux around the periodic direction forever — the sweep graph
    is a single SCC containing every element (Table 2: twist-hex, 1 SCC,
    DAG depth 1, for all ordinates).
    """
    m_cs = 2 * n
    nz = 16 * n
    half_w = 0.6
    length = 6.0
    mesh = structured_hex_grid(
        (m_cs, m_cs, nz), (2 * half_w, 2 * half_w, length), name=name
    )

    # element (i, j, k) index in the structured grid (i-major, then j, k)
    def cell(i, j, k):
        return (i * m_cs + j) * nz + k

    # rotate cross-section CELL (i, j) by `twists` quarter turns
    def rot_cell(i, j, times):
        for _ in range(times % 4):
            i, j = j, m_cs - 1 - i
        return i, j

    nid = np.arange((m_cs + 1) * (m_cs + 1) * (nz + 1), dtype=VERTEX_DTYPE).reshape(
        m_cs + 1, m_cs + 1, nz + 1
    )
    elem_a = []
    elem_b = []
    nodes_a = []
    for i in range(m_cs):
        for j in range(m_cs):
            ri, rj = rot_cell(i, j, twists)
            elem_a.append(cell(i, j, nz - 1))
            elem_b.append(cell(ri, rj, 0))
            # A's top face (local 4,5,6,7) = nodes at the z = L plane
            nodes_a.append(
                [nid[i, j, nz], nid[i + 1, j, nz], nid[i + 1, j + 1, nz], nid[i, j + 1, nz]]
            )
    return Mesh(
        mesh.base_points,
        mesh.cells,
        ElementType.HEX,
        order=3,
        name=name,
        identified_faces=(
            np.asarray(elem_a, dtype=VERTEX_DTYPE),
            np.asarray(elem_b, dtype=VERTEX_DTYPE),
            np.asarray(nodes_a, dtype=VERTEX_DTYPE),
            np.full(len(elem_a), 4, dtype=VERTEX_DTYPE),
        ),
    )
