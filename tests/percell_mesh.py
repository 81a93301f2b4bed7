"""Per-cell mesh construction and cut-cell quadrature: the test oracles.

The array-based ``geometry.build_mesh`` clips every cut cell at once and
keeps the mesh as flat arrays; ``quadrature.Space`` builds all cut cells'
fan rules, tables and masses in one pass.  This module keeps the per-cell
forms they replaced: Sutherland-Hodgman clipping of one polygon at a time
(``clip_polygon``, ``_dedupe``, ``clip_cut_cell``), ``build_mesh`` with its
eager ``CutCell`` and ``Face`` lists, and ``mass_matrix`` /
``cut_cell_tables`` built cell by cell from ``polygon_quadrature`` and
``monomial_values``, and the small-cell selection walking the cell records
(``classify_small_cells``, ``inflow_faces``).
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from cutdg.errors import (
    ConfigurationError,
    InflowCountError,
    MeshValidationError,
    UnsupportedConfigurationError,
)
from cutdg.geometry import (
    AREA_FRAC,
    DROP_FRAC,
    SNAP_FRAC,
    CutCell,
    HalfPlane,
    polygon_area,
)
from cutdg.quadrature import monomial_gradients, monomial_values, polygon_quadrature


@dataclass
class Face:
    """Mesh face with the global left/right orientation convention.

    For internal faces the unit normal points from ``left_cell`` into
    ``right_cell``; for boundary faces it is outward from ``left_cell``.
    """

    id: int
    kind: str                    # "internal" | "boundary"
    p: np.ndarray
    q: np.ndarray
    normal: np.ndarray
    left_cell: int
    right_cell: int = None


def clip_polygon(poly, halfplane, snap=0.0):
    """Clip a convex counterclockwise polygon against a half-plane.

    Sutherland-Hodgman against the kept region {a*x + b*y >= c}.  Vertices on
    the line (within ``snap``) are retained once; an empty intersection
    returns an empty array.
    """
    poly = np.asarray(poly, dtype=float)
    if len(poly) == 0:
        return poly.reshape(0, 2)
    if isinstance(halfplane, tuple):
        halfplane = HalfPlane(*halfplane)
    d = halfplane.signed_distance(poly)
    out = []
    n = len(poly)
    for k in range(n):
        v, dv = poly[k], d[k]
        w, dw = poly[(k + 1) % n], d[(k + 1) % n]
        if dv >= -snap:
            out.append(v)
            if dw < -snap and dv > snap:
                t = dv / (dv - dw)
                out.append(v + t * (w - v))
        elif dw > snap:
            t = dv / (dv - dw)
            out.append(v + t * (w - v))
    if not out:
        return np.zeros((0, 2))
    return _dedupe(np.array(out), max(snap, 0.0))


def _dedupe(poly, tol):
    """Merge consecutive vertices closer than tol (also first vs last)."""
    if len(poly) == 0:
        return poly
    keep = [poly[0]]
    for v in poly[1:]:
        if max(abs(v[0] - keep[-1][0]), abs(v[1] - keep[-1][1])) > tol:
            keep.append(v)
    while len(keep) > 1 and max(abs(keep[0][0] - keep[-1][0]), abs(keep[0][1] - keep[-1][1])) <= tol:
        keep.pop()
    return np.array(keep)


def _grid_line(value, origin, h, count, tol):
    """Index k where value sits on grid line origin + k*h (0 <= k <= count), else -1."""
    k = np.rint((value - origin) / h).astype(np.int64)
    on = (k >= 0) & (k <= count) & (np.abs(value - (origin + k * h)) <= tol)
    return np.where(on, k, -1)


def cell_boxes(bg):
    """Every background cell's box, shape (ny * nx, 4, 2), in row-major (j, i) order."""
    h = bg.h
    j, i = np.divmod(np.arange(bg.nx * bg.ny), bg.nx)
    x = bg.x0 + i * h
    y = bg.y0 + j * h
    return np.stack([
        np.stack([x, y], axis=-1), np.stack([x + h, y], axis=-1),
        np.stack([x + h, y + h], axis=-1), np.stack([x, y + h], axis=-1),
    ], axis=1)


def clip_cut_cell(box, constraints, snap, drop, h):
    """Clip one cell the constraints cut: (polygon, area), or None if nothing is left."""
    poly = box
    for hp in constraints:
        poly = clip_polygon(poly, hp, snap)
        if len(poly) < 3:
            return None
    poly = _dedupe(poly, drop)
    if len(poly) < 3:
        return None
    area = float(polygon_area(poly))
    if area <= AREA_FRAC * h * h:
        return None
    return poly, area


def build_mesh(bg, constraints):
    """The mesh as lists of ``CutCell`` and ``Face`` records, cut cells
    clipped one by one: a namespace with ``cells``, ``faces``, ``cell_ij``
    and ``cell_grid``.

    Cells are numbered in row-major (j, i) order.  Faces come from one flat
    array of every cell's edges, in cell order and each polygon's vertex
    order, and are numbered at their first encounter there; a later
    encounter of an internal face narrows it to the overlap of the cells'
    edges.
    """
    h = bg.h
    snap = SNAP_FRAC * h
    drop = DROP_FRAC * h
    constraints = [hp if isinstance(hp, HalfPlane) else HalfPlane(*hp) for hp in constraints]

    boxes = cell_boxes(bg)
    inside = np.ones(len(boxes), dtype=bool)
    outside = np.zeros(len(boxes), dtype=bool)
    for hp in constraints:
        d = hp.signed_distance(boxes)
        inside &= np.all(d >= -snap, axis=1)
        outside |= np.all(d < -snap, axis=1)
    clipped = {}
    for b in np.flatnonzero(~inside & ~outside).tolist():
        result = clip_cut_cell(boxes[b], constraints, snap, drop, h)
        if result is not None:
            clipped[b] = result

    kept = np.union1d(np.flatnonzero(inside), np.fromiter(clipped, dtype=np.int64))
    if not len(kept):
        raise ConfigurationError("geometry leaves no domain: kept region has zero area")
    ncells = len(kept)
    cell_grid = np.full(bg.ny * bg.nx, -1, dtype=np.int64)
    cell_grid[kept] = np.arange(ncells)
    cell_grid = cell_grid.reshape(bg.ny, bg.nx)
    cell_ij = np.stack([kept % bg.nx, kept // bg.nx], axis=-1)
    polys = list(boxes[kept])
    areas = polygon_area(boxes[kept]).tolist()
    for cid in np.flatnonzero(~inside[kept]).tolist():
        polys[cid], areas[cid] = clipped[int(kept[cid])]

    # flat edge arrays: edge e of cell e_cell[e] runs from V[e] to W[e]
    nv = np.array([len(poly) for poly in polys])
    start = np.concatenate([[0], np.cumsum(nv)])
    V = np.concatenate(polys)
    nxt = np.arange(1, len(V) + 1)
    nxt[start[1:] - 1] = start[:-1]
    W = V[nxt]
    e_cell = np.repeat(np.arange(ncells), nv)
    ei, ej = cell_ij[e_cell].T
    edge = W - V
    outward = np.stack([edge[:, 1], -edge[:, 0]], axis=-1) / np.hypot(edge[:, 0], edge[:, 1])[:, None]

    # an edge on an inner grid line with a kept cell across it is internal
    line_tol = 1e-11 * h
    vertical = np.abs(V[:, 0] - W[:, 0]) <= line_tol
    horizontal = ~vertical & (np.abs(V[:, 1] - W[:, 1]) <= line_tol)
    kv = np.where(vertical, _grid_line(V[:, 0], bg.x0, h, bg.nx, line_tol), -1)
    kh = np.where(horizontal, _grid_line(V[:, 1], bg.y0, h, bg.ny, line_tol), -1)
    axis = np.where((kv > 0) & (kv < bg.nx), 0, np.where((kh > 0) & (kh < bg.ny), 1, -1))
    line_k = np.where(axis == 0, kv, kh)
    ni = np.where(axis == 0, np.where(ei == kv, ei - 1, ei + 1), ei)
    nj = np.where(axis == 1, np.where(ej == kh, ej - 1, ej + 1), ej)
    valid = (axis >= 0) & (ni >= 0) & (ni < bg.nx) & (nj >= 0) & (nj < bg.ny)
    nb = np.full(len(V), -1, dtype=np.int64)
    nb[valid] = cell_grid[nj[valid], ni[valid]]
    ie = np.flatnonzero(nb >= 0)

    # internal edges with one (cell pair, axis, grid line) make one face;
    # sorting by edge position last keeps each group in encounter order
    lo = np.minimum(e_cell, nb)[ie]
    hi = np.maximum(e_cell, nb)[ie]
    perm = np.lexsort((ie, line_k[ie], axis[ie], hi, lo))
    order = ie[perm]
    keys = np.stack([lo[perm], hi[perm], axis[order], line_k[order]])
    group_head = np.ones(len(order), dtype=bool)
    group_head[1:] = np.any(keys[:, 1:] != keys[:, :-1], axis=0)
    heads = np.flatnonzero(group_head)
    first = np.empty(len(V), dtype=np.int64)
    first[order] = order[heads][np.cumsum(group_head) - 1]

    creates = np.ones(len(V), dtype=bool)
    creates[ie] = first[ie] == ie
    src = np.flatnonzero(creates)
    fid = np.empty(len(V), dtype=np.int64)
    fid[src] = np.arange(len(src))
    fid[ie] = fid[first[ie]]

    # face data in face-id order, read off the edge that created each face:
    # a boundary face keeps its edge, an internal one runs along the axis
    # from its left cell (on the lower side of the line) to the right one
    face_left = e_cell[src]
    face_right = np.full(len(src), -1, dtype=np.int64)
    face_p = V[src]
    face_q = W[src]
    face_normal = outward[src]
    fi = np.flatnonzero(nb[src] >= 0)
    e = src[fi]
    t = 1 - axis[e]   # varying coordinate: y on vertical lines, x on horizontal ones
    own = np.where(axis[e] == 0, ei[e], ej[e])
    left = np.where(own == line_k[e] - 1, e_cell[e], nb[e])
    face_left[fi] = left
    face_right[fi] = np.where(left == e_cell[e], nb[e], e_cell[e])
    face_normal[fi] = np.where((axis[e] == 0)[:, None], [1.0, 0.0], [0.0, 1.0])
    swap = (V[e, t] > W[e, t])[:, None]
    face_p[fi] = np.where(swap, W[e], V[e])
    face_q[fi] = np.where(swap, V[e], W[e])

    # an internal face met again is narrowed to the overlap of the edges
    if len(order):
        to = 1 - axis[order]
        vt, wt = V[order, to], W[order, to]
        seg_lo = np.maximum.reduceat(np.minimum(vt, wt), heads)
        seg_hi = np.minimum.reduceat(np.maximum(vt, wt), heads)
        shared = np.diff(np.append(heads, len(order))) > 1
        bad = np.flatnonzero(shared & (seg_hi - seg_lo <= drop))
        if len(bad):
            # the first failure in encounter order, as a sequential pass finds it
            g = heads[bad[np.argmin(order[heads[bad] + 1])]]
            raise MeshValidationError(
                f"cells {keys[0, g]} and {keys[1, g]} share grid line but no face overlap"
            )
        gf = fid[order[heads]]
        gt = to[heads]
        face_p[gf, gt] = seg_lo
        face_q[gf, gt] = seg_hi

    span = face_q - face_p
    short = np.flatnonzero(np.hypot(span[:, 0], span[:, 1]) <= drop)
    if len(short):
        raise MeshValidationError(f"face {short[0]} shorter than drop tolerance")

    faces = [
        Face(f, "boundary", p, q, n, lc)
        if rc < 0 else Face(f, "internal", p, q, n, lc, rc)
        for f, (p, q, n, lc, rc) in enumerate(
            zip(face_p, face_q, face_normal, face_left.tolist(), face_right.tolist())
        )
    ]
    fids = fid.tolist()
    bounds = start.tolist()
    cells = [
        CutCell(cid, (i, j), polys[cid], areas[cid], areas[cid] / (h * h),
                fids[bounds[cid]:bounds[cid + 1]])
        for cid, (i, j) in enumerate(cell_ij.tolist())
    ]
    return SimpleNamespace(cells=cells, faces=faces, cell_ij=cell_ij, cell_grid=cell_grid)


def mass_matrix(cell, space):
    """Gram matrix of the scaled monomials over the cut cell (per component)."""
    pts, w = polygon_quadrature(cell.polygon, 2 * space.degree + 2)
    phi = monomial_values(space.exps, space.centers[cell.id], space.h, pts)
    mat = phi.T @ (w[:, None] * phi)
    return 0.5 * (mat + mat.T)


def cut_cell_tables(cell, space):
    """One cut cell's fan rule and tables, as ``Space`` built them cell by
    cell: (points, weights, values, gradients, mass, mode integrals)."""
    pts, w = polygon_quadrature(cell.polygon, 2 * space.degree + 2)
    center = space.centers[cell.id]
    phi = monomial_values(space.exps, center, space.h, pts)
    grad = monomial_gradients(space.exps, center, space.h, pts)
    mat = phi.T @ (w[:, None] * phi)
    return pts, w, phi, grad, 0.5 * (mat + mat.T), w @ phi


def inflow_faces(mesh, cell_id, beta):
    """Face ids of ``cell_id`` whose outward flux direction is strictly inflow."""
    beta = np.asarray(beta, dtype=float)
    tol = 1e-12 * float(np.hypot(*beta))
    result = []
    for fid in mesh.cells[cell_id].face_ids:
        n = mesh.outward_normal(cell_id, fid)
        if float(beta @ n) < -tol:
            result.append(fid)
    return result


def classify_small_cells(mesh, alpha0, beta=None):
    """The small-cell selection and its checks, walking the cell records:
    the sorted ids of the cells below ``alpha0``."""
    small = sorted(c.id for c in mesh.cells if c.volume_fraction < alpha0)
    small_set = set(small)
    for cid in small:
        for fid in mesh.cells[cid].face_ids:
            nb = mesh.neighbor(cid, fid)
            if nb is not None and nb in small_set:
                raise MeshValidationError(
                    f"stabilized cells {min(cid, nb)} and {max(cid, nb)} share face {fid}; "
                    "adjacent small cells are not supported"
                )
    if beta is not None:
        for cid in small:
            inflow = inflow_faces(mesh, cid, beta)
            if len(inflow) != 1:
                raise InflowCountError(
                    f"stabilized cell {cid} has {len(inflow)} inflow faces; exactly one required"
                )
            if mesh.face_right[inflow[0]] < 0:
                raise UnsupportedConfigurationError(
                    f"stabilized cell {cid}: inflow face {inflow[0]} lies on the "
                    "physical boundary"
                )
    return small
