"""Cartesian background mesh, half-plane clipping and cut-cell mesh construction.

The physical domain is a box intersected with a list of affine half-planes
``{a*x + b*y >= c}``.  Every cut cell is therefore convex with straight faces,
so each face carries a single constant unit normal.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    MeshValidationError,
    UnsupportedConfigurationError,
)

# Tolerances relative to the mesh size h.
SNAP_FRAC = 1e-12    # vertex snap tolerance used during clipping
DROP_FRAC = 1e-10    # edges shorter than this are dropped
AREA_FRAC = 1e-12    # cells with area below AREA_FRAC*h^2 are omitted


@dataclass(frozen=True)
class BackgroundMesh:
    """Structured Cartesian mesh of the bounding box with square cells."""

    x0: float
    y0: float
    x1: float
    y1: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ConfigurationError("nx and ny must be >= 1")
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ConfigurationError("box corners must satisfy x1 > x0 and y1 > y0")
        h = (self.x1 - self.x0) / self.nx
        hy = (self.y1 - self.y0) / self.ny
        if abs(hy - h) > 1e-14 * h:
            raise ConfigurationError(
                f"cells must be square: (x1-x0)/nx = {h!r} but (y1-y0)/ny = {hy!r}"
            )

    @property
    def h(self):
        return (self.x1 - self.x0) / self.nx

    def cell_center(self, i, j):
        h = self.h
        return np.array([self.x0 + (i + 0.5) * h, self.y0 + (j + 0.5) * h])

    def cell_box(self, i, j):
        h = self.h
        x = self.x0 + i * h
        y = self.y0 + j * h
        return np.array([[x, y], [x + h, y], [x + h, y + h], [x, y + h]])

    def cell_boxes(self):
        """Every cell's box, shape (ny * nx, 4, 2), in row-major (j, i) order."""
        h = self.h
        j, i = np.divmod(np.arange(self.nx * self.ny), self.nx)
        x = self.x0 + i * h
        y = self.y0 + j * h
        return np.stack([
            np.stack([x, y], axis=-1), np.stack([x + h, y], axis=-1),
            np.stack([x + h, y + h], axis=-1), np.stack([x, y + h], axis=-1),
        ], axis=1)


@dataclass(frozen=True)
class HalfPlane:
    """Kept region {a*x + b*y >= c} with (a, b) of unit length."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        norm = self.a * self.a + self.b * self.b
        if abs(norm - 1.0) > 1e-14:
            raise ConfigurationError(
                f"half-plane normal ({self.a}, {self.b}) must have unit length"
            )

    def signed_distance(self, pts):
        pts = np.asarray(pts, dtype=float)
        return pts[..., 0] * self.a + pts[..., 1] * self.b - self.c


def halfplane_from_line(slope, offset, keep_above=True):
    """Half-plane for the region above (or below) the line y = offset + slope*x."""
    norm = np.hypot(slope, 1.0)
    a, b, c = -slope / norm, 1.0 / norm, offset / norm
    if not keep_above:
        a, b, c = -a, -b, -c
    return HalfPlane(a, b, c)


@dataclass(frozen=True)
class Geometry:
    constraints: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))


def polygon_area(poly):
    """Signed shoelace area (positive for counterclockwise order).

    Takes one polygon (n, 2) or a stack of polygons with a common vertex
    count (..., n, 2); either way the sum runs over the vertices in order.
    """
    poly = np.asarray(poly, dtype=float)
    if poly.shape[-2] < 3:
        return 0.0
    x = poly[..., 0]
    y = poly[..., 1]
    return 0.5 * np.sum(x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y, axis=-1)


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

    @property
    def length(self):
        return float(np.hypot(*(self.q - self.p)))

    @property
    def line_offset(self):
        """Offset d of the carrying line {x . normal = d}."""
        return float(self.normal @ self.p)

    def midpoint(self):
        return 0.5 * (self.p + self.q)


@dataclass
class CutCell:
    id: int
    ij: tuple
    polygon: np.ndarray          # counterclockwise, one vertex per face
    area: float
    volume_fraction: float
    face_ids: list = field(default_factory=list)

    @property
    def num_faces(self):
        return len(self.face_ids)


class CutCellMesh:
    """Background mesh clipped against the geometry, with face topology.

    Besides the ``cells`` and ``faces`` objects the mesh keeps their data as
    arrays indexed by cell or face id: ``cell_ij`` (cells, 2) and
    ``cell_centers`` (cells, 2); ``face_p``, ``face_q`` and ``face_normal``
    (faces, 2), which the face objects view, and ``face_left`` /
    ``face_right`` (faces,), the latter -1 on boundary faces.
    """

    def __init__(self, bg, geometry, cells, faces, cell_grid, cell_ij,
                 face_p, face_q, face_normal, face_left, face_right):
        self.bg = bg
        self.geometry = geometry
        self.cells = cells
        self.faces = faces
        self._cell_grid = cell_grid   # (ny, nx) cell id, -1 where no cell is kept
        self.cell_ij = cell_ij
        self.cell_centers = np.stack(
            [bg.x0 + (cell_ij[:, 0] + 0.5) * bg.h, bg.y0 + (cell_ij[:, 1] + 0.5) * bg.h], axis=-1
        )
        self.cell_centers.flags.writeable = False   # shared by every basis on the mesh
        self.face_p = face_p
        self.face_q = face_q
        self.face_normal = face_normal
        self.face_left = face_left
        self.face_right = face_right

    @property
    def num_cells(self):
        return len(self.cells)

    def cell_at(self, i, j):
        if not (0 <= i < self.bg.nx and 0 <= j < self.bg.ny):
            return None
        cid = int(self._cell_grid[j, i])
        return cid if cid >= 0 else None

    def outward_normal(self, cell_id, face_id):
        return self.orientation(cell_id, face_id) * self.faces[face_id].normal

    def orientation(self, cell_id, face_id):
        """+1 if the cell is the face's left cell, -1 if it is the right one."""
        if self.face_left[face_id] == cell_id:
            return 1.0
        if self.face_right[face_id] == cell_id:
            return -1.0
        raise KeyError((cell_id, face_id))

    def neighbor(self, cell_id, face_id):
        face = self.faces[face_id]
        if face.kind == "boundary":
            return None
        return face.right_cell if face.left_cell == cell_id else face.left_cell

    def cell_center(self, cell_id):
        return self.bg.cell_center(*self.cells[cell_id].ij)

    def total_area(self):
        return sum(c.area for c in self.cells)

    def dump(self):
        """Plain-text mesh dump: cell header, vertex lines, face lines."""
        lines = []
        for cell in self.cells:
            i, j = cell.ij
            lines.append(f"cell {cell.id} {i} {j} {cell.area:.17g}")
            for v in cell.polygon:
                lines.append(f"v {v[0]:.17g} {v[1]:.17g}")
            for fid in cell.face_ids:
                face = self.faces[fid]
                lines.append(
                    f"f {face.id} {face.kind} {face.normal[0]:.17g} {face.normal[1]:.17g}"
                )
        return "\n".join(lines) + "\n"


def _grid_line(value, origin, h, count, tol):
    """Index k where value sits on grid line origin + k*h (0 <= k <= count), else -1."""
    k = np.rint((value - origin) / h).astype(np.int64)
    on = (k >= 0) & (k <= count) & (np.abs(value - (origin + k * h)) <= tol)
    return np.where(on, k, -1)


def _clip_cut_cell(box, constraints, snap, drop, h):
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


def build_mesh(bg, geometry):
    """Clip every background cell against the geometry and extract faces.

    Cells with (numerically) zero intersection area are omitted.  Raises
    :class:`ConfigurationError` when the kept region has no area at all.

    The corner signed distances sort the background cells into fully inside
    (kept as their box), fully outside (dropped) and cut; only cut cells are
    clipped one by one.  Cells are numbered in row-major (j, i) order.  Faces
    come from one flat array of every cell's edges, in cell order and each
    polygon's vertex order, and are numbered at their first encounter there;
    a later encounter of an internal face narrows it to the overlap of the
    cells' edges.
    """
    h = bg.h
    snap = SNAP_FRAC * h
    drop = DROP_FRAC * h
    constraints = [hp if isinstance(hp, HalfPlane) else HalfPlane(*hp)
                   for hp in geometry.constraints]

    boxes = bg.cell_boxes()
    inside = np.ones(len(boxes), dtype=bool)
    outside = np.zeros(len(boxes), dtype=bool)
    for hp in constraints:
        d = hp.signed_distance(boxes)
        inside &= np.all(d >= -snap, axis=1)
        outside |= np.all(d < -snap, axis=1)
    clipped = {}
    for b in np.flatnonzero(~inside & ~outside).tolist():
        result = _clip_cut_cell(boxes[b], constraints, snap, drop, h)
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
    return CutCellMesh(bg, geometry, cells, faces, cell_grid, cell_ij,
                       face_p, face_q, face_normal, face_left, face_right)


@dataclass(frozen=True)
class SmallCellSet:
    """Cells selected for stabilization: volume fraction below the threshold."""

    cell_ids: tuple
    threshold: float

    def __contains__(self, cell_id):
        return cell_id in set(self.cell_ids)

    def __iter__(self):
        return iter(self.cell_ids)

    def __len__(self):
        return len(self.cell_ids)


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
    """Select cells with volume fraction below ``alpha0`` and validate them.

    No two selected cells may share a face.  When ``beta`` is given
    (advection), every selected cell must additionally have exactly one
    inflow face and that face must be internal.
    """
    if not 0.0 < alpha0 < 1.0:
        raise ConfigurationError(f"alpha0 must lie in (0, 1), got {alpha0}")
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
                raise MeshValidationError(
                    f"stabilized cell {cid} has {len(inflow)} inflow faces; exactly one required"
                )
            if mesh.faces[inflow[0]].kind != "internal":
                raise UnsupportedConfigurationError(
                    f"stabilized cell {cid}: inflow face {inflow[0]} lies on the "
                    "physical boundary"
                )
    return SmallCellSet(tuple(small), alpha0)


def orthogonal_projection(x, face):
    """Project a point onto the infinite line carrying the face."""
    x = np.asarray(x, dtype=float)
    n = face.normal
    d = face.line_offset
    return x - (x @ n - d)[..., None] * n if x.ndim > 1 else x - (float(x @ n) - d) * n
