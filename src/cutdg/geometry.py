"""Cartesian background mesh, half-plane clipping and cut-cell mesh construction.

The physical domain is a box intersected with a list of affine half-planes
``{a*x + b*y >= c}``.  Every cut cell is therefore convex with straight faces,
so each face carries a single constant unit normal.

The mesh is held as arrays indexed by cell and face id (see
:class:`CutCellMesh`); all cut cells are clipped at once, on padded
(cells, vertices, 2) arrays.  :class:`CutCell` is a record built from
those arrays on access, one cell at a time.
"""

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AdjacentSmallCellsError,
    BoundaryInflowError,
    ConfigurationError,
    MeshValidationError,
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


@dataclass(frozen=True)
class HalfPlane:
    """Kept region {a*x + b*y >= c} with (a, b) of unit length."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        norm = self.a * self.a + self.b * self.b
        if not abs(norm - 1.0) <= 1e-14:   # NaN fails too
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


def _compact(values, mask):
    """Move each row's masked entries of values (n, m, 2) to the row's front,
    in order: (rows padded to the largest count or 1, count per row)."""
    count = mask.sum(axis=1)
    out = np.zeros((len(mask), max(count.max(initial=0), 1), 2))
    out[np.nonzero(mask)[0], np.cumsum(mask, axis=1)[mask] - 1] = values[mask]
    return out, count


def _clip_halfplane(poly, count, halfplane, snap):
    """Sutherland-Hodgman against {a*x + b*y >= c} for a stack of convex
    counterclockwise polygons, padded (n, m, 2) with ``count`` vertices each.

    Vertex k emits itself if it is kept (within ``snap``) and then the
    crossing of its edge to vertex k + 1, so each row's output keeps the
    order of a sequential pass.
    """
    n, m = count.size, poly.shape[1]
    k = np.arange(m)
    valid = k < count[:, None]
    nxt = np.where(k + 1 < count[:, None], k + 1, 0)
    d = halfplane.signed_distance(poly)
    w = np.take_along_axis(poly, nxt[..., None], axis=1)
    dw = np.take_along_axis(d, nxt, axis=1)
    keep = valid & (d >= -snap)
    cross = valid & np.where(d >= -snap, (dw < -snap) & (d > snap), dw > snap)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = d / (d - dw)
        x = poly + t[..., None] * (w - poly)
    emitted = np.stack([poly, x], axis=2).reshape(n, 2 * m, 2)
    return _compact(emitted, np.stack([keep, cross], axis=2).reshape(n, 2 * m))


def _dedupe(poly, count, tol):
    """Merge consecutive vertices closer than tol (max-norm) in each row.

    A vertex is compared with the last vertex kept before it; then, while
    the first and the last kept vertex are that close, the last one goes.
    """
    n, m = count.size, poly.shape[1]
    keep = np.zeros((n, m), dtype=bool)
    keep[:, 0] = count > 0
    last = poly[:, 0].copy()
    for k in range(1, m):
        v = poly[:, k]
        far = np.maximum(np.abs(v[:, 0] - last[:, 0]), np.abs(v[:, 1] - last[:, 1])) > tol
        keep[:, k] = far & (k < count)
        last[keep[:, k]] = v[keep[:, k]]
    poly, count = _compact(poly, keep)
    rows = np.arange(n)
    while True:
        first, end = poly[:, 0], poly[rows, np.maximum(count - 1, 0)]
        close = (count > 1) & (
            np.maximum(np.abs(first[:, 0] - end[:, 0]), np.abs(first[:, 1] - end[:, 1])) <= tol
        )
        if not close.any():
            return poly, count
        count = count - close


def _clip_boxes(boxes, constraints, snap, drop, h):
    """Clip a stack of cell boxes (n, 4, 2) against every constraint at once.

    Returns the polygons padded to a common vertex count, (n, m, 2), each
    one's vertex count and its area; the count is 0 where nothing is left:
    fewer than three vertices after a constraint (merging vertices within
    ``snap``) or after merging those within ``drop``, or an area at or
    below ``AREA_FRAC * h**2``.
    """
    poly = boxes
    count = np.full(len(boxes), 4)
    for hp in constraints:
        poly, count = _dedupe(*_clip_halfplane(poly, count, hp, snap), max(snap, 0.0))
        count[count < 3] = 0
    poly, count = _dedupe(poly, count, drop)
    count[count < 3] = 0
    area = np.zeros(len(count))
    for c in np.unique(count[count > 0]).tolist():
        rows = count == c
        area[rows] = polygon_area(poly[rows, :c])
    count[area <= AREA_FRAC * h * h] = 0
    return poly, count, area


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


class _Records(Sequence):
    """Read-only sequence whose items are built by ``make(index)`` on access."""

    def __init__(self, size, make):
        self._size = size
        self._make = make

    def __len__(self):
        return self._size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._make(i) for i in range(*index.indices(self._size))]
        i = operator.index(index)
        if not -self._size <= i < self._size:
            raise IndexError(f"index {i} out of range for {self._size} records")
        return self._make(i % self._size)


class CutCellMesh:
    """Background mesh clipped against the geometry, with face topology.

    The mesh is a set of arrays.  Per cell: ``cell_ij`` and
    ``cell_centers`` (cells, 2), ``cell_area`` and ``cell_volume_fraction``
    (cells,).  The polygons are stored flat: cell c's counterclockwise
    vertices are ``cell_vertices[cell_offsets[c]:cell_offsets[c + 1]]``, and
    as each edge is one face (the edge from vertex k to vertex k + 1), the
    same offsets index the cell's face ids in ``cell_face_ids``.  Per face:
    ``face_p``, ``face_q`` and ``face_normal`` (faces, 2), ``face_left`` and
    ``face_right`` (faces,), the latter -1 on boundary faces.

    ``cells[cid]`` is a sequence that builds a :class:`CutCell` record from
    the arrays on access, for callers that want one cell as an object.
    """

    def __init__(self, bg, cell_grid, cell_ij, cell_vertices, cell_offsets,
                 cell_face_ids, cell_area, face_p, face_q, face_normal, face_left, face_right):
        self.bg = bg
        self._cell_grid = cell_grid   # (ny, nx) cell id, -1 where no cell is kept
        self.cell_ij = cell_ij
        self.cell_centers = np.stack(
            [bg.x0 + (cell_ij[:, 0] + 0.5) * bg.h, bg.y0 + (cell_ij[:, 1] + 0.5) * bg.h], axis=-1
        )
        self.cell_vertices = cell_vertices
        self.cell_offsets = cell_offsets
        self.cell_face_ids = cell_face_ids
        self.cell_area = cell_area
        self.cell_volume_fraction = cell_area / (bg.h * bg.h)
        # shared by every basis on the mesh and viewed by the records
        for a in (self.cell_centers, cell_vertices, cell_offsets, cell_face_ids, cell_area,
                  self.cell_volume_fraction):
            a.flags.writeable = False
        self.face_p = face_p
        self.face_q = face_q
        self.face_normal = face_normal
        self.face_left = face_left
        self.face_right = face_right

    # the view is made on access: a mesh holding a view of its own bound
    # method would be a reference cycle, left to the cyclic garbage
    # collector instead of being freed with its last reference
    @property
    def cells(self):
        return _Records(len(self.cell_ij), self._cell_record)

    def _cell_record(self, cid):
        lo, hi = self.cell_offsets[cid:cid + 2].tolist()
        i, j = self.cell_ij[cid].tolist()
        return CutCell(cid, (i, j), self.cell_vertices[lo:hi], float(self.cell_area[cid]),
                       float(self.cell_volume_fraction[cid]), self.cell_face_ids[lo:hi].tolist())

    @property
    def num_cells(self):
        return len(self.cell_ij)

    def cell_faces(self, cell_id):
        """Face ids of a cell, in the order of its polygon's edges."""
        return self.cell_face_ids[self.cell_offsets[cell_id]:self.cell_offsets[cell_id + 1]]

    def cell_polygon(self, cell_id):
        """A cell's counterclockwise vertices, one per face."""
        return self.cell_vertices[self.cell_offsets[cell_id]:self.cell_offsets[cell_id + 1]]

    def outward_normal(self, cell_id, face_id):
        return self.orientation(cell_id, face_id) * self.face_normal[face_id]

    def orientation(self, cell_id, face_id):
        """+1 if the cell is the face's left cell, -1 if it is the right one."""
        if self.face_left[face_id] == cell_id:
            return 1.0
        if self.face_right[face_id] == cell_id:
            return -1.0
        raise KeyError((cell_id, face_id))

    def neighbor(self, cell_id, face_id):
        left, right = int(self.face_left[face_id]), int(self.face_right[face_id])
        if right < 0:
            return None
        return right if left == cell_id else left

    def dump(self):
        """Plain-text mesh dump: cell header, vertex lines, face lines."""
        kinds = np.where(self.face_right < 0, "boundary", "internal").tolist()
        face_lines = [f"f {f} {kind} {n0:.17g} {n1:.17g}"
                      for f, (kind, (n0, n1)) in enumerate(zip(kinds, self.face_normal.tolist()))]
        vertex_lines = [f"v {x:.17g} {y:.17g}" for x, y in self.cell_vertices.tolist()]
        bounds = self.cell_offsets.tolist()
        fids = self.cell_face_ids.tolist()
        lines = []
        for cid, ((i, j), area) in enumerate(zip(self.cell_ij.tolist(), self.cell_area.tolist())):
            lo, hi = bounds[cid], bounds[cid + 1]
            lines.append(f"cell {cid} {i} {j} {area:.17g}")
            lines.extend(vertex_lines[lo:hi])
            lines.extend(face_lines[f] for f in fids[lo:hi])
        return "\n".join(lines) + "\n"


def _grid_line(value, origin, h, count, tol):
    """Index k where value sits on grid line origin + k*h (0 <= k <= count), else -1."""
    k = np.rint((value - origin) / h).astype(np.int64)
    on = (k >= 0) & (k <= count) & (np.abs(value - (origin + k * h)) <= tol)
    return np.where(on, k, -1)


def build_mesh(bg, constraints):
    """Clip every background cell against the half-planes ``constraints``
    (:class:`HalfPlane` or (a, b, c) triples) and extract faces.

    Cells with (numerically) zero intersection area are omitted.  Raises
    :class:`ConfigurationError` when the kept region has no area at all.

    The corner signed distances sort the background cells into fully inside
    (kept as their box), fully outside (dropped) and cut; the cut cells are
    clipped all at once, on padded arrays.  Cells are numbered in row-major
    (j, i) order.  Faces are numbered as they are first met in one flat
    array of every cell's edges, in cell order and each polygon's vertex
    order; a later encounter of an internal face narrows it to the overlap
    of the cells' edges.

    Only the band around the cut is searched for that.  An uncut cell's
    edges are its box's bottom, right, top and left, and its neighbours are
    read off the grid: its right and top edges create a face each, and its
    bottom and left edges toward an uncut neighbour take that neighbour's
    top and right faces.  The cut cells' edges are matched to grid lines,
    and they and the uncut cells' edges toward a cut cell are grouped by
    the pair of cells they separate.
    """
    h = bg.h
    snap = SNAP_FRAC * h
    drop = DROP_FRAC * h
    constraints = [hp if isinstance(hp, HalfPlane) else HalfPlane(*hp) for hp in constraints]

    # box sides: column i spans x0 + i h to (x0 + i h) + h, row j alike
    xl = bg.x0 + np.arange(bg.nx) * h
    yb = bg.y0 + np.arange(bg.ny) * h
    xr, yt = xl + h, yb + h

    def boxes(i, j):
        """Boxes of the background cells in columns ``i`` and rows ``j``,
        (n, 4, 2), counterclockwise from the lower left corner."""
        x0, x1, y0, y1 = xl[i], xr[i], yb[j], yt[j]
        return np.stack([x0, y0, x1, y0, x1, y1, x0, y1], axis=-1).reshape(-1, 4, 2)

    inside = np.ones((bg.ny, bg.nx), dtype=bool)
    outside = np.zeros((bg.ny, bg.nx), dtype=bool)
    for hp in constraints:
        # a corner's distance is (x a + y b) - c; rounding is monotone, so
        # the lowest (highest) one takes the lower (higher) x and y terms
        ax, by = np.stack([xl * hp.a, xr * hp.a]), np.stack([yb * hp.b, yt * hp.b])
        inside &= (ax.min(axis=0) + by.min(axis=0)[:, None]) - hp.c >= -snap
        outside |= (ax.max(axis=0) + by.max(axis=0)[:, None]) - hp.c < -snap
    inside, outside = inside.ravel(), outside.ravel()
    cut = np.flatnonzero(~inside & ~outside)
    cut_poly, cut_count, cut_area = _clip_boxes(boxes(cut % bg.nx, cut // bg.nx), constraints,
                                                snap, drop, h)
    survives = cut_count > 0
    cut_poly, cut_count = cut_poly[survives], cut_count[survives]

    kept_mask = inside.copy()
    kept_mask[cut[survives]] = True
    kept = np.flatnonzero(kept_mask)
    if not len(kept):
        raise ConfigurationError("geometry leaves no domain: kept region has zero area")
    ncells = len(kept)
    cell_grid = np.full(bg.ny * bg.nx, -1, dtype=np.int64)
    cell_grid[kept] = np.arange(ncells)
    cell_grid = cell_grid.reshape(bg.ny, bg.nx)
    cell_ij = np.stack([kept % bg.nx, kept // bg.nx], axis=-1)
    was_cut = ~inside[kept]
    full, cut_cells = np.flatnonzero(~was_cut), np.flatnonzero(was_cut)
    nv = np.full(ncells, 4)
    nv[cut_cells] = cut_count
    start = np.concatenate([[0], np.cumsum(nv)])

    # flat edges: edge e of cell e_cell[e] runs from V[e] to V[nxt[e]].  An
    # uncut cell's edges are bottom, right, top and left; row[e] says where
    # an edge's data is, uncut cells' first, then the cut cells'
    fi, fj = cell_ij.take(full, axis=0).T
    full_boxes = boxes(fi, fj)
    full_edges = start.take(full)[:, None] + np.arange(4)
    slots = np.arange(cut_poly.shape[1]) < cut_count[:, None]
    ce = (start[cut_cells, None] + np.arange(cut_poly.shape[1]))[slots]
    row = np.empty(start[-1], dtype=np.int64)
    row[full_edges] = np.arange(full_edges.size).reshape(-1, 4)
    row[ce] = full_edges.size + np.arange(len(ce))
    V = np.concatenate([full_boxes.reshape(-1, 2), cut_poly[slots]]).take(row, axis=0)
    nxt = np.arange(1, len(V) + 1)
    nxt[start[1:] - 1] = start[:-1]
    e_cell = np.repeat(np.arange(ncells), nv)
    area = np.empty(ncells)
    # polygon_area of the box: its shoelace terms, summed in its order
    (x0, y0), (x1, y1) = full_boxes[:, 0].T, full_boxes[:, 2].T
    area[full] = 0.5 * ((((x0 * y0 - x1 * y0) + (x1 * y1 - x1 * y0)) + (x1 * y1 - x0 * y1))
                        + (x0 * y0 - x0 * y1))
    area[cut_cells] = cut_area[survives]

    # the cell across each edge, -1 on a wall: read off the grid below,
    # right of, above and left of an uncut cell; a cut cell's edge is
    # internal if it lies on an inner grid line with a kept cell across it
    w = bg.nx + 2
    pad = np.full((bg.ny + 2, w), -1, dtype=np.int64)
    pad[1:-1, 1:-1] = cell_grid
    across = pad.reshape(-1)[((fj + 1) * w + fi + 1)[:, None] + np.array([-w, 1, w, -1])]
    v, u = cut_poly[slots], V.take(nxt[ce], axis=0)
    ei, ej = np.repeat(cell_ij[cut_cells], cut_count, axis=0).T
    line_tol = 1e-11 * h
    vertical = np.abs(v[:, 0] - u[:, 0]) <= line_tol
    horizontal = ~vertical & (np.abs(v[:, 1] - u[:, 1]) <= line_tol)
    kv = np.where(vertical, _grid_line(v[:, 0], bg.x0, h, bg.nx, line_tol), -1)
    kh = np.where(horizontal, _grid_line(v[:, 1], bg.y0, h, bg.ny, line_tol), -1)
    axis = np.where((kv > 0) & (kv < bg.nx), 0, np.where((kh > 0) & (kh < bg.ny), 1, -1))
    ni = np.where(axis == 0, np.where(ei == kv, ei - 1, ei + 1), ei)
    nj = np.where(axis == 1, np.where(ej == kh, ej - 1, ej + 1), ej)
    valid = (axis >= 0) & (ni >= 0) & (ni < bg.nx) & (nj >= 0) & (nj < bg.ny)
    cut_across = np.full(len(ce), -1, dtype=np.int64)
    cut_across[valid] = cell_grid[nj[valid], ni[valid]]
    nb = np.concatenate([across.reshape(-1), cut_across]).take(row)

    # the band's internal edges between one pair of cells make one face;
    # sorting by edge position last keeps each group in encounter order
    kind = np.append(was_cut.astype(np.int8), -1)[across]   # 1 cut, 0 uncut, -1 none
    ie = np.concatenate([ce[cut_across >= 0], full_edges[kind == 1]])
    lo = np.minimum(e_cell[ie], nb[ie])
    hi = np.maximum(e_cell[ie], nb[ie])
    perm = np.lexsort((ie, hi, lo))
    order, lo, hi = ie[perm], lo[perm], hi[perm]
    group_head = np.ones(len(order), dtype=bool)
    group_head[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    heads = np.flatnonzero(group_head)
    first = order[heads][np.cumsum(group_head) - 1]

    # face ids: each creating edge's rank in flat order.  An uncut cell's
    # bottom (left) edge toward an uncut cell takes that cell's top (right)
    # face, and a band edge its group's first edge's face
    creates = np.ones(len(V), dtype=bool)
    creates[order] = first == order
    bottom, left = np.flatnonzero(kind[:, 0] == 0), np.flatnonzero(kind[:, 3] == 0)
    creates[start[full[bottom]]] = False
    creates[start[full[left]] + 3] = False
    src = np.flatnonzero(creates)
    fid = np.empty(len(V), dtype=np.int64)
    fid[src] = np.arange(len(src))
    fid[start[full[bottom]]] = fid[start[across[bottom, 0]] + 2]
    fid[start[full[left]] + 3] = fid[start[across[left, 3]] + 1]
    fid[order] = fid[first]

    # face data in face-id order, read off the edge that created each face:
    # a boundary face keeps its edge, an internal one runs along the axis
    # from its left cell (the lower one, so the smaller id) to the right one
    cells, other, ends = e_cell[src], nb[src], nxt[src]
    wall = other < 0
    face_left = np.where(wall, cells, np.minimum(cells, other))
    face_right = np.where(wall, -1, np.maximum(cells, other))
    x, y = V.T
    px, qx = x.take(src), x.take(ends)
    vertical = np.abs(px - qx) <= line_tol
    swap = ~wall & np.where(vertical, y.take(src) > y.take(ends), px > qx)
    face_p = V.take(np.where(swap, ends, src), axis=0)
    face_q = V.take(np.where(swap, src, ends), axis=0)
    face_normal = np.stack([vertical, ~vertical], axis=-1).astype(float)
    walls = np.flatnonzero(wall)
    edge = face_q.take(walls, axis=0) - face_p.take(walls, axis=0)
    face_normal[walls] = np.stack([edge[:, 1], -edge[:, 0]], axis=-1) / np.hypot(edge[:, 0], edge[:, 1])[:, None]

    # an internal face met again is narrowed to the overlap of the edges
    if len(order):
        to = (cell_ij[lo, 1] == cell_ij[hi, 1]).astype(np.int64)   # y on vertical lines
        vt, wt = V[order, to], V[nxt[order], to]
        seg_lo = np.maximum.reduceat(np.minimum(vt, wt), heads)
        seg_hi = np.minimum.reduceat(np.maximum(vt, wt), heads)
        many = np.diff(np.append(heads, len(order))) > 1
        bad = np.flatnonzero(many & (seg_hi - seg_lo <= drop))
        if len(bad):
            # the first failure in encounter order, as a sequential pass finds it
            g = heads[bad[np.argmin(order[heads[bad] + 1])]]
            raise MeshValidationError(
                f"cells {lo[g]} and {hi[g]} share grid line but no face overlap"
            )
        gf = fid[order[heads]]
        gt = to[heads]
        face_p[gf, gt] = seg_lo
        face_q[gf, gt] = seg_hi

    # only the band's faces can be short: an uncut cell's own faces span h
    band = fid[np.concatenate([ce, order])]
    span = face_q.take(band, axis=0) - face_p.take(band, axis=0)
    short = band[np.hypot(span[:, 0], span[:, 1]) <= drop]
    if len(short):
        raise MeshValidationError(f"face {short.min()} shorter than drop tolerance")

    return CutCellMesh(bg, cell_grid, cell_ij, V, start, fid, area,
                       face_p, face_q, face_normal, face_left, face_right)


def _faces_of(mesh, cell_ids):
    """Every face of the cells ``cell_ids``, in cell order and each cell's
    face order: (position of the owning cell in ``cell_ids``, face id)."""
    lo = mesh.cell_offsets[cell_ids]
    n = mesh.cell_offsets[cell_ids + 1] - lo
    slot = np.repeat(np.arange(len(cell_ids)), n)
    return slot, mesh.cell_face_ids[np.arange(n.sum()) + (lo - np.cumsum(n) + n)[slot]]


def _inflow(mesh, owner, fids, beta):
    """Whether face fids[i] is strictly inflow for ``beta`` seen from owner[i]."""
    beta = np.asarray(beta, dtype=float)
    tol = 1e-12 * float(np.hypot(*beta))
    n = mesh.face_normal[fids] * np.where(mesh.face_left[fids] == owner, 1.0, -1.0)[:, None]
    return n[:, 0] * beta[0] + n[:, 1] * beta[1] < -tol


def upstream_cells(mesh, cell_ids, beta):
    """The cell across each cell's inflow face for the velocity ``beta``.
    Each cell must have exactly one inflow face, and it must be internal;
    the first offender in cell order, then face order, is named."""
    cell_ids = np.asarray(cell_ids, dtype=int)
    slot, fids = _faces_of(mesh, cell_ids)
    inflow = _inflow(mesh, cell_ids[slot], fids, beta)
    count = np.bincount(slot[inflow], minlength=len(cell_ids))
    wall = np.bincount(slot[inflow & (mesh.face_right[fids] < 0)], minlength=len(cell_ids))
    bad = np.flatnonzero((count != 1) | (wall > 0))
    if len(bad):
        s = bad[0]
        if count[s] != 1:
            raise MeshValidationError(
                f"stabilized cell {cell_ids[s]} has {count[s]} inflow faces; exactly one required"
            )
        raise BoundaryInflowError(
            f"stabilized cell {cell_ids[s]}: inflow face {fids[(slot == s) & inflow][0]} lies "
            "on the physical boundary"
        )
    # one inflow face per cell, in cell order; its other cell is left + right - own
    up = fids[inflow]
    return mesh.face_left[up] + mesh.face_right[up] - cell_ids


def classify_small_cells(mesh, alpha0):
    """Select cells with volume fraction below ``alpha0`` and validate them;
    the selected cell ids, ascending, as a tuple.

    No two selected cells may share a face; the first offender in cell
    order, then face order, is named.  The advection penalty checks the
    inflow faces of the cells it is built on (:func:`upstream_cells`).
    """
    if not 0.0 < alpha0 < 1.0:
        raise ConfigurationError(f"alpha0 must lie in (0, 1), got {alpha0}")
    small = np.flatnonzero(mesh.cell_volume_fraction < alpha0)
    slot, fids = _faces_of(mesh, small)
    owner = small[slot]
    nb = mesh.face_left[fids] + mesh.face_right[fids] - owner   # the other cell, -1 outside
    is_small = np.zeros(mesh.num_cells + 1, dtype=bool)   # the extra entry answers nb = -1
    is_small[small] = True
    adjacent = np.flatnonzero(is_small[nb])
    if len(adjacent):
        a = adjacent[0]
        cid, other = int(owner[a]), int(nb[a])
        raise AdjacentSmallCellsError(
            f"stabilized cells {min(cid, other)} and {max(cid, other)} share face {fids[a]}; "
            "adjacent small cells are not supported"
        )
    return tuple(small.tolist())
