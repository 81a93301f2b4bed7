import hashlib
from pathlib import Path

import numpy as np
import pytest

import percell_mesh
from conftest import ramp_mesh, uncut_mesh
from percell_mesh import clip_polygon
from cutdg.errors import (AdjacentSmallCellsError, BoundaryInflowError, ConfigurationError,
                          InflowCountError, MeshValidationError)
from cutdg.geometry import (
    SNAP_FRAC,
    BackgroundMesh,
    HalfPlane,
    build_mesh,
    classify_small_cells,
    halfplane_from_line,
    polygon_area,
    upstream_cells,
)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


# ---------------------------------------------------------------------- clip


def test_clip_noop():
    out = clip_polygon(UNIT_SQUARE, HalfPlane(1.0, 0.0, 0.0))
    assert abs(polygon_area(out) - 1.0) < 1e-15


def test_clip_corner_triangle_off():
    # removing the right triangle with legs 0.5 leaves area 1 - 0.125
    s = np.sqrt(0.5)
    out = clip_polygon(UNIT_SQUARE, HalfPlane(s, s, 0.5 * s))
    assert len(out) == 5
    assert abs(polygon_area(out) - 0.875) < 1e-14


def test_clip_disjoint_halfplane_empty():
    out = clip_polygon(UNIT_SQUARE, HalfPlane(1.0, 0.0, 2.0))
    assert len(out) == 0


def test_clip_preserves_ccw_and_convexity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        angle = rng.uniform(0, 2 * np.pi)
        a, b = np.cos(angle), np.sin(angle)
        c = rng.uniform(-0.5, 0.5)
        out = clip_polygon(UNIT_SQUARE, HalfPlane(a, b, c))
        if len(out) >= 3:
            assert polygon_area(out) > 0
            # convex: every cross product of consecutive edges nonnegative
            e = np.roll(out, -1, axis=0) - out
            cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
            assert np.all(cross > -1e-12)


# ---------------------------------------------------------------------- mesh


def test_single_uncut_cell():
    mesh = uncut_mesh(nx=1, ny=1)
    assert mesh.num_cells == 1
    cell = mesh.cells[0]
    assert abs(cell.volume_fraction - 1.0) < 1e-15
    assert cell.num_faces == 4
    assert np.all(mesh.face_right[cell.face_ids] < 0)


def test_single_cell_pentagon():
    s = np.sqrt(0.5)
    bg = BackgroundMesh(0, 0, 1, 1, 1, 1)
    mesh = build_mesh(bg, [HalfPlane(s, s, 0.5 * s)])
    cell = mesh.cells[0]
    assert abs(cell.volume_fraction - 0.875) < 1e-14
    assert cell.num_faces == 5


def test_ramp_area_matches_analytic():
    # kept above y = 0.3 + 0.2 x on the unit box: area = 1 - (0.3 + 0.4)/2
    bg = BackgroundMesh(0, 0, 1, 1, 4, 4)
    mesh = build_mesh(bg, [halfplane_from_line(0.2, 0.3)])
    assert abs(mesh.cell_area.sum() - 0.6) < 1e-13


def test_partition_random_ramps():
    rng = np.random.default_rng(3)
    for _ in range(10):
        slope = rng.uniform(0.1, 0.55)
        offset = rng.uniform(0.05, 0.4)
        bg = BackgroundMesh(0, 0, 1, 1, 8, 8)
        mesh = build_mesh(bg, [halfplane_from_line(slope, offset)])
        exact = 1.0 - (offset + offset + slope) / 2.0   # trapezoid below the line
        assert abs(mesh.cell_area.sum() - exact) < 1e-12 * max(exact, 1.0)


def test_degenerate_geometry_rejected():
    bg = BackgroundMesh(0, 0, 1, 1, 2, 2)
    with pytest.raises(ConfigurationError):
        build_mesh(bg, [HalfPlane(1.0, 0.0, 5.0)])


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (float("nan"), 0.8)])
def test_halfplane_normal_must_have_unit_length(a, b):
    with pytest.raises(ConfigurationError, match="unit length"):
        HalfPlane(a, b, 0.1)


def test_face_topology_invariants():
    mesh = ramp_mesh(nx=8, ny=8)
    h = mesh.bg.h
    # every face appears in exactly the cells it claims
    owners_of = {}
    for cell in mesh.cells:
        for fid in cell.face_ids:
            owners_of.setdefault(fid, []).append(cell.id)
    length = np.hypot(*(mesh.face_q - mesh.face_p).T)
    for fid, (left, right) in enumerate(zip(mesh.face_left.tolist(), mesh.face_right.tolist())):
        owners = owners_of[fid]
        if right >= 0:
            assert sorted(owners) == sorted([left, right])
            assert left != right
        else:
            assert owners == [left]
        assert length[fid] > 1e-10 * h
        assert abs(np.hypot(*mesh.face_normal[fid]) - 1.0) <= 1e-14

    # closed polygon: outward normals integrate to zero per cell
    for cell in mesh.cells:
        total = np.zeros(2)
        for fid in cell.face_ids:
            total += mesh.outward_normal(cell.id, fid) * length[fid]
        assert np.linalg.norm(total) < 1e-12 * h * cell.num_faces


def test_internal_faces_lie_on_both_polygons():
    mesh = ramp_mesh(nx=8, ny=8)
    h = mesh.bg.h
    for fid in np.flatnonzero(mesh.face_right >= 0).tolist():
        for cid in (mesh.face_left[fid], mesh.face_right[fid]):
            poly = mesh.cells[cid].polygon
            for pt in (mesh.face_p[fid], mesh.face_q[fid]):
                d = _point_polygon_distance(pt, poly)
                assert d <= 1e-12 * h


def _point_polygon_distance(pt, poly):
    best = np.inf
    n = len(poly)
    for k in range(n):
        a, b = poly[k], poly[(k + 1) % n]
        ab = b - a
        t = np.clip(np.dot(pt - a, ab) / np.dot(ab, ab), 0.0, 1.0)
        best = min(best, float(np.hypot(*(a + t * ab - pt))))
    return best


def test_left_right_convention():
    mesh = uncut_mesh(nx=2, ny=1, box=(0.0, 0.0, 2.0, 1.0))
    internal = np.flatnonzero(mesh.face_right >= 0)
    assert len(internal) == 1
    fid = internal[0]
    # normal points from left into right
    assert np.allclose(mesh.face_normal[fid], [1.0, 0.0])
    assert mesh.cells[mesh.face_left[fid]].ij == (0, 0)
    assert mesh.cells[mesh.face_right[fid]].ij == (1, 0)


# ------------------------------------------------------------- small cells


def test_small_cells_empty_when_uncut():
    mesh = uncut_mesh(2, 2)
    assert len(classify_small_cells(mesh, 0.4)) == 0


def test_small_cells_selected_by_threshold():
    mesh = ramp_mesh(nx=8, ny=8)
    small = classify_small_cells(mesh, 0.25)
    assert len(small) >= 1
    for cid in small:
        assert mesh.cells[cid].volume_fraction < 0.25
    for cell in mesh.cells:
        if cell.id not in set(small):
            assert cell.volume_fraction >= 0.25


def test_adjacent_small_cells_rejected():
    # gentle slope: two neighbouring cut cells both drop below the threshold
    bg = BackgroundMesh(0, 0, 1, 1, 4, 4)
    mesh = build_mesh(bg, [halfplane_from_line(0.3, 0.115)])
    with pytest.raises(AdjacentSmallCellsError) as err:
        classify_small_cells(mesh, 0.4)
    assert "share face" in str(err.value)


def test_single_inflow_validation():
    mesh = ramp_mesh(nx=16, ny=16)
    small = classify_small_cells(mesh, 0.25)
    upstream = upstream_cells(mesh, small, (1.0, 0.2))
    for cid, up in zip(small, upstream.tolist()):
        faces = percell_mesh.inflow_faces(mesh, cid, (1.0, 0.2))
        assert len(faces) == 1
        assert mesh.face_right[faces[0]] >= 0
        assert up == mesh.neighbor(cid, faces[0])


def test_wrong_inflow_count_rejected():
    mesh = ramp_mesh(nx=16, ny=16)
    # reversed flow: the left and wall faces of each sliver are both inflow
    with pytest.raises(InflowCountError):
        upstream_cells(mesh, classify_small_cells(mesh, 0.25), (-1.0, -0.2))


def test_boundary_inflow_rejected():
    mesh = ramp_mesh(nx=16, ny=16)
    # upward flow: the wall is each sliver's single inflow face
    with pytest.raises(BoundaryInflowError):
        upstream_cells(mesh, classify_small_cells(mesh, 0.25), (0.0, 1.0))


def test_alpha0_range_validated():
    mesh = uncut_mesh(2, 2)
    with pytest.raises(ConfigurationError):
        classify_small_cells(mesh, 1.5)


def test_background_mesh_requires_square_cells():
    with pytest.raises(ConfigurationError):
        BackgroundMesh(0, 0, 1, 2, 4, 4)


def test_mesh_dump_format():
    mesh = uncut_mesh(2, 2)
    dump = mesh.dump()
    lines = dump.strip().splitlines()
    assert lines[0].startswith("cell 0 0 0 ")
    kinds = {ln.split()[2] for ln in lines if ln.startswith("f ")}
    assert kinds == {"internal", "boundary"}
    assert sum(1 for ln in lines if ln.startswith("cell ")) == 4


# ------------------------------------------------------------ recorded meshes

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# sha256 of mesh.dump() and of every face's (id, kind, left, right, p, q,
# normal), recorded from the cell-by-cell clipping and face-extraction code
# that the array-based build_mesh replaced
MESH_HASHES = {
    "conservation-bump.cfg": (
        "baea176c920ea55426aa5cda5119d9b3cae5b62c3d7d52bf9708b8f162d501cd",
        "7881054416a01797ebc544593bbab84ce723f8511d70479d176ec5d9d5c7931f",
    ),
    "consistency-acoustics.cfg": (
        "a9913fb8890b638fba8d0063740610a451444e82afa56ff0cbd5f60cd583a438",
        "436d892472136b1ba1cb1d08a56975c9ee75f66217c15fff1532363cbe208e4d",
    ),
    "consistency-advection.cfg": (
        "42ad7ad9aac6a9ca02ee57cbaee023ae334592ecdf61c52a4843c2c405b7bb07",
        "07fdae866cfa15e05cffe8bc37494952eb70052909b31d171a3100c017f41916",
    ),
    "convergence-advection.cfg": (
        "9c3a89be3fe939fa8e4490e784570c7fc7709eae26da3e7c0816b402c307d491",
        "251b29c3064c816f5c3efd46182c55036956807bb282e0aaa905b89bccfc4bed",
    ),
    "stability-sliver.cfg": (
        "941da18d4b9a0bf1be44daf66ce42709a1330f81ed0a75d7de4a4717308198b7",
        "0a71a2ab38174cde48d798755f65364f75e1eab4028c8071015b1f2bd68f3c31",
    ),
    "ramp-acoustics-r1-1e-6-nx128": (
        "092d6da10025aeaf0948c0ef2b2b8967e28988ae928b44b97b649ea2d63b1101",
        "bda9f20d29e47422044dee84c5a2a934bda6654dfc30b5f2f1daca609a7b697d",
    ),
    "ramp-advection-r2-1e-8-nx16": (
        "a9913fb8890b638fba8d0063740610a451444e82afa56ff0cbd5f60cd583a438",
        "436d892472136b1ba1cb1d08a56975c9ee75f66217c15fff1532363cbe208e4d",
    ),
    "single-cell-pentagon": (
        "2b9a83b7366dda40d1f8964ee6e75fea251b5a13a2146a3275bdcc38979f820f",
        "8968ae5e9716fd718c0dc9d9fc36dc510885909b6fc9c1702e111120eb099026",
    ),
}


def _recorded_mesh(name):
    from cutdg.config import load_config
    from cutdg.experiments import ramp_config

    if name.endswith(".cfg"):
        cfg = load_config(str(CONFIGS / name))
    elif name == "single-cell-pentagon":
        s = np.sqrt(0.5)
        return build_mesh(BackgroundMesh(0, 0, 1, 1, 1, 1), [HalfPlane(s, s, 0.5 * s)])
    elif name == "ramp-acoustics-r1-1e-6-nx128":
        cfg = ramp_config("acoustics", 1, 1e-6, nx=128)
    else:
        cfg = ramp_config("advection", 2, 1e-8, nx=16)
    return build_mesh(cfg.background(), cfg.constraints)


def _faces_digest(mesh):
    digest = hashlib.sha256()
    for fid, (left, right) in enumerate(zip(mesh.face_left.tolist(), mesh.face_right.tolist())):
        kind, right = ("boundary", None) if right < 0 else ("internal", right)
        digest.update(f"{fid} {kind} {left} {right}".encode())
        digest.update(np.asarray([mesh.face_p[fid], mesh.face_q[fid], mesh.face_normal[fid]],
                                 dtype=float).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(MESH_HASHES))
def test_mesh_matches_recorded_hashes(name):
    mesh = _recorded_mesh(name)
    dump_hash, faces_hash = MESH_HASHES[name]
    assert hashlib.sha256(mesh.dump().encode()).hexdigest() == dump_hash
    assert _faces_digest(mesh) == faces_hash


def test_mesh_arrays_match_cell_objects():
    mesh = ramp_mesh(nx=8, ny=8)
    bg, h = mesh.bg, mesh.bg.h
    for cell in mesh.cells:
        assert tuple(mesh.cell_ij[cell.id]) == cell.ij
        i, j = cell.ij
        center = np.array([bg.x0 + (i + 0.5) * h, bg.y0 + (j + 0.5) * h])
        assert np.array_equal(mesh.cell_centers[cell.id], center)


# ------------------------------------------- array mesh vs the per-cell oracle


def _ramp_case(nx, slope, offset):
    return BackgroundMesh(0, 0, 1, 1, nx, nx), [halfplane_from_line(slope, offset)]


def _config_case(name):
    from cutdg.config import load_config

    cfg = load_config(str(CONFIGS / name))
    return cfg.background(), cfg.constraints


SNAP_NEAR = 0.4 * SNAP_FRAC / 4   # within SNAP_FRAC * h of a vertex at nx = 4
ORACLE_CASES = {
    **{f"ramp-nx{nx}-slope{slope}-offset{offset:.4g}": (nx, slope, offset)
       for nx in (4, 16)
       for slope in (0.0, 0.3, 0.75, 1.0, 2.5)
       # 0.5 puts the horizontal line on a grid line and the slope-1 line
       # through grid vertices
       for offset in (0.0, 1.3 / nx, 0.3, 0.5)},
    **{f"ramp-nx128-slope{slope}": (128, slope, 1.3 / 128) for slope in (0.0, 0.3, 0.75, 1.0, 2.5)},
    # y = 0.25 + 0.5 x passes through the grid vertex (0.5, 0.5) at nx = 4
    "ramp-through-vertex": (4, 0.5, 0.25),
    "ramp-snap-above-vertex": (4, 0.5, 0.25 + SNAP_NEAR),
    "ramp-snap-below-vertex": (4, 0.5, 0.25 - SNAP_NEAR),
    "wedge-two": (16, (halfplane_from_line(0.4, 0.2),
                       halfplane_from_line(-1.2, 1.1, keep_above=False))),
    # apex on the grid vertex (0.5, 0.5)
    "wedge-two-apex-on-vertex": (4, (halfplane_from_line(0.5, 0.25),
                                     halfplane_from_line(-1.5, 1.25, keep_above=False))),
    "wedge-three": (16, (halfplane_from_line(0.4, 0.2),
                         halfplane_from_line(-1.2, 1.1, keep_above=False),
                         HalfPlane(1.0, 0.0, 0.0625 + 0.3 / 16))),
    "wedge-three-nx128": (128, (halfplane_from_line(0.4, 0.2),
                                halfplane_from_line(-1.2, 1.1, keep_above=False),
                                HalfPlane(1.0, 0.0, 0.0625 + 0.3 / 128))),
    **{name: name for name in sorted(p.name for p in CONFIGS.glob("*.cfg"))},
    "ramp-acoustics-r1-1e-6-nx128": "ramp-acoustics-r1-1e-6-nx128",
    "uncut-nx4": (4, ()),
    "uncut-nx128": (128, ()),
    "off-origin-box": (BackgroundMesh(-1, 0.5, 2, 2, 12, 6), (halfplane_from_line(0.3, 0.9),)),
    "ramp-below-nx16": (16, (halfplane_from_line(0.3, 0.6, keep_above=False),)),
    # the line cuts the single cell's lower right corner off
    "pentagon-nx1": (1, (halfplane_from_line(1.0, -0.5),)),
    **{f"corpus-{k:03d}-nx16": ("corpus", k) for k in range(202)},
}


def _oracle_case(spec):
    if isinstance(spec, str):
        return _recorded_bg_geometry(spec)
    if spec[0] == "corpus":
        from conftest import generic_cuts
        from cutdg.experiments import line_config

        cfg = line_config("acoustics", 1, *generic_cuts()[spec[1]], nx=16)
        return cfg.background(), cfg.constraints
    if isinstance(spec[0], BackgroundMesh):
        return spec
    if len(spec) == 2:
        nx, constraints = spec
        return BackgroundMesh(0, 0, 1, 1, nx, nx), constraints
    return _ramp_case(*spec)


def _recorded_bg_geometry(name):
    from cutdg.experiments import ramp_config

    if name.endswith(".cfg"):
        return _config_case(name)
    cfg = ramp_config("acoustics", 1, 1e-6, nx=128)
    return cfg.background(), cfg.constraints


def _oracle_arrays(oracle):
    """The oracle's cell and face records laid out as the mesh's arrays."""
    cells, faces = oracle.cells, oracle.faces
    return {
        "cell_ij": oracle.cell_ij,
        "cell_vertices": np.concatenate([c.polygon for c in cells]),
        "cell_offsets": np.cumsum([0] + [len(c.polygon) for c in cells]),
        "cell_face_ids": np.concatenate([c.face_ids for c in cells]),
        "cell_area": np.array([c.area for c in cells]),
        "cell_volume_fraction": np.array([c.volume_fraction for c in cells]),
        "face_p": np.array([f.p for f in faces]),
        "face_q": np.array([f.q for f in faces]),
        "face_normal": np.array([f.normal for f in faces]),
        "face_left": np.array([f.left_cell for f in faces]),
        "face_right": np.array([-1 if f.right_cell is None else f.right_cell for f in faces]),
    }


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_array_mesh_matches_percell_oracle_bitwise(name):
    bg, constraints = _oracle_case(ORACLE_CASES[name])
    mesh = build_mesh(bg, constraints)
    oracle = percell_mesh.build_mesh(bg, constraints)
    for key, expected in _oracle_arrays(oracle).items():
        got = getattr(mesh, key)
        assert got.dtype == expected.dtype and got.shape == expected.shape, key
        assert got.tobytes() == expected.tobytes(), key
    assert np.array_equal(mesh._cell_grid, oracle.cell_grid)
    if mesh.num_cells > 1000:
        return
    # the on-demand cell records hold the oracle's fields and values
    assert len(mesh.cells) == len(oracle.cells)
    for cell, ref in zip(mesh.cells, oracle.cells):
        assert (cell.id, cell.ij, cell.area, cell.volume_fraction, cell.face_ids) == (
            ref.id, ref.ij, ref.area, ref.volume_fraction, ref.face_ids)
        assert type(cell.area) is float and type(cell.face_ids[0]) is int
        assert cell.polygon.tobytes() == ref.polygon.tobytes()


@pytest.mark.parametrize("error, geometry", [
    (ConfigurationError, [HalfPlane(1.0, 0.0, 5.0)]),
    # a line just off a grid line leaves cells 9 and 13 touching along it
    # without an overlap longer than the drop tolerance
    (MeshValidationError,
     [HalfPlane(-0.0210651008777133, -0.9997781061440643, -0.7603661300461549)]),
])
def test_array_mesh_raises_as_percell_oracle(error, geometry):
    bg = BackgroundMesh(0, 0, 1, 1, 4, 4)
    with pytest.raises(error) as expected:
        percell_mesh.build_mesh(bg, geometry)
    with pytest.raises(error) as got:
        build_mesh(bg, geometry)
    assert str(got.value) == str(expected.value)


def test_record_views_index_like_lists():
    mesh = ramp_mesh(nx=4, ny=4)
    cells = mesh.cells
    assert len(cells) == mesh.num_cells
    assert cells[-1].id == mesh.num_cells - 1
    assert cells[np.int64(2)].id == 2
    assert [c.id for c in cells[1:7:2]] == [1, 3, 5]
    assert [c.id for c in cells] == list(range(mesh.num_cells))
    for index in (mesh.num_cells, -mesh.num_cells - 1):
        with pytest.raises(IndexError):
            cells[index]
    # records view the mesh's arrays, which are read-only
    with pytest.raises(ValueError):
        cells[0].polygon[0, 0] = 1.0


@pytest.mark.parametrize("slope, offset, nx", [(0.75, None, 16), (0.3, 0.115, 4), (2.5, 0.02, 16)])
@pytest.mark.parametrize("alpha0", [0.05, 0.25, 0.45])
@pytest.mark.parametrize("beta", [None, (1.0, 0.2), (-1.0, -0.2), (0.0, 1.0), (1.0, -0.3)])
def test_small_cell_selection_matches_record_walk(slope, offset, nx, alpha0, beta):
    # same ids, or the same error with the same first offender: adjacency
    # (classify_small_cells), then under a flow beta the inflow faces
    # (upstream_cells)
    mesh = ramp_mesh(nx=nx, ny=nx, slope=slope, offset=offset)

    def select():
        small = classify_small_cells(mesh, alpha0)
        if beta is not None:
            upstream_cells(mesh, small, beta)
        return small

    try:
        expected = percell_mesh.classify_small_cells(mesh, alpha0, beta)
    except Exception as exc:   # the oracle's error is the expectation
        with pytest.raises(type(exc)) as got:
            select()
        assert str(got.value) == str(exc)
        return
    small = select()
    assert small == tuple(expected)
    assert all(type(cid) is int for cid in small)
    if beta is not None:
        # the cell across each one's single inflow face
        across = [mesh.neighbor(cid, percell_mesh.inflow_faces(mesh, cid, beta)[0])
                  for cid in small]
        assert upstream_cells(mesh, small, beta).tolist() == across


def test_mesh_is_freed_with_its_last_reference():
    # no reference cycle: a dropped mesh does not wait for the cyclic
    # garbage collector, which setup, making few objects, seldom triggers
    import gc
    import weakref

    mesh = ramp_mesh(nx=8, ny=8)
    assert mesh.cells[0].id == 0
    ref = weakref.ref(mesh)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del mesh
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
