"""Extension and mirroring: the wall state mirror, the penalty's source
tables, and the field-object oracle they are compared against."""

import numpy as np
import pytest

from conftest import evaluate, face_kinds, ramp_mesh, source_values, uncut_mesh
from cutdg.errors import (
    CutDGError,
    UnsupportedConfigurationError,
    UnsupportedOperationError,
)
from cutdg.geometry import classify_small_cells
from cutdg.quadrature import Space
from cutdg.solutions import PolynomialField, random_polynomial
from cutdg.systems import mirror_state
from field_forms import MirroredField, extend, reflected_extend, unified_extend


def test_mirror_state_examples():
    assert np.allclose(mirror_state([1.0, 2.0, 3.0], np.array([0.0, 1.0])), [1.0, 2.0, -3.0])
    # tangential velocity unchanged
    n = np.array([1.0, 0.0])
    assert np.allclose(mirror_state([5.0, 0.0, 2.0], n), [5.0, 0.0, 2.0])


def test_mirror_state_involution_and_isometry():
    rng = np.random.default_rng(1)
    for _ in range(50):
        u = rng.normal(size=3)
        angle = rng.uniform(0, 2 * np.pi)
        n = np.array([np.cos(angle), np.sin(angle)])
        m = mirror_state(u, n)
        assert np.allclose(mirror_state(m, n), u, atol=1e-14)
        assert abs(np.hypot(m[1], m[2]) - np.hypot(u[1], u[2])) < 1e-14


def test_mirror_state_stacked_normals():
    rng = np.random.default_rng(5)
    u = rng.normal(size=(4, 6, 3))
    angles = rng.uniform(0, 2 * np.pi, size=4)
    normals = np.column_stack([np.cos(angles), np.sin(angles)])
    stacked = mirror_state(u, normals[:, None, :])
    for i, n in enumerate(normals):
        assert np.array_equal(stacked[i], mirror_state(u[i], n))


def test_mirror_state_rejects_scalar():
    with pytest.raises(UnsupportedOperationError):
        mirror_state(np.array([1.0]), np.array([1.0, 0.0]))


def test_extend_global_polynomial_is_identity():
    # projections of x + 2y extend from any cell to the same global values
    mesh = ramp_mesh(nx=8, ny=8)
    space = Space(mesh, 1)
    u = PolynomialField([[0.0, 1.0, 2.0]], 1).to_dg(space)
    probe = np.array([[0.13, 0.78], [0.91, 0.33], [0.5, 0.5]])
    expected = probe[:, 0] + 2 * probe[:, 1]
    for cid in (0, mesh.num_cells // 2, mesh.num_cells - 1):
        vals = extend(u, space, cid).values(probe)[:, 0]
        assert np.allclose(vals, expected, atol=1e-12)


def test_extend_constant():
    mesh = uncut_mesh(2, 2)
    space = Space(mesh, 1)
    u = space.zeros(1)
    u.coeffs[:, 0, 0] = 7.0
    assert np.allclose(extend(u, space, 3).values([[5.0, -2.0]]), 7.0)


def test_extensions_differ_between_cells():
    mesh = uncut_mesh(2, 1, box=(0, 0, 2, 1))
    space = Space(mesh, 1)
    u = space.zeros(1)
    u.coeffs[0, 0, 0] = 1.0
    u.coeffs[1, 0, 0] = 2.0
    probe = np.array([[0.5, 0.5]])
    assert extend(u, space, 0).values(probe)[0, 0] != extend(u, space, 1).values(probe)[0, 0]


# ----------------------------------------------------------------- mirroring


def test_mirror_polynomial_zero_velocity_is_identity():
    mesh = uncut_mesh(2, 2)
    space = Space(mesh, 2)
    u = random_polynomial(np.random.default_rng(0), 2, 3, pressure_only=True).to_dg(space)
    f = extend(u, space, 0)
    g = MirroredField(f, [1.0, 0.0], 1.0)
    probe = np.random.default_rng(1).uniform(-1, 2, size=(10, 2))
    assert np.allclose(g.values(probe), f.values(probe), atol=1e-14)


def test_mirror_polynomial_matches_state_mirror_on_face():
    rng = np.random.default_rng(4)
    mesh = ramp_mesh(nx=4, ny=4)
    space = Space(mesh, 2)
    u = space.zeros(3)
    u.coeffs[:] = rng.uniform(-1, 1, size=u.coeffs.shape)
    for fid in np.flatnonzero(mesh.face_right < 0)[:8].tolist():
        p, q, left = mesh.face_p[fid], mesh.face_q[fid], mesh.face_left[fid]
        f = extend(u, space, left)
        g = reflected_extend(u, space, left, fid)
        t = rng.uniform(0, 1, size=6)
        pts = p[None, :] + t[:, None] * (q - p)[None, :]
        assert np.allclose(g.values(pts), mirror_state(f.values(pts), mesh.face_normal[fid]),
                           atol=1e-13)


def test_mirror_polynomial_hand_example():
    # velocity (x, 0) mirrored at the line x = 1 becomes (x - 2, 0)
    mesh = uncut_mesh(1, 1)
    space = Space(mesh, 1)
    u = PolynomialField([[0.0], [0.0, 1.0, 0.0], [0.0]], 1).to_dg(space)
    f = extend(u, space, 0)
    g = MirroredField(f, [1.0, 0.0], 1.0)
    pts = np.array([[0.3, 0.2], [1.7, -0.4], [1.0, 0.9]])
    vals = g.values(pts)
    assert np.allclose(vals[:, 1], pts[:, 0] - 2.0, atol=1e-14)
    assert np.allclose(vals[:, 2], 0.0, atol=1e-14)


def test_mirror_polynomial_stays_polynomial():
    # re-projecting the mirrored field reproduces its pointwise values
    rng = np.random.default_rng(9)
    mesh = ramp_mesh(nx=4, ny=4, slope=0.55, offset=0.13)
    space = Space(mesh, 2)
    u = space.zeros(3)
    u.coeffs[:] = rng.uniform(-1, 1, size=u.coeffs.shape)
    fid = next(f for f in np.flatnonzero(mesh.face_right < 0).tolist()
               if abs(mesh.face_normal[f, 0]) not in (0.0, 1.0))
    g = reflected_extend(u, space, mesh.face_left[fid], fid)
    proj = space.l2_project(lambda pts: g.values(pts), 3)
    probe = rng.uniform(0.2, 0.8, size=(15, 2))
    cid = mesh.num_cells // 2
    assert np.allclose(evaluate(space, proj, cid, probe), g.values(probe), atol=1e-10)


def test_mirror_polynomial_gradients_consistent():
    rng = np.random.default_rng(11)
    mesh = uncut_mesh(2, 2)
    space = Space(mesh, 3)
    u = space.zeros(3)
    u.coeffs[:] = rng.uniform(-1, 1, size=u.coeffs.shape)
    angle = 0.7
    g = MirroredField(extend(u, space, 0), [np.cos(angle), np.sin(angle)], 0.8)
    pts = rng.uniform(0, 1, size=(5, 2))
    eps = 1e-6
    grads = g.gradients(pts)
    for d in range(2):
        shift = np.zeros(2)
        shift[d] = eps
        fd = (g.values(pts + shift) - g.values(pts - shift)) / (2 * eps)
        assert np.allclose(grads[:, :, d], fd, atol=1e-8)


# ----------------------------------------------------- reflected / unified


def test_reflected_extend_requires_boundary_face():
    mesh = ramp_mesh(nx=4, ny=4)
    space = Space(mesh, 1)
    u = space.zeros(3)
    internal = int(np.flatnonzero(mesh.face_right >= 0)[0])
    with pytest.raises(CutDGError):
        reflected_extend(u, space, mesh.face_left[internal], internal)


def test_reflected_extend_fixes_wall_compatible_fields():
    # with v tangential to the wall line, tracing on the wall is unchanged
    mesh = ramp_mesh(nx=8, ny=8)
    space = Space(mesh, 1)
    slope = 0.75
    norm = np.hypot(1.0, slope)
    tang = np.array([1.0, slope]) / norm
    u = PolynomialField([[1.0, 0.5, -0.2], [tang[0]], [tang[1]]], 1).to_dg(space)
    normal = mesh.face_normal
    ramp_faces = np.flatnonzero(
        (mesh.face_right < 0) & np.all(np.abs(np.abs(normal) - 1.0) > 1e-12, axis=1)
    )
    fid = int(ramp_faces[0])
    p, q, left = mesh.face_p[fid], mesh.face_q[fid], mesh.face_left[fid]
    plain = extend(u, space, left)
    refl = reflected_extend(u, space, left, fid)
    t = np.linspace(0, 1, 7)
    pts = p[None, :] + t[:, None] * (q - p)[None, :]
    assert np.allclose(refl.values(pts), plain.values(pts), atol=1e-12)


def test_reflected_extend_trace_flips_normal_velocity():
    rng = np.random.default_rng(21)
    mesh = ramp_mesh(nx=8, ny=8)
    space = Space(mesh, 2)
    u = space.zeros(3)
    u.coeffs[:] = rng.uniform(-1, 1, size=u.coeffs.shape)
    for fid in np.flatnonzero(mesh.face_right < 0)[:6].tolist():
        p, q, n = mesh.face_p[fid], mesh.face_q[fid], mesh.face_normal[fid]
        left = mesh.face_left[fid]
        t = np.array([-n[1], n[0]])
        plain = extend(u, space, left)
        refl = reflected_extend(u, space, left, fid)
        s = rng.uniform(0, 1, size=5)
        pts = p[None, :] + s[:, None] * (q - p)[None, :]
        a = plain.values(pts)
        b = refl.values(pts)
        assert np.allclose(b[:, 0], a[:, 0], atol=1e-13)                      # pressure kept
        assert np.allclose(b[:, 1:] @ t, a[:, 1:] @ t, atol=1e-13)            # tangential kept
        assert np.allclose(b[:, 1:] @ n, -(a[:, 1:] @ n), atol=1e-13)         # normal flipped


def _stab_cell_with_wall(mesh):
    small = classify_small_cells(mesh, 0.25)
    for cid in small:
        kinds = face_kinds(mesh, mesh.cells[cid].face_ids)
        if "boundary" in kinds and kinds.count("internal") >= 2:
            return cid
    raise AssertionError("no stabilized cell with a wall face found")


def test_unified_extend_cases():
    mesh = ramp_mesh(nx=16, ny=16)
    space = Space(mesh, 1)
    rng = np.random.default_rng(2)
    u = space.zeros(3)
    u.coeffs[:] = rng.uniform(-1, 1, size=u.coeffs.shape)
    cid = _stab_cell_with_wall(mesh)
    cell = mesh.cells[cid]
    kinds = face_kinds(mesh, cell.face_ids)
    i_int = kinds.index("internal")
    j_int = kinds.index("internal", i_int + 1)
    b = kinds.index("boundary")
    probe = rng.uniform(0, 1, size=(6, 2))

    # source E always extends from E
    f = unified_extend(u, space, cid, i_int, b, "E")
    assert np.allclose(f.values(probe), extend(u, space, cid).values(probe))

    # two internal faces: plain neighbor extension
    nb_i = mesh.neighbor(cid, cell.face_ids[i_int])
    f = unified_extend(u, space, cid, i_int, j_int, "Ei")
    assert np.allclose(f.values(probe), extend(u, space, nb_i).values(probe))

    # wall slot: reflected extension from the other face's neighbor
    nb_j = mesh.neighbor(cid, cell.face_ids[i_int])
    f = unified_extend(u, space, cid, b, i_int, "Ei")
    expected = reflected_extend(u, space, nb_j, cell.face_ids[b])
    assert np.allclose(f.values(probe), expected.values(probe))


def test_unified_extend_rejects_double_wall():
    # a corner cell of the plain box has two wall faces
    mesh = uncut_mesh(2, 2)
    space = Space(mesh, 1)
    u = space.zeros(3)
    kinds = face_kinds(mesh, mesh.cells[0].face_ids)
    walls = [k for k, kind in enumerate(kinds) if kind == "boundary"]
    assert len(walls) == 2
    with pytest.raises(UnsupportedConfigurationError):
        unified_extend(u, space, 0, walls[0], walls[1], "Ei")


def test_gluing_of_global_polynomials_through_all_extensions():
    # any extension route applied to a globally polynomial function returns
    # it: the oracle's routes and the penalty's source tables
    rng = np.random.default_rng(8)
    for degree in (0, 1, 2):
        mesh = ramp_mesh(nx=16, ny=16)
        space = Space(mesh, degree)
        fld = random_polynomial(rng, degree, 3, pressure_only=True)
        u = fld.to_dg(space)
        small = classify_small_cells(mesh, 0.25)
        umax = max(abs(fld.coeffs).max(), 1e-300)
        for cid in list(small)[:4]:
            cell = mesh.cells[cid]
            K = cell.num_faces
            cell_pts = space.cell_rules([cid])[0][0]
            pts = np.vstack([cell_pts] + [space.face_rule(f)[0] for f in cell.face_ids])
            exact = fld(pts)
            for i in range(K):
                for j in range(i + 1, K):
                    for source in ("E", "Ei", "Ej"):
                        f = unified_extend(u, space, cid, i, j, source)
                        dev = np.abs(f.values(pts) - exact).max()
                        assert dev <= 1e-11 * umax
            table_pts = np.vstack([space.face_rule(cell.face_ids)[0].reshape(-1, 2), cell_pts])
            _, _, values, _ = source_values(space, cid, u.coeffs)
            assert np.abs(values - fld(table_pts)).max() <= 1e-11 * umax


# ------------------------------------------------- the penalty's source tables


def _one_wall_cells(mesh):
    """The cut cells with at most one wall face (3, 4 and 5 faces), and an
    uncut cell with none and one with one."""
    def walls(c):
        return face_kinds(mesh, c.face_ids).count("boundary")

    cut = [c.id for c in mesh.cells if c.volume_fraction < 1.0 and walls(c) <= 1]
    uncut = [next(c.id for c in mesh.cells if c.volume_fraction == 1.0 and walls(c) == w)
             for w in (0, 1)]
    return cut + uncut


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_source_tables_match_field_oracle(degree):
    # plain sources are the oracle's extensions, mirrored ones its reflected
    # extensions, in value at every face and cell point and in gradient at
    # the cell points
    rng = np.random.default_rng(degree)
    mesh = ramp_mesh(nx=4, ny=4, slope=0.55, offset=0.13)
    space = Space(mesh, degree)
    u = space.zeros(3)
    u.coeffs[:] = rng.uniform(-1, 1, size=u.coeffs.shape)
    cells = _one_wall_cells(mesh)
    assert {mesh.cells[c].num_faces for c in cells} == {3, 4, 5}
    mirrored = 0
    for cid in cells:
        fids = mesh.cells[cid].face_ids
        cpts = space.cell_rules([cid])[0][0]
        pts = np.vstack([space.face_rule(fids)[0].reshape(-1, 2), cpts])
        sources, n, values, grads = source_values(space, cid, u.coeffs)
        wall = [f for f in fids if mesh.face_right[f] < 0]
        for x, C in enumerate(sources):
            field = extend(u, space, C) if x < n else reflected_extend(u, space, C, wall[0])
            expected, expected_grad = field.values(pts), field.gradients(cpts)
            assert np.abs(values[x] - expected).max() <= 1e-12 * np.abs(expected).max()
            scale = max(np.abs(expected_grad).max(), 1.0)
            assert np.abs(grads[x] - expected_grad).max() <= 1e-12 * scale
        mirrored += len(sources) - n
    assert mirrored > 0


def test_mirrored_tables_on_the_wall_are_the_mirrored_state():
    # on the wall's own points a mirrored source is mirror_state of its plain one
    rng = np.random.default_rng(3)
    mesh = ramp_mesh(nx=4, ny=4, slope=0.55, offset=0.13)
    space = Space(mesh, 2)
    nq = space.face_npts
    u = space.zeros(3)
    u.coeffs[:] = rng.uniform(-1, 1, size=u.coeffs.shape)
    checked = 0
    for cid in _one_wall_cells(mesh):
        kinds = face_kinds(mesh, mesh.cells[cid].face_ids)
        if "boundary" not in kinds:
            continue
        k = kinds.index("boundary")
        normal = mesh.face_normal[mesh.cells[cid].face_ids[k]]
        sources, n, values, _ = source_values(space, cid, u.coeffs)
        on_wall = values[:, k * nq:(k + 1) * nq]
        for x in range(n, len(sources)):
            plain = on_wall[list(sources[:n]).index(sources[x])]
            assert np.abs(on_wall[x] - mirror_state(plain, normal)).max() <= 1e-12
            checked += 1
    assert checked > 0
