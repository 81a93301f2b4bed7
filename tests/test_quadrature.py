import numpy as np
import pytest

from conftest import evaluate, polygon_monomial_integral, ramp_mesh, uncut_mesh
from percell_mesh import mass_matrix
from cutdg.geometry import BackgroundMesh, build_mesh
from cutdg.quadrature import (
    Space,
    face_quadrature,
    mode_exponents,
    monomial_gradients,
    monomial_tables,
    monomial_values,
    polygon_quadrature,
)

TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_negative_degree_is_a_configuration_error():
    from cutdg.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="degree must be >= 0"):
        Space(uncut_mesh(2, 2), -1)


def test_mode_ordering():
    exps = mode_exponents(2)
    assert [tuple(e) for e in exps] == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_monomial_tables_equal_separate_evaluations(degree):
    # values and gradients from one set of coordinate powers, bit for bit,
    # at all points and at a subset, with one center or one per point
    rng = np.random.default_rng(degree)
    exps = mode_exponents(degree)
    pts = rng.uniform(-1.0, 2.0, size=(40, 2))
    centers = rng.uniform(0.0, 1.0, size=(40, 2))
    rows = rng.uniform(size=40) < 0.5
    for center, sub in ((centers, centers[rows]), ((0.3, 0.6), (0.3, 0.6))):
        values, grads = monomial_tables(exps, center, 0.125, pts)
        assert np.array_equal(values, monomial_values(exps, center, 0.125, pts))
        assert np.array_equal(grads, monomial_gradients(exps, center, 0.125, pts))
        values, grads = monomial_tables(exps, center, 0.125, pts, rows)
        assert np.array_equal(values, monomial_values(exps, center, 0.125, pts))
        assert np.array_equal(grads, monomial_gradients(exps, sub, 0.125, pts[rows]))


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_monomial_kernel_matches_extended_precision(degree):
    # values and gradients against x^p y^q summed in np.longdouble from the
    # same inputs, within a few ulp of each table's largest entry; scaled
    # coordinates of both signs, one center or one per point
    rng = np.random.default_rng(10 + degree)
    exps = mode_exponents(degree)
    h = 0.125
    pts = rng.uniform(-1.0, 2.0, size=(60, 2))
    centers = pts + rng.uniform(-0.6 * h, 0.6 * h, size=(60, 2))
    rows = rng.uniform(size=60) < 0.5
    for center in (centers, np.array([0.45, 0.55])):
        X, Y = ((pts.astype(np.longdouble) - center) / np.longdouble(h)).T
        assert (X < 0).any() and (X > 0).any() and (Y < 0).any() and (Y > 0).any()
        ref = np.stack([X**p * Y**q for p, q in exps.tolist()], axis=-1)
        ref_grad = np.stack([np.stack([p * X ** max(p - 1, 0) * Y**q,
                                       q * X**p * Y ** max(q - 1, 0)], axis=-1) / h
                             for p, q in exps.tolist()], axis=1)
        tables = monomial_tables(exps, center, h, pts, rows)
        sub = center[rows] if center.ndim == 2 else center
        for got, want in ((monomial_values(exps, center, h, pts), ref),
                          (monomial_gradients(exps, center, h, pts), ref_grad),
                          (tables[0], ref),
                          (tables[1], ref_grad[rows]),
                          (monomial_gradients(exps, sub, h, pts[rows]), ref_grad[rows])):
            assert got.dtype == np.float64 and got.flags.c_contiguous
            tol = 4 * np.finfo(float).eps * float(np.abs(want).max())
            assert float(np.abs(got - want).max()) <= tol


def test_quadrature_constant_gives_area():
    mesh = ramp_mesh(nx=4, ny=4)
    for cell in mesh.cells:
        pts, w = polygon_quadrature(cell.polygon, 4)
        assert abs(np.sum(w) - cell.area) < 1e-13 * max(cell.area, 1e-30)


def test_triangle_monomial_exact():
    pts, w = polygon_quadrature(TRI, 3)
    val = np.sum(w * pts[:, 0] ** 2 * pts[:, 1])
    assert abs(val - 1.0 / 60.0) < 1e-16


def test_centroid_of_unit_square():
    sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    pts, w = polygon_quadrature(sq, 2)
    assert abs(np.sum(w * pts[:, 0]) - 0.5) < 1e-15


@pytest.mark.parametrize("degree", [2, 4, 6, 8])
def test_quadrature_exact_on_random_clipped_cells(degree):
    rng = np.random.default_rng(degree)
    mesh = ramp_mesh(nx=4, ny=4, slope=0.55, offset=0.21)
    cut = [c for c in mesh.cells if c.volume_fraction < 1.0 - 1e-12]
    for cell in cut[:3]:
        pts, w = polygon_quadrature(cell.polygon, degree)
        for _ in range(5):
            p = rng.integers(0, degree + 1)
            q = int(rng.integers(0, degree + 1 - p))
            exact = polygon_monomial_integral(cell.polygon, int(p), q)
            got = float(np.sum(w * pts[:, 0] ** p * pts[:, 1] ** q))
            assert abs(got - exact) < 1e-13 * max(abs(exact), 1e-6)


def test_face_quadrature_degree():
    p, q = np.array([0.2, 0.1]), np.array([0.7, 0.9])
    pts, w = face_quadrature(p, q, 4)
    # integrate x^5 along the segment parametrized by arclength
    exact = polygonal_segment_integral(p, q, 5)
    got = float(np.sum(w * pts[:, 0] ** 5))
    assert abs(got - exact) < 1e-14


def polygonal_segment_integral(p, q, k):
    import sympy as sp

    t = sp.Symbol("t")
    X = p[0] + (q[0] - p[0]) * t
    L = float(np.hypot(*(q - p)))
    return float(sp.integrate(X**k, (t, 0, 1)) * L)


# -------------------------------------------------------------------- mass


def test_mass_r0_is_area():
    mesh = ramp_mesh(nx=4, ny=4)
    space = Space(mesh, 0)
    for cell in mesh.cells[:5]:
        M = mass_matrix(cell, space)
        assert M.shape == (1, 1)
        assert abs(M[0, 0] - cell.area) < 1e-14


def test_mass_r1_unit_cell_analytic():
    mesh = uncut_mesh(nx=1, ny=1)
    M = mass_matrix(mesh.cells[0], Space(mesh, 1))
    expected = np.diag([1.0, 1.0 / 12.0, 1.0 / 12.0])
    assert np.allclose(M, expected, atol=1e-15)


def test_mass_spd_on_extreme_sliver():
    # corner triangle with volume fraction 1e-8 on a one-cell mesh
    delta = np.sqrt(2 * 0.75 * 1e-8)
    bg = BackgroundMesh(0, 0, 1, 1, 1, 1)
    from cutdg.geometry import halfplane_from_line

    geo = [halfplane_from_line(0.75, 1.0 - delta)]
    mesh = build_mesh(bg, geo)
    assert abs(mesh.cells[0].volume_fraction - 1e-8) < 1e-10
    for degree in (0, 1):
        space = Space(mesh, degree)   # raises if the factorization fails
        u = space.l2_project(lambda pts: np.ones((len(pts), 1)), 1)
        assert np.allclose(u.coeffs[0, 0, 0], 1.0, atol=1e-9)


# --------------------------------------------------------------- projection


def test_project_constant():
    mesh = uncut_mesh(nx=4, ny=4)
    space = Space(mesh, 2)
    u = space.l2_project(lambda pts: np.ones((len(pts), 1)), 1)
    assert np.allclose(u.coeffs[:, 0, 0], 1.0, atol=1e-14)
    assert np.allclose(u.coeffs[:, 1:, 0], 0.0, atol=1e-14)

    # on cut cells the coefficients feel the mass conditioning, but the
    # projected function itself stays exact
    mesh = ramp_mesh(nx=4, ny=4)
    space = Space(mesh, 2)
    u = space.l2_project(lambda pts: np.ones((len(pts), 1)), 1)
    assert np.allclose(u.coeffs[:, 0, 0], 1.0, atol=1e-11)
    for cid in range(mesh.num_cells):
        vals = space.cell_rules([cid])[2][0] @ u.coeffs[cid]
        assert np.allclose(vals, 1.0, atol=1e-12)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_projection_reproduces_global_polynomials(degree):
    # mild slivers only: reproduction through the mass solve is limited by
    # the cut-cell conditioning, which exact re-centering (solutions module)
    # avoids; here the smallest volume fraction is ~0.13
    rng = np.random.default_rng(degree)
    mesh = ramp_mesh(nx=4, ny=4, slope=0.55, offset=0.13)
    space = Space(mesh, degree)
    exps = mode_exponents(degree)
    coef = rng.uniform(-1, 1, size=len(exps))

    def f(pts):
        vals = np.sum(coef * pts[:, 0][:, None] ** exps[:, 0] * pts[:, 1][:, None] ** exps[:, 1], axis=1)
        return vals[:, None]

    u = space.l2_project(f, 1)
    probe = rng.uniform(0.1, 0.9, size=(20, 2))
    for cell in mesh.cells:
        got = evaluate(space, u, cell.id, probe)[:, 0]
        assert np.allclose(got, f(probe)[:, 0], atol=1e-11)


def test_projection_idempotent():
    mesh = ramp_mesh(nx=4, ny=4)
    space = Space(mesh, 2)
    rng = np.random.default_rng(0)
    u = space.zeros(1)
    u.coeffs[:] = rng.uniform(-1, 1, size=u.coeffs.shape)
    v = space.l2_project(lambda pts, _u=u: _eval_piecewise(space, _u, pts), 1)
    assert np.allclose(v.coeffs, u.coeffs, atol=1e-13)


def _eval_piecewise(space, u, pts):
    # only called once, with every cell's quadrature points
    if pts is not space.quad_pts:
        raise AssertionError("unexpected evaluation points")
    cells = space.quad_cells
    phi = monomial_values(space.exps, space.centers[cells], space.h, pts)
    return np.einsum("qk,qkm->qm", phi, u.coeffs[cells])


def test_projection_order_of_accuracy():
    errs = []
    for n in (8, 16):
        mesh = uncut_mesh(nx=n, ny=n)
        space = Space(mesh, 1)
        u = space.l2_project(lambda pts: np.sin(2 * np.pi * pts[:, 0])[:, None], 1)
        errs.append(space.l2_error(u, lambda pts: np.sin(2 * np.pi * pts[:, 0])[:, None]))
    order = np.log2(errs[0] / errs[1])
    assert order > 1.9


# --------------------------------------------------------------- evaluation


def test_evaluate_constant_everywhere():
    mesh = uncut_mesh(2, 2)
    space = Space(mesh, 1)
    u = space.zeros(1)
    u.coeffs[:, 0, 0] = 3.5
    assert abs(evaluate(space, u, 0, np.array([10.0, -4.0]))[0] - 3.5) < 1e-15


def test_evaluate_linear_mode_zero_at_center():
    mesh = uncut_mesh(2, 2)
    space = Space(mesh, 1)
    u = space.zeros(1)
    u.coeffs[1, 1, 0] = 1.0
    center = mesh.cell_centers[1]
    assert abs(evaluate(space, u, 1, center)[0]) < 1e-15


def test_evaluate_matches_monomial_sum():
    rng = np.random.default_rng(5)
    mesh = ramp_mesh(nx=4, ny=4)
    space = Space(mesh, 2)
    u = space.zeros(2)
    u.coeffs[:] = rng.uniform(-1, 1, size=u.coeffs.shape)
    cid = 3
    x = np.array([0.37, 0.81])
    center = mesh.cell_centers[cid]
    exps = space.exps
    X = (x[0] - center[0]) / space.h
    Y = (x[1] - center[1]) / space.h
    direct = sum(
        u.coeffs[cid, k] * X ** exps[k, 0] * Y ** exps[k, 1] for k in range(len(exps))
    )
    assert np.allclose(evaluate(space, u, cid, x), direct, atol=1e-14)


def test_standalone_l2_project_and_evaluate():
    mesh = uncut_mesh(2, 2)
    space = Space(mesh, 1)
    u = space.l2_project(lambda pts: (pts[:, 0] + 2 * pts[:, 1])[:, None], 1)
    val = evaluate(space, u, 0, np.array([0.25, 0.25]))
    assert abs(val[0] - 0.75) < 1e-12


# ------------------------------------------------- stacked tables and batches


def _ramp_space(degree, alpha, nx=8):
    from cutdg.experiments import ramp_config

    cfg = ramp_config("acoustics", degree, alpha, nx=nx)
    return Space(build_mesh(cfg.background(), cfg.constraints), degree)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("alpha", [1e-2, 1e-8])
def test_stacked_tables_match_per_face_and_per_cell_rules(degree, alpha):
    space = _ramp_space(degree, alpha)
    mesh = space.mesh
    exps, h = space.exps, space.h

    def values(cid, pts):
        return monomial_values(exps, mesh.cell_centers[cid], h, pts)

    nfaces = len(mesh.face_left)
    face_pts, face_w = space.face_rule(np.arange(nfaces))
    phi_left, phi_right, traced_w = space.face_traces(np.arange(nfaces))
    assert np.array_equal(traced_w, face_w)
    for fid, (left, right) in enumerate(zip(mesh.face_left.tolist(), mesh.face_right.tolist())):
        pts, w = face_quadrature(mesh.face_p[fid], mesh.face_q[fid], degree + 2)
        for got in (space.face_rule(fid), (face_pts[fid], face_w[fid])):
            assert np.array_equal(got[0], pts) and np.array_equal(got[1], w)
        assert np.array_equal(phi_left[fid], values(left, pts))
        if right >= 0:
            assert np.array_equal(phi_right[fid], values(right, pts))
        else:
            assert np.all(phi_right[fid] == 0.0)
    # any shape of face ids: the rule of each
    fids = np.arange(nfaces - nfaces % 2).reshape(-1, 2)
    for got, whole in zip(space.face_rule(fids), (face_pts, face_w)):
        assert np.array_equal(got, whole[fids])
    cut = [c for c in mesh.cells if not space.uncut[c.id]]
    assert cut
    for cell in cut:
        pts, w = polygon_quadrature(cell.polygon, 2 * degree + 2)
        grad = monomial_gradients(exps, mesh.cell_centers[cell.id], h, pts)
        rule = [table[0] for table in space.cell_rules([cell.id])]
        for got, expected in zip(rule, (pts, w, values(cell.id, pts), grad)):
            assert np.array_equal(got, expected)
    for cid in range(mesh.num_cells):
        owned = space.quad_cells == cid
        pts, w, _, _ = space.cell_rules([cid])
        assert space.rule_size[cid] == np.count_nonzero(owned)
        assert np.array_equal(space.quad_pts[owned], pts[0])
        assert np.array_equal(space.quad_w[owned], w[0])
    # a group of one rule size stacks its cells' rules
    for size in np.unique(space.rule_size).tolist():
        cids = np.flatnonzero(space.rule_size == size)
        for c, *stacked in zip(cids.tolist(), *space.cell_rules(cids)):
            for got, expected in zip(stacked, space.cell_rules([c])):
                assert np.array_equal(got, expected[0])


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_face_traces_of_a_subset_match_all_faces_bitwise(degree):
    space = _ramp_space(degree, 1e-5)
    nfaces = len(space.mesh.face_left)
    full = space.face_traces(np.arange(nfaces))
    rng = np.random.default_rng(degree)
    for size in (1, 7, nfaces // 3):
        fids = rng.choice(nfaces, size, replace=False)
        for part, whole in zip(space.face_traces(fids), full):
            assert part.shape == whole[fids].shape
            assert part.tobytes() == whole[fids].tobytes()


@pytest.mark.parametrize("equation, degree, nx", [("acoustics", 1, 128), ("advection", 2, 64)])
def test_setup_evaluates_few_face_traces(equation, degree, nx, monkeypatch):
    # the faces between two uncut cells share one representative per
    # direction, so setup reads the traces of the cut band's faces only
    from cutdg.experiments import build_context, make_rhs, ramp_config

    counted = []
    traces = Space.face_traces

    def counting(self, fids):
        counted.append(len(fids))
        return traces(self, fids)

    # and builds the rules of few distinct faces, each at most about twice
    # (the base form's and the penalty's tables)
    ruled = []
    rule = Space.face_rule

    def recording(self, fids):
        ruled.append(np.ravel(fids))
        return rule(self, fids)

    monkeypatch.setattr(Space, "face_traces", counting)
    monkeypatch.setattr(Space, "face_rule", recording)
    ctx = build_context(ramp_config(equation, degree, 1e-6 if equation == "acoustics" else 1e-2,
                                    nx=nx))
    make_rhs(ctx)
    assert len(ctx.small) > 0 and counted and ruled
    assert sum(counted) <= 0.1 * len(ctx.mesh.face_left)
    distinct = len(np.unique(np.concatenate(ruled)))
    assert distinct <= 0.1 * len(ctx.mesh.face_left)
    assert sum(map(len, ruled)) <= 2 * distinct
    assert not hasattr(ctx.space, "face_phi_left")


@pytest.mark.parametrize("degree", [0, 2])
def test_space_keeps_no_per_face_array(degree):
    # face rules are built on request: no array of a built Space is indexed
    # by face id
    space = _ramp_space(degree, 1e-2)
    nfaces = len(space.mesh.face_left)
    assert nfaces not in (space.mesh.num_cells, len(space.quad_pts))
    for name, value in vars(space).items():
        if isinstance(value, np.ndarray):
            assert value.ndim == 0 or len(value) != nfaces, name


def _smooth_field(pts):
    x, y = pts[:, 0], pts[:, 1]
    return np.stack([np.sin(3 * x) * np.cos(2 * y), np.exp(x - y), 1.0 / (1.0 + x * x + y)], axis=1)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_batched_projection_and_error_match_per_cell_loop(degree):
    from scipy.linalg import cho_factor, cho_solve

    from cutdg.quadrature import DGFunction

    space = _ramp_space(degree, 1e-2)
    calls = []

    def counted(pts):
        calls.append(pts)
        return _smooth_field(pts)

    u = space.l2_project(counted, 3)
    assert len(calls) == 1 and calls[0] is space.quad_pts

    # per-cell loop oracle: each cell's normal equations, solved on their own
    ref = np.empty_like(u.coeffs)
    for cid in range(space.mesh.num_cells):
        pts, w, phi, _ = (table[0] for table in space.cell_rules([cid]))
        rhs = phi.T @ (w[:, None] * _smooth_field(pts))
        # the batched coefficients solve this cell's equations to round-off
        resid = space.mass[cid] @ u.coeffs[cid] - rhs
        assert np.abs(resid).max() <= 1e-13 * np.abs(rhs).max()
        ref[cid] = cho_solve(cho_factor(space.mass[cid]), rhs)
    # the solutions themselves differ by cond * eps on cut cells (cut masses
    # reach cond 9e10 at r=3, where two per-cell solvers already differ by
    # 3e-13 in this norm)
    diff = space.l2_norm(DGFunction(u.coeffs - ref, degree))
    assert diff <= 1e-12 * space.l2_norm(DGFunction(ref, degree))

    # error against another field, so the error is O(1) and the comparison
    # sees the summation, not cancellation in u - f
    def other(pts):
        return _smooth_field(pts + 0.3)

    calls.clear()
    err = space.l2_error(u, lambda pts: calls.append(pts) or other(pts))
    assert len(calls) == 1 and calls[0] is space.quad_pts
    total = 0.0
    for cid in range(space.mesh.num_cells):
        pts, w, phi, _ = (table[0] for table in space.cell_rules([cid]))
        d = phi @ u.coeffs[cid] - other(pts)
        total += float(w @ np.sum(d * d, axis=1))
    assert abs(err - np.sqrt(total)) <= 1e-13 * np.sqrt(total)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_l2_norm_matches_stacked_mass_formula(degree):
    from cutdg.quadrature import DGFunction

    rng = np.random.default_rng(degree)
    for alpha in (1e-5, 1e-8):
        space = _ramp_space(degree, alpha)
        assert 0 < len(space.cut_ids) < space.mesh.num_cells
        smallest = np.argmin(space.mesh.cell_volume_fraction)
        assert space.mesh.cell_volume_fraction[smallest] < 1.01 * alpha
        for m in (1, 3):
            coeffs = rng.uniform(-1.0, 1.0, (space.mesh.num_cells, space.n_modes, m))
            if alpha == 1e-5:
                # large coefficients on the cut cells, as on an unstable small cell
                coeffs[space.cut_ids] *= 1e4
            else:
                # only on the smallest cell: weighting it with the reference
                # mass and subtracting its share would lose its contribution
                coeffs[smallest] *= 1e8
            stacked = np.sqrt(np.vdot(coeffs, space.mass @ coeffs))
            norm = space.l2_norm(DGFunction(coeffs, degree))
            assert abs(norm - stacked) <= 1e-14 * stacked


def _wedge_space(degree):
    from cutdg.geometry import HalfPlane, halfplane_from_line

    # cut cells with three, four and five vertices
    constraints = [halfplane_from_line(0.4, 0.2),
                   halfplane_from_line(-1.2, 1.1, keep_above=False),
                   HalfPlane(1.0, 0.0, 0.0625 + 0.3 / 16)]
    return Space(build_mesh(BackgroundMesh(0, 0, 1, 1, 16, 16), constraints), degree)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("case", ["ramp-1e-2", "ramp-1e-8", "wedge"])
def test_batched_cut_cell_tables_match_percell_oracle_bitwise(degree, case):
    # every cut cell's fan rule, value and gradient tables, mass and mode
    # integrals, against polygon_quadrature + monomial_values cell by cell
    from percell_mesh import cut_cell_tables

    space = _wedge_space(degree) if case == "wedge" else _ramp_space(degree, float(case[5:]))
    assert len(space.cut_ids)
    sizes = space.rule_size[space.cut_ids]
    for size in np.unique(sizes).tolist():
        cids = space.cut_ids[sizes == size]
        for cid, *rule in zip(cids.tolist(), *space.cell_rules(cids)):
            expected = cut_cell_tables(space.mesh.cells[cid], space)
            got = rule + [space.mass[cid], space.mode_integral[cid]]
            for got, expected in zip(got, expected):
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    counts = np.diff(space.mesh.cell_offsets)[space.cut_ids]
    if case == "wedge":
        assert set(counts.tolist()) >= {3, 4, 5}
