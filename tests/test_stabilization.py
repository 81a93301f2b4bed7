import copy
from pathlib import Path

import numpy as np
import pytest

from conftest import (face_kinds, face_matrix_on, mixed_stabilized_set, penalty_cells,
                      penalty_residuals, ramp_mesh)
from cutdg.dg import block_matrix, local_blocks
from cutdg.config import load_config
from cutdg.errors import (BoundaryInflowError, CornerCellError, MeshValidationError,
                          UnsupportedConfigurationError)
from cutdg.geometry import classify_small_cells
from cutdg.quadrature import Space
from cutdg.solutions import PolynomialField, random_polynomial
from cutdg.stabilization import (
    AdvectionStabilization,
    WaveStabilization,
    eta_values,
    face_forms,
    source_tables,
    surface_forms,
    surface_weights,
    volume_forms,
)
from cutdg.systems import SystemSpec

from cutdg import experiments, stabilization
from cutdg.experiments import build_context, check_axioms_on_cell, ramp_config
from field_forms import CellForms as FieldForms, CellPolyField, CombinedField
from probed_penalty import ProbedPenalty, _WaveCellContext


def _setup(equation="acoustics", degree=1, nx=16, alpha0=0.25, beta=(1.0, 0.2)):
    mesh = ramp_mesh(nx=nx, ny=nx)
    small = classify_small_cells(mesh, alpha0)
    spec = SystemSpec.advection(beta) if equation == "advection" else SystemSpec.acoustics(1.0)
    space = Space(mesh, degree)
    eta = eta_values(mesh, small, alpha0)
    return mesh, spec, space, small, eta


def _apply(stab, u):
    """The penalty's residual array through its global matrix."""
    matrix = block_matrix(stab.blocks(), stab.space.mesh.num_cells)
    return (matrix @ u.coeffs.ravel()).reshape(u.coeffs.shape)


# ------------------------------------------------------------- closed form


def test_surface_weights_arithmetic():
    # with face functionals A = (1, 2, 3) and K = 3:
    A = np.array([1.0, 2.0, 3.0])
    p12 = surface_weights(3, 0, 1) @ A
    p21 = surface_weights(3, 1, 0) @ A
    assert abs(p12 - 4.0 / 3.0) < 1e-15
    assert abs(p21 - 2.0 / 3.0) < 1e-15
    # pair sum equals 2 S / (K (K-1))
    assert abs((p12 + p21) - 2.0 * A.sum() / 6.0) < 1e-15
    # face sum at j = 2 (1-based): p_12 + p_32 = A_2
    p32 = surface_weights(3, 2, 1) @ A
    assert abs(p12 + p32 - A[1]) < 1e-15
    # the pair construction's other weights, in closed form: a change to
    # one of them is a deliberate edit of this test
    for K in (3, 4, 5):
        assert stabilization.kappa(K) == 2.0 / (K * (K - 1))
    assert stabilization.SPLIT == 0.5
    assert stabilization.VOLUME_WEIGHT_OWN == -1.0
    assert stabilization.VOLUME_WEIGHT_EXTENSION == 0.5
    assert stabilization.DISSIPATIVE_WEIGHT == 1.0 / 3.0


def test_eta_rule():
    mesh = ramp_mesh(nx=16, ny=16)
    small = classify_small_cells(mesh, 0.25)
    eta = eta_values(mesh, small, 0.25)
    for cid in small:
        alpha = mesh.cells[cid].volume_fraction
        assert abs(eta[cid] - (1.0 - min(1.0, alpha / 0.25))) < 1e-15
        assert 0.0 <= eta[cid] <= 1.0
    assert eta[[c.id for c in mesh.cells if c.volume_fraction >= 0.25]].max() == 0.0
    half = eta_values(mesh, small, 0.25, scale=0.5)
    assert np.allclose(half, 0.5 * eta)


# ------------------------------------------------------------------ axioms


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_form_axioms_on_mixed_cells(degree):
    # cells with 3, 4 and 5 faces from a gentler ramp
    mesh = ramp_mesh(nx=4, ny=4, slope=0.55, offset=0.13)
    spec = SystemSpec.acoustics(1.0)
    space = Space(mesh, degree)
    rng = np.random.default_rng(degree)
    cut = [c.id for c in mesh.cells if c.volume_fraction < 1 - 1e-12]
    ks = {mesh.cells[c].num_faces for c in cut}
    assert {3, 4, 5} <= ks
    for cid in cut:
        worst = check_axioms_on_cell(space, spec, cid, rng, n_triples=10)
        for name, value in worst.items():
            assert value <= 1e-12, (cid, name, value)


def test_form_axioms_on_uncut_square_cell():
    # the identities are generic in the face count: a full background cell
    # (four regular faces) satisfies them just the same
    mesh = ramp_mesh(nx=4, ny=4)
    spec = SystemSpec.acoustics(1.0)
    space = Space(mesh, 2)
    uncut = next(c.id for c in mesh.cells if abs(c.volume_fraction - 1.0) < 1e-14)
    worst = check_axioms_on_cell(space, spec, uncut, np.random.default_rng(0), 10)
    assert all(v <= 1e-12 for v in worst.values())


def _own_tables(space, cid):
    """The source tables of cell ``cid`` with its own extension as the only
    source, as the axiom check builds them."""
    return source_tables(space, [cid], [[cid]])


def test_volume_form_divergence_identity():
    # p_V + p_V* equals the boundary functional of the averaged flux
    rng = np.random.default_rng(5)
    mesh = ramp_mesh(nx=4, ny=4, slope=0.55, offset=0.13)
    spec = SystemSpec.acoustics(1.0)
    space = Space(mesh, 2)
    for cid in [c.id for c in mesh.cells if c.volume_fraction < 1 - 1e-12]:
        tables = _own_tables(space, cid)
        K = mesh.cells[cid].num_faces
        U, V, W = (rng.uniform(-1, 1, (space.n_modes, 3)) for _ in range(3))
        p_v, p_vs = volume_forms(tables, spec, U, V, W)
        kappa = 2.0 / (K * (K - 1))
        boundary = kappa / 2.0 * sum(face_forms(tables, spec, U, V, W) * 2.0)
        assert abs(p_v + p_vs - boundary) < 1e-12 * max(abs(boundary), 1.0)


def test_volume_form_zero_for_constant_test():
    mesh = ramp_mesh(nx=4, ny=4, slope=0.55, offset=0.13)
    spec = SystemSpec.acoustics(1.0)
    space = Space(mesh, 1)
    cid = next(c.id for c in mesh.cells if c.volume_fraction < 1 - 1e-12)
    tables = _own_tables(space, cid)
    rng = np.random.default_rng(0)
    U = rng.uniform(-1, 1, (space.n_modes, 3))
    W = np.zeros((space.n_modes, 3))
    W[0] = [0.3, 1.0, -0.4]   # constant test function: gradient vanishes
    p_v, _ = volume_forms(tables, spec, U, U, W)
    assert abs(p_v) < 1e-15


def _field(space, cid, coeffs):
    return CellPolyField(coeffs, space.centers[cid], space.h, space.exps)


def _close(a, b):
    """Within 1e-13 relative; at r = 0 the volume terms are exactly zero."""
    return np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_array_forms_match_field_oracle(degree):
    # the 3-, 4- and 5-face cut cells and one uncut cell, five triples each
    mesh = ramp_mesh(nx=4, ny=4, slope=0.55, offset=0.13)
    spec = SystemSpec.acoustics(1.0)
    space = Space(mesh, degree)
    rng = np.random.default_rng(degree)
    by_faces = {}
    for c in mesh.cells:
        if c.volume_fraction < 1 - 1e-12:
            by_faces.setdefault(c.num_faces, c.id)
    uncut = next(c.id for c in mesh.cells if abs(c.volume_fraction - 1.0) < 1e-14)
    for cid in [by_faces[3], by_faces[4], by_faces[5], uncut]:
        tables = _own_tables(space, cid)
        oracle = FieldForms(space, spec, cid)
        K = oracle.K
        U, V, W, W2 = rng.uniform(-1, 1, (4, 5, space.n_modes, 3))
        a, b = rng.uniform(-1, 1, (2, 5))
        combo = a[:, None, None] * W + b[:, None, None] * W2
        triples = [
            [_field(space, cid, x) for x in (u, v, w)]
            + [CombinedField([(at, _field(space, cid, w)), (bt, _field(space, cid, w2))])]
            for u, v, w, w2, at, bt in zip(U, V, W, W2, a, b)
        ]
        pairs = [(i, j) for i in range(K) for j in range(K) if i != j]

        A = [[oracle.face_functional(k, u, v, w) for k in range(K)] for u, v, w, _ in triples]
        assert _close(face_forms(tables, spec, U, V, W), np.array(A))
        for test, args in ((2, (U, V, W)), (3, (U, V, combo))):
            P = surface_forms(face_forms(tables, spec, *args))
            expected = [[oracle.surface(i, j, t[0], t[1], t[test]) for i, j in pairs] for t in triples]
            assert _close(P[:, [i for i, _ in pairs], [j for _, j in pairs]], np.array(expected))
            assert np.all(np.diagonal(P, axis1=1, axis2=2) == 0.0)
        p_v, p_vs = volume_forms(tables, spec, U, V, W)
        expected = np.array([oracle.volume(u, v, w) for u, v, w, _ in triples])
        assert _close(p_v, expected[:, 0])
        assert _close(p_vs, expected[:, 1])


def test_axiom_check_detects_skewed_surface_weights(monkeypatch):
    # one weight of every p_ij off by 0.1 / K breaks pair balance and the face sum
    mesh = ramp_mesh(nx=4, ny=4, slope=0.55, offset=0.13)
    spec = SystemSpec.acoustics(1.0)
    space = Space(mesh, 2)
    cid = next(c.id for c in mesh.cells if c.volume_fraction < 1 - 1e-12)
    worst = check_axioms_on_cell(space, spec, cid, np.random.default_rng(0), 10)
    assert max(worst.values()) <= 1e-12

    def skewed(K, i, j):
        c = np.full(K, 1.0 / (K * (K - 1)))
        c[j] += 1.1 / K
        c[i] -= 1.0 / K
        return c

    monkeypatch.setattr(stabilization, "surface_weights", skewed)
    worst = check_axioms_on_cell(space, spec, cid, np.random.default_rng(0), 10)
    assert worst["balance"] > 1e-8
    assert worst["face_consistency"] > 1e-8


def test_one_face_weight_reaches_the_axiom_check_and_the_penalty(monkeypatch):
    # the axiom check and the penalty read one set of source tables: a face
    # weight perturbed inside source_tables moves both, the check past its
    # bound and the penalty's surface matrix away from the probed oracle's,
    # which evaluates the basis on its own
    ctx = build_context(ramp_config("acoustics", 1, 1e-2, nx=8))
    cid = ctx.small[0]
    fid = ctx.mesh.cell_faces(cid)[0]
    original = stabilization.source_tables

    def perturbed(space, *args):
        space = copy.copy(space)
        rule = space.face_rule

        def face_rule(fids):
            pts, w = rule(fids)
            w[..., 0] *= np.where(fids == fid, 1.0 + 1e-6, 1.0)
            return pts, w

        space.face_rule = face_rule
        return original(space, *args)

    for module in (stabilization, experiments):
        monkeypatch.setattr(module, "source_tables", perturbed)
    worst = check_axioms_on_cell(ctx.space, ctx.spec, cid, np.random.default_rng(0), 10)
    assert worst["face_consistency"] > 1e-12
    stab = WaveStabilization(ctx.space, ctx.spec, ctx.small, ctx.eta)
    expected = ProbedPenalty(stab).parts(cid)["surface"]
    surface = penalty_cells(stab)[cid].parts["surface"]
    assert np.abs(surface - expected).max() > 1e-12 * np.abs(expected).max()
    monkeypatch.undo()
    worst = check_axioms_on_cell(ctx.space, ctx.spec, cid, np.random.default_rng(0), 10)
    assert max(worst.values()) <= 1e-12
    _check_against_probed(WaveStabilization(ctx.space, ctx.spec, ctx.small, ctx.eta), 1e-14)


# -------------------------------------------------------------- advection


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_advection_penalty_annihilates_global_polynomials(degree):
    mesh, spec, space, small, eta = _setup("advection", degree)
    rng = np.random.default_rng(degree)
    stab = AdvectionStabilization(space, spec, small, eta)
    h = space.h
    for _ in range(5):
        fld = random_polynomial(rng, degree, 1)
        u = fld.to_dg(space)
        umax = max(abs(fld.coeffs).max(), 1e-300)
        for res in penalty_residuals(stab, u):
            assert np.abs(res).max() <= 1e-11 * umax * h


def test_advection_penalty_zero_eta():
    mesh, spec, space, small, _ = _setup("advection", 1)
    eta = np.zeros(mesh.num_cells)
    rng = np.random.default_rng(1)
    u = space.zeros(1)
    u.coeffs[:] = rng.uniform(-1, 1, size=u.coeffs.shape)
    res = _apply(AdvectionStabilization(space, spec, small, eta), u)
    assert np.all(res == 0.0)


def test_advection_penalty_r0_hand_quadrature():
    # constants: every integral is value times face length
    mesh, spec, space, small, eta = _setup("advection", 0)
    rng = np.random.default_rng(2)
    u = space.zeros(1)
    u.coeffs[:, 0, 0] = rng.uniform(-1, 1, size=mesh.num_cells)
    res = _apply(AdvectionStabilization(space, spec, small, eta), u)

    expected = np.zeros_like(res)
    beta = spec.beta
    for cid in small:
        cell = mesh.cells[cid]
        inflow = [f for f in cell.face_ids if float(beta @ mesh.outward_normal(cid, f)) < -1e-12]
        up = mesh.neighbor(cid, inflow[0])
        d = u.coeffs[up, 0, 0] - u.coeffs[cid, 0, 0]
        for fid in cell.face_ids:
            bn = max(float(beta @ mesh.outward_normal(cid, fid)), 0.0)
            if bn == 0.0:
                continue
            val = eta[cid] * bn * d * float(np.hypot(*(mesh.face_q[fid] - mesh.face_p[fid])))
            expected[cid, 0, 0] += val
            nb = mesh.neighbor(cid, fid)
            if nb is not None:
                expected[nb, 0, 0] -= val
    assert np.allclose(res, expected, atol=1e-14)


# ------------------------------------------------------------------- wave


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_wave_penalty_annihilates_pressure_polynomials(degree):
    mesh, spec, space, small, eta = _setup("acoustics", degree)
    stab = WaveStabilization(space, spec, small, eta)
    rng = np.random.default_rng(degree)
    h = space.h
    for _ in range(5):
        fld = random_polynomial(rng, degree, 3, pressure_only=True)
        u = fld.to_dg(space)
        umax = max(abs(fld.coeffs).max(), 1e-300)
        for res in penalty_residuals(stab, u):
            assert np.abs(res).max() <= 1e-11 * umax * h


def test_wave_penalty_annihilates_tangential_velocity(degree=2):
    # stabilized cells only touch the ramp wall; velocity parallel to it is
    # wall-compatible, so the penalty must vanish on such global fields
    mesh, spec, space, small, eta = _setup("acoustics", degree)
    for cid in small:
        assert face_kinds(mesh, mesh.cells[cid].face_ids).count("boundary") == 1
    slope = 0.75
    norm = np.hypot(1.0, slope)
    tang = np.array([1.0, slope]) / norm
    rng = np.random.default_rng(degree)
    g = rng.uniform(-1, 1, size=space.n_modes)
    p = rng.uniform(-1, 1, size=space.n_modes)
    fld = PolynomialField([p, tang[0] * g, tang[1] * g], degree)
    u = fld.to_dg(space)
    stab = WaveStabilization(space, spec, small, eta)
    umax = max(abs(fld.coeffs).max(), 1e-300)
    for res in penalty_residuals(stab, u):
        assert np.abs(res).max() <= 1e-11 * umax * space.h


def test_wave_penalty_zero_eta():
    mesh, spec, space, small, _ = _setup("acoustics", 1)
    eta = np.zeros(mesh.num_cells)
    rng = np.random.default_rng(4)
    u = space.zeros(3)
    u.coeffs[:] = rng.uniform(-1, 1, size=u.coeffs.shape)
    res = _apply(WaveStabilization(space, spec, small, eta), u)
    assert np.all(res == 0.0)


def test_wave_cancellation_terms_are_base_kernels_bitwise():
    # at eta = 1 each cell's matrix is the pair matrix minus the face
    # matrices the base form is assembled from, in the penalty's order of
    # summation
    mesh, spec, space, small, _ = _setup("acoustics", 2)
    eta = np.ones(mesh.num_cells)
    stab = WaveStabilization(space, spec, small, eta)
    for cid, cell in penalty_cells(stab).items():
        expected = cell.parts["surface"] + cell.parts["volume"] + cell.parts["dissipative"]
        for fid in mesh.cells[cid].face_ids:
            for flags in ((True, False), (False, True)):
                expected = expected - face_matrix_on(space, spec, fid, cell.cells, *flags)
        assert np.array_equal(cell.local, expected)


_CONFIGS = Path(__file__).resolve().parent.parent / "configs"

_GRID = [
    (equation, degree, alpha)
    for equation in ("acoustics", "advection")
    for degree in (0, 1, 2, 3)
    for alpha in (1e-2, 1e-5, 1e-8)
]


def _relative(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("equation, degree, alpha", _GRID)
def test_penalty_matrices_match_probed_oracle(equation, degree, alpha):
    ctx = build_context(ramp_config(equation, degree, alpha, nx=8))
    stab = ctx.stab
    oracle = ProbedPenalty(stab)
    assert len(ctx.small) > 0
    for cid, cell in penalty_cells(stab).items():
        assert cell.cells == oracle.neighborhood(cid)
        assert _relative(cell.local, oracle.local[cid]) <= 1e-13
    matrix = block_matrix(stab.blocks(), ctx.mesh.num_cells)
    assert _relative(matrix.toarray(), oracle.matrix().toarray()) <= 1e-13


def _check_against_probed(stab, bound):
    """Every named matrix and local matrix of the acoustic ``stab`` against
    the probed oracle, which builds them one cell at a time; returns the
    oracle."""
    oracle = ProbedPenalty(stab)
    for cid, cell in penalty_cells(stab).items():
        assert cell.cells == oracle.neighborhood(cid)
        expected = dict(oracle.parts(cid), local=oracle.local[cid])
        got = dict(cell.parts, local=cell.local)
        for name, probed in expected.items():
            # exact zeros (the volume matrix at r = 0) must stay exact
            assert np.abs(got[name] - probed).max() <= bound * np.abs(probed).max(), (cid, name)
    return oracle


@pytest.mark.parametrize("degree, alpha", [(r, a) for eq, r, a in _GRID if eq == "acoustics"])
def test_batched_wave_penalty_matches_percell_build(degree, alpha):
    # the per-cell build is the probed oracle's
    ctx = build_context(ramp_config("acoustics", degree, alpha, nx=8))
    assert len(ctx.small) > 0
    _check_against_probed(ctx.stab, 1e-14)


@pytest.mark.parametrize("degree", [1, 2])
def test_mixed_stabilized_set_matches_percell_and_probed(degree):
    # several groups: ramp triangles and a cut quad or pentagon with the ramp
    # as wall, an interior cell without a wall, a box-wall cell with its wall
    # at another face position; each cell against the probed oracle, then
    # the whole probed matrix
    ctx = build_context(ramp_config("acoustics", degree, 1e-2, nx=8))
    cells = mixed_stabilized_set(ctx.mesh, ctx.small)
    patterns = {
        (ctx.mesh.cells[c].num_faces,
         face_kinds(ctx.mesh, ctx.mesh.cells[c].face_ids).count("boundary"))
        for c in cells
    }
    assert {(3, 1), (4, 0), (4, 1)} <= patterns
    eta = np.linspace(0.2, 1.0, ctx.mesh.num_cells)
    stab = WaveStabilization(ctx.space, ctx.spec, cells, eta)
    oracle = _check_against_probed(stab, 1e-14)
    matrix = block_matrix(stab.blocks(), ctx.mesh.num_cells)
    assert _relative(matrix.toarray(), oracle.matrix().toarray()) <= 1e-13


@pytest.mark.parametrize("equation", ["advection", "acoustics"])
def test_penalty_group_arrays_own_their_memory(equation):
    # the groups hold every stabilized cell once; a stored array that is a
    # view into a batch's temporaries would keep the whole temporary alive.
    # At r = 3 the acoustic cells come in two batches.
    ctx = build_context(ramp_config(equation, 3, 1e-2, nx=16))
    ids = np.concatenate([g.cell_ids for g in ctx.stab.groups])
    assert np.array_equal(np.sort(ids), ctx.small)
    for g in ctx.stab.groups:
        for a in (g.cell_ids, g.eta, g.cells, g.local, *g.parts.values()):
            assert a.flags.owndata


def _mixed_penalty():
    ctx = build_context(ramp_config("acoustics", 1, 1e-2, nx=8))
    cells = mixed_stabilized_set(ctx.mesh, ctx.small)
    return WaveStabilization(ctx.space, ctx.spec, cells, np.linspace(0.2, 1.0, ctx.mesh.num_cells))


@pytest.mark.parametrize("case", ["stability-sliver", "consistency-advection", "mixed"])
def test_penalty_blocks_sum_in_ascending_cell_order(case):
    # neighborhoods overlap, so the order in which block_matrix sums the
    # blocks at one position shows in the last bits; the mixed set's groups
    # hold cells out of ascending order
    if case == "mixed":
        stab = _mixed_penalty()
    else:
        stab = build_context(load_config(str(_CONFIGS / f"{case}.cfg"))).stab
    cells = penalty_cells(stab)
    assert np.bincount(np.concatenate([c.cells for c in cells.values()])).max() > 1
    num_cells = stab.space.mesh.num_cells
    got = block_matrix(stab.blocks(), num_cells)
    expected = block_matrix(
        [local_blocks(np.array([c.cells]), c.local[None]) for c in cells.values()], num_cells)
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, part), getattr(expected, part))


@pytest.mark.parametrize("degree, alpha", [(r, a) for eq, r, a in _GRID if eq == "acoustics"])
def test_wave_dissipative_coupling_is_positive_semidefinite(degree, alpha):
    ctx = build_context(ramp_config("acoustics", degree, alpha, nx=8))
    for cell in penalty_cells(ctx.stab).values():
        D = cell.parts["dissipative"]
        assert np.abs(D - D.T).max() <= 1e-13 * np.abs(D).max()
        lam = np.linalg.eigvalsh(0.5 * (D + D.T))
        assert lam[0] >= -1e-13 * lam[-1]


def test_wave_penalty_rejects_double_wall_pairs():
    # box corner cell forced into the stabilized set
    mesh = ramp_mesh(nx=4, ny=4)
    spec = SystemSpec.acoustics(1.0)
    space = Space(mesh, 1)
    corner = next(
        c.id for c in mesh.cells
        if face_kinds(mesh, c.face_ids).count("boundary") >= 2
    )
    eta = np.ones(mesh.num_cells)
    with pytest.raises(CornerCellError):
        WaveStabilization(space, spec, [corner], eta)


def test_wave_penalty_names_the_corner_after_valid_cells():
    # a valid set with a box corner cell after it: the error names the
    # corner and its two wall faces, as the probed oracle's per-cell build does
    ctx = build_context(ramp_config("acoustics", 1, 1e-2, nx=8))
    mesh = ctx.mesh
    corner = next(
        c for c in mesh.cells
        if c.volume_fraction == 1.0
        and face_kinds(mesh, c.face_ids).count("boundary") == 2
    )
    walls = [f for f in corner.face_ids if mesh.face_right[f] < 0]
    with pytest.raises(UnsupportedConfigurationError) as probed:
        _WaveCellContext(ctx.space, ctx.spec, corner.id)
    with pytest.raises(CornerCellError) as batched:
        WaveStabilization(ctx.space, ctx.spec, list(ctx.small) + [corner.id], np.ones(mesh.num_cells))
    assert str(batched.value) == str(probed.value)
    assert str(batched.value).startswith(
        f"cell {corner.id}: faces {walls[0]} and {walls[1]} are both boundary faces"
    )


_ADVECTION_CASES = [(r, a) for eq, r, a in _GRID if eq == "advection"] + ["conservation-bump"]


@pytest.mark.parametrize("case", _ADVECTION_CASES, ids=str)
def test_boundary_outflow_weights_match_probed_oracle(case):
    # eta (beta.n)^+ int (phi_up - phi_E) on every wall face of a stabilized
    # cell, summed from the probed oracle's per-face data
    if case == "conservation-bump":
        cfg = load_config(str(_CONFIGS / "conservation-bump.cfg"))
    else:
        cfg = ramp_config("advection", *case, nx=8)
    ctx = build_context(cfg)
    stab = ctx.stab
    oracle = ProbedPenalty(stab)
    expected = np.zeros((ctx.mesh.num_cells, ctx.space.n_modes, 1))
    for cid in oracle.cell_ids:
        cell = oracle._ctx[cid]
        for face in cell.faces:
            if face["boundary"]:
                rate = oracle.eta[cid] * face["bn_plus"]
                expected[cell.upstream, :, 0] += rate * (face["w"] @ face["phi_up"])
                expected[cid, :, 0] -= rate * (face["w"] @ face["phi_E"])
    assert np.abs(expected).max() > 0.0
    got = stab.boundary_outflow_weights()
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def _uncut(mesh, walls):
    """The first uncut cell with ``walls`` boundary faces, all on the left box wall."""
    def left_wall(c, f):
        return mesh.face_right[f] < 0 and mesh.outward_normal(c.id, f)[0] == -1.0

    return next(
        c for c in mesh.cells
        if c.volume_fraction == 1.0
        and face_kinds(mesh, c.face_ids).count("boundary") == walls
        and all(left_wall(c, f) for f in c.face_ids if mesh.face_right[f] < 0)
    )


@pytest.mark.parametrize("beta", [(1.0, 0.2), (1.0, 0.0)])
def test_advection_penalty_names_the_inflow_offender_after_valid_cells(beta):
    # a valid set with one forced offender after it: an interior cell with
    # two inflow faces (beta = (1, 0.2)), or a left-wall cell whose inflow
    # face is the wall (beta = (1, 0)); the error names that cell as the
    # small-cell classification does
    ctx = build_context(ramp_config("advection", 1, 1e-2, nx=8, beta=beta))
    mesh = ctx.mesh
    if beta[1] != 0.0:
        cell = _uncut(mesh, 0)
        error = MeshValidationError
        message = f"stabilized cell {cell.id} has 2 inflow faces; exactly one required"
    else:
        cell = _uncut(mesh, 1)
        wall = next(f for f in cell.face_ids if mesh.face_right[f] < 0)
        error = BoundaryInflowError
        message = f"stabilized cell {cell.id}: inflow face {wall} lies on the physical boundary"
    AdvectionStabilization(ctx.space, ctx.spec, ctx.small, ctx.eta)
    with pytest.raises(error) as err:
        AdvectionStabilization(ctx.space, ctx.spec, list(ctx.small) + [cell.id], np.ones(mesh.num_cells))
    assert str(err.value) == message
