import numpy as np
import pytest

from conftest import ramp_mesh
from cutdg.dg import AssemblyPlan, face_terms, local_matrix
from cutdg.errors import UnsupportedConfigurationError
from cutdg.geometry import classify_small_cells
from cutdg.operators import CellPolyField
from cutdg.quadrature import Space
from cutdg.solutions import PolynomialField, random_polynomial
from cutdg.stabilization import (
    AdvectionStabilization,
    CellForms,
    WaveStabilization,
    eta_values,
    surface_weights,
)
from cutdg.systems import DissipationSpec, SystemSpec

from cutdg.experiments import build_context, check_axioms_on_cell, ramp_config
from probed_penalty import ProbedPenalty


def _setup(equation="acoustics", degree=1, nx=16, alpha0=0.25, beta=(1.0, 0.2)):
    mesh = ramp_mesh(nx=nx, ny=nx)
    if equation == "advection":
        spec = SystemSpec.advection(beta)
        diss = DissipationSpec("upwind")
        small = classify_small_cells(mesh, alpha0, beta=beta)
    else:
        spec = SystemSpec.acoustics(1.0)
        diss = DissipationSpec("rusanov")
        small = classify_small_cells(mesh, alpha0)
    space = Space(mesh, degree)
    plan = AssemblyPlan(space, spec, diss)
    eta = eta_values(mesh, small, alpha0)
    return mesh, spec, diss, space, plan, small, eta


def _apply(stab, u):
    """The penalty's residual array through its global matrix."""
    return (stab.matrix() @ u.coeffs.ravel()).reshape(u.coeffs.shape)


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


def test_volume_form_divergence_identity():
    # p_V + p_V* equals the boundary functional of the averaged flux
    rng = np.random.default_rng(5)
    mesh = ramp_mesh(nx=4, ny=4, slope=0.55, offset=0.13)
    spec = SystemSpec.acoustics(1.0)
    space = Space(mesh, 2)
    for cid in [c.id for c in mesh.cells if c.volume_fraction < 1 - 1e-12]:
        forms = CellForms(space, spec, cid)
        U = CellPolyField(rng.uniform(-1, 1, (space.n_modes, 3)), space.basis.center(cid), space.basis.h, space.basis.exps)
        V = CellPolyField(rng.uniform(-1, 1, (space.n_modes, 3)), space.basis.center(cid), space.basis.h, space.basis.exps)
        W = CellPolyField(rng.uniform(-1, 1, (space.n_modes, 3)), space.basis.center(cid), space.basis.h, space.basis.exps)
        p_v, p_vs = forms.volume(U, V, W)
        boundary = forms.kappa / 2.0 * sum(
            forms.face_functional(k, U, V, W) * 2.0 for k in range(forms.K)
        )
        assert abs(p_v + p_vs - boundary) < 1e-12 * max(abs(boundary), 1.0)


def test_volume_form_zero_for_constant_test():
    mesh = ramp_mesh(nx=4, ny=4, slope=0.55, offset=0.13)
    spec = SystemSpec.acoustics(1.0)
    space = Space(mesh, 1)
    cid = next(c.id for c in mesh.cells if c.volume_fraction < 1 - 1e-12)
    forms = CellForms(space, spec, cid)
    rng = np.random.default_rng(0)
    U = CellPolyField(rng.uniform(-1, 1, (space.n_modes, 3)), space.basis.center(cid), space.basis.h, space.basis.exps)
    w_coeffs = np.zeros((space.n_modes, 3))
    w_coeffs[0] = [0.3, 1.0, -0.4]   # constant test function: gradient vanishes
    W = CellPolyField(w_coeffs, space.basis.center(cid), space.basis.h, space.basis.exps)
    p_v, _ = forms.volume(U, U, W)
    assert abs(p_v) < 1e-15


# -------------------------------------------------------------- advection


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_advection_penalty_annihilates_global_polynomials(degree):
    mesh, spec, diss, space, plan, small, eta = _setup("advection", degree)
    rng = np.random.default_rng(degree)
    stab = AdvectionStabilization(plan, small, eta)
    h = space.basis.h
    for _ in range(5):
        fld = random_polynomial(rng, degree, 1)
        u = fld.to_dg(space)
        umax = max(abs(fld.coeffs).max(), 1e-300)
        for cid in stab.cell_ids:
            for C, block in stab.cell_residual(cid, u).items():
                assert np.abs(block).max() <= 1e-11 * umax * h


def test_advection_penalty_zero_eta():
    mesh, spec, diss, space, plan, small, _ = _setup("advection", 1)
    eta = np.zeros(mesh.num_cells)
    rng = np.random.default_rng(1)
    u = space.zeros(1)
    u.coeffs[:] = rng.uniform(-1, 1, size=u.coeffs.shape)
    res = _apply(AdvectionStabilization(plan, small, eta), u)
    assert np.all(res == 0.0)


def test_advection_penalty_r0_hand_quadrature():
    # constants: every integral is value times face length
    mesh, spec, diss, space, plan, small, eta = _setup("advection", 0)
    rng = np.random.default_rng(2)
    u = space.zeros(1)
    u.coeffs[:, 0, 0] = rng.uniform(-1, 1, size=mesh.num_cells)
    res = _apply(AdvectionStabilization(plan, small, eta), u)

    expected = np.zeros_like(res)
    beta = spec.beta
    for cid in small:
        cell = mesh.cells[cid]
        inflow = [f for f in cell.face_ids if float(beta @ mesh.outward_normal(cid, f)) < -1e-12]
        up = mesh.neighbor(cid, inflow[0])
        d = u.coeffs[up, 0, 0] - u.coeffs[cid, 0, 0]
        for fid in cell.face_ids:
            face = mesh.faces[fid]
            bn = max(float(beta @ mesh.outward_normal(cid, fid)), 0.0)
            if bn == 0.0:
                continue
            val = eta[cid] * bn * d * face.length
            expected[cid, 0, 0] += val
            nb = mesh.neighbor(cid, fid)
            if nb is not None:
                expected[nb, 0, 0] -= val
    assert np.allclose(res, expected, atol=1e-14)


# ------------------------------------------------------------------- wave


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_wave_penalty_annihilates_pressure_polynomials(degree):
    mesh, spec, diss, space, plan, small, eta = _setup("acoustics", degree)
    stab = WaveStabilization(plan, small, eta)
    rng = np.random.default_rng(degree)
    h = space.basis.h
    for _ in range(5):
        fld = random_polynomial(rng, degree, 3, pressure_only=True)
        u = fld.to_dg(space)
        umax = max(abs(fld.coeffs).max(), 1e-300)
        for cid in stab.cell_ids:
            for C, block in stab.cell_residual(cid, u).items():
                assert np.abs(block).max() <= 1e-11 * umax * h


def test_wave_penalty_annihilates_tangential_velocity(degree=2):
    # stabilized cells only touch the ramp wall; velocity parallel to it is
    # wall-compatible, so the penalty must vanish on such global fields
    mesh, spec, diss, space, plan, small, eta = _setup("acoustics", degree)
    for cid in small:
        kinds = [mesh.faces[f].kind for f in mesh.cells[cid].face_ids]
        assert kinds.count("boundary") == 1
    slope = 0.75
    norm = np.hypot(1.0, slope)
    tang = np.array([1.0, slope]) / norm
    rng = np.random.default_rng(degree)
    g = rng.uniform(-1, 1, size=space.n_modes)
    p = rng.uniform(-1, 1, size=space.n_modes)
    fld = PolynomialField([p, tang[0] * g, tang[1] * g], degree)
    u = fld.to_dg(space)
    stab = WaveStabilization(plan, small, eta)
    umax = max(abs(fld.coeffs).max(), 1e-300)
    for cid in stab.cell_ids:
        for C, block in stab.cell_residual(cid, u).items():
            assert np.abs(block).max() <= 1e-11 * umax * space.basis.h


def test_wave_penalty_zero_eta():
    mesh, spec, diss, space, plan, small, _ = _setup("acoustics", 1)
    eta = np.zeros(mesh.num_cells)
    rng = np.random.default_rng(4)
    u = space.zeros(3)
    u.coeffs[:] = rng.uniform(-1, 1, size=u.coeffs.shape)
    res = _apply(WaveStabilization(plan, small, eta), u)
    assert np.all(res == 0.0)


def test_wave_cancellation_terms_are_base_kernels_bitwise():
    # at eta = 1 each cell's matrix is the pair matrix minus the base face
    # kernels' own local matrices, in the penalty's order of summation
    mesh, spec, diss, space, plan, small, _ = _setup("acoustics", 2)
    eta = np.ones(mesh.num_cells)
    stab = WaveStabilization(plan, small, eta)
    for cid in stab.cell_ids:
        ctx = stab._ctx[cid]
        expected = ctx.surface + ctx.volume + ctx.dissipative
        for fid in mesh.cells[cid].face_ids:
            for flags in ((True, False), (False, True)):
                expected = expected - local_matrix(
                    lambda u: face_terms(plan, fid, u, *flags), ctx.cells, plan.shape
                )
        assert np.array_equal(stab.local[cid], expected)


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
    assert len(stab.cell_ids) > 0
    for cid in stab.cell_ids:
        assert stab.neighborhood(cid) == oracle.neighborhood(cid)
        assert _relative(stab.local[cid], oracle.local_matrix(cid)) <= 1e-13
        if equation == "acoustics":
            c = stab._ctx[cid]
            pair = oracle.local_matrix(cid, oracle.pair_residual)
            assert _relative(c.surface + c.volume + c.dissipative, pair) <= 1e-13
    assert _relative(stab.matrix().toarray(), oracle.matrix().toarray()) <= 1e-13


@pytest.mark.parametrize("degree, alpha", [(r, a) for eq, r, a in _GRID if eq == "acoustics"])
def test_wave_dissipative_coupling_is_positive_semidefinite(degree, alpha):
    ctx = build_context(ramp_config("acoustics", degree, alpha, nx=8))
    for cid in ctx.stab.cell_ids:
        D = ctx.stab._ctx[cid].dissipative
        assert np.abs(D - D.T).max() <= 1e-13 * np.abs(D).max()
        lam = np.linalg.eigvalsh(0.5 * (D + D.T))
        assert lam[0] >= -1e-13 * lam[-1]


def test_wave_penalty_rejects_double_wall_pairs():
    # box corner cell forced into the stabilized set
    mesh = ramp_mesh(nx=4, ny=4)
    spec = SystemSpec.acoustics(1.0)
    diss = DissipationSpec("rusanov")
    space = Space(mesh, 1)
    plan = AssemblyPlan(space, spec, diss)
    corner = next(
        c.id for c in mesh.cells
        if sum(mesh.faces[f].kind == "boundary" for f in c.face_ids) >= 2
    )
    eta = np.ones(mesh.num_cells)
    with pytest.raises(UnsupportedConfigurationError):
        WaveStabilization(plan, [corner], eta)
