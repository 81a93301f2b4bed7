import numpy as np
import pytest

from conftest import ramp_mesh, uncut_mesh
from probed_penalty import ProbedPenalty
from cutdg.dg import AssemblyPlan, boundary_outflow_weights, face_terms
from cutdg.quadrature import Space, face_quadrature
from cutdg.solutions import PolynomialField, random_polynomial
from cutdg.systems import DissipationSpec, SystemSpec


def _plan(mesh, degree, spec, diss=None):
    space = Space(mesh, degree)
    if diss is None:
        diss = DissipationSpec("upwind" if spec.kind == "advection" else "rusanov")
    return space, AssemblyPlan(space, spec, diss)


def test_constant_state_interior_residual_vanishes():
    # jumps of a constant are zero: only boundary faces contribute
    mesh = ramp_mesh(nx=8, ny=8)
    spec = SystemSpec.advection((1.0, 0.2))
    space, plan = _plan(mesh, 1, spec)
    u = space.zeros(1)
    u.coeffs[:, 0, 0] = 2.0
    res = plan.base_residual(u)
    boundary_cells = {f.left_cell for f in mesh.faces if f.kind == "boundary"}
    for cell in mesh.cells:
        if cell.id not in boundary_cells:
            assert np.allclose(res[cell.id], 0.0, atol=1e-14)


def test_single_cell_r0_outflow():
    mesh = uncut_mesh(1, 1)
    spec = SystemSpec.advection((1.0, 0.0))
    space, plan = _plan(mesh, 0, spec)
    u = space.zeros(1)
    u.coeffs[0, 0, 0] = 3.0
    res = plan.base_residual(u)
    # outflow face has length 1: residual of the constant mode is u * 1
    assert abs(res[0, 0, 0] - 3.0) < 1e-14


@pytest.mark.parametrize("degree", [1, 2])
def test_steady_polynomial_residual_is_boundary_only(degree):
    # u = g(beta_perp . x) is steady; away from the boundary everything cancels
    rng = np.random.default_rng(degree)
    beta = np.array([1.0, 0.4])
    spec = SystemSpec.advection(beta)
    mesh = ramp_mesh(nx=8, ny=8)
    space, plan = _plan(mesh, degree, spec)
    # g(s) = s^degree composed with the perpendicular coordinate
    bp = np.array([-beta[1], beta[0]])
    if degree == 1:
        fld = PolynomialField([[0.3, bp[0], bp[1]]], 1)
    else:
        # (bp . x)^2 = bp0^2 x^2 + 2 bp0 bp1 xy + bp1^2 y^2
        fld = PolynomialField([[0.0, 0.0, 0.0, bp[0] ** 2, 2 * bp[0] * bp[1], bp[1] ** 2]], 2)
    u = fld.to_dg(space)
    res = plan.base_residual(u)

    expected = np.zeros_like(res)
    for face in mesh.faces:
        if face.kind != "boundary":
            continue
        n = face.normal
        coef = max(-float(beta @ n), 0.0)   # (beta.n)^+ - beta.n on the wall
        if coef == 0.0:
            continue
        pts, w = face_quadrature(face.p, face.q, space.face_npts + 2)
        vals = fld(pts)[:, 0]
        phi = space.basis.values(face.left_cell, pts)
        expected[face.left_cell, :, 0] += coef * (phi.T @ (w * vals))
    scale = np.abs(res).max()
    assert np.allclose(res, expected, atol=1e-11 * max(scale, 1.0))


def test_continuous_polynomial_jump_terms_vanish():
    rng = np.random.default_rng(3)
    mesh = ramp_mesh(nx=8, ny=8)
    spec = SystemSpec.acoustics(1.0)
    space, plan = _plan(mesh, 2, spec)
    fld = random_polynomial(rng, 2, 3)
    u = fld.to_dg(space)
    for face in mesh.faces:
        if face.kind != "internal":
            continue
        terms = face_terms(plan, face.id, u, central=False, dissipative=True)
        for _, block in terms:
            assert np.abs(block).max() < 1e-12


def test_central_form_is_energy_neutral_acoustics():
    # the central part of the form is skew: a(u, u) = 0 for every discrete u,
    # including the wall terms (mirror pairing carries no energy)
    class _ZeroDiss:
        kind = "rusanov"

        def coefficient(self, spec, n):
            return 0.0

    rng = np.random.default_rng(7)
    mesh = ramp_mesh(nx=8, ny=8)
    spec = SystemSpec.acoustics(1.3)
    space = Space(mesh, 2)
    plan = AssemblyPlan(space, spec, _ZeroDiss())
    for _ in range(5):
        u = space.zeros(3)
        u.coeffs[:] = rng.uniform(-1, 1, size=u.coeffs.shape)
        res = plan.base_residual(u)
        energy = float(np.sum(res * u.coeffs))
        norm2 = space.l2_norm(u) ** 2
        assert abs(energy) < 1e-10 * max(norm2, 1.0)


def test_semi_discrete_conservation():
    rng = np.random.default_rng(11)
    mesh = ramp_mesh(nx=8, ny=8)
    spec = SystemSpec.advection((1.0, 0.3))
    space, plan = _plan(mesh, 1, spec)
    u = space.zeros(1)
    u.coeffs[:] = rng.uniform(-1, 1, size=u.coeffs.shape)
    res = plan.base_residual(u)
    total = float(np.sum(res[:, 0, 0]))   # pairing with the global constant
    outflow = float(np.vdot(boundary_outflow_weights(space, spec), u.coeffs))
    # inflow faces contribute nothing by construction; collect the rest
    assert abs(total - outflow) < 1e-12 * max(abs(outflow), 1.0)


def test_apply_mass_inverse_r0():
    mesh = ramp_mesh(nx=4, ny=4)
    spec = SystemSpec.advection((1.0, 0.2))
    space, plan = _plan(mesh, 0, spec)
    res = np.zeros((mesh.num_cells, 1, 1))
    res[:, 0, 0] = np.arange(mesh.num_cells, dtype=float)
    out = plan.apply_mass_inverse(res)
    for cell in mesh.cells:
        assert abs(out[cell.id, 0, 0] - cell.id / cell.area) < 1e-10 * (1 + cell.id / cell.area)


def test_apply_mass_inverse_matches_dense_solve():
    rng = np.random.default_rng(13)
    mesh = ramp_mesh(nx=4, ny=4)
    spec = SystemSpec.acoustics(1.0)
    space, plan = _plan(mesh, 2, spec)
    res = rng.uniform(-1, 1, size=(mesh.num_cells, space.n_modes, 3))
    out = plan.apply_mass_inverse(res)
    for cid in range(mesh.num_cells):
        expected = np.linalg.solve(space.mass[cid], res[cid])
        assert np.allclose(out[cid], expected, atol=1e-9)


def test_mismatched_function_rejected():
    from cutdg.errors import ConfigurationError

    mesh = uncut_mesh(2, 2)
    spec = SystemSpec.acoustics(1.0)
    space, plan = _plan(mesh, 1, spec)
    with pytest.raises(ConfigurationError):
        plan.base_residual(space.zeros(1))


def test_zero_state_zero_residual():
    mesh = ramp_mesh(nx=4, ny=4)
    spec = SystemSpec.acoustics(1.0)
    space, plan = _plan(mesh, 1, spec)
    res = plan.base_residual(space.zeros(3))
    assert np.all(res == 0.0)


def test_standing_pressure_state_is_steady():
    # constant pressure, zero velocity: reflecting walls keep it in place
    mesh = ramp_mesh(nx=8, ny=8)
    spec = SystemSpec.acoustics(1.0)
    space, plan = _plan(mesh, 1, spec)
    u = space.zeros(3)
    u.coeffs[:, 0, 0] = 4.2
    res = plan.base_residual(u)
    assert np.abs(res).max() < 1e-13


def test_assembly_is_reproducible():
    rng = np.random.default_rng(17)
    mesh = ramp_mesh(nx=8, ny=8)
    spec = SystemSpec.acoustics(1.0)
    space, plan = _plan(mesh, 1, spec)
    u = space.zeros(3)
    u.coeffs[:] = rng.uniform(-1, 1, size=u.coeffs.shape)
    r1 = plan.base_residual(u)
    r2 = plan.base_residual(u)
    assert np.array_equal(r1, r2)


# ------------------------------------------------- assembled operator oracle


def _oracle(ctx, u):
    """(B + S) u by summing face_terms over every face, per-cell volume terms
    and the probed penalty residual; du/dt by dense per-cell mass solves."""
    from scipy.linalg import cho_factor, cho_solve

    space, spec = ctx.space, ctx.spec
    res = np.zeros_like(u.coeffs)
    for face in ctx.mesh.faces:
        for cid, block in face_terms(ctx.plan, face.id, u):
            res[cid] += block
    for cid in range(ctx.mesh.num_cells):
        vals = space.cell_phi[cid] @ u.coeffs[cid]
        w = space.cell_w[cid][:, None]
        grad = space.cell_grad[cid]
        res[cid] -= grad[:, :, 0].T @ (w * (vals @ spec.A1.T))
        res[cid] -= grad[:, :, 1].T @ (w * (vals @ spec.A2.T))
    if ctx.stab is not None:
        res += ProbedPenalty(ctx.stab).residual(u)
    dudt = np.array([
        cho_solve(cho_factor(space.mass[cid]), -res[cid]) for cid in range(ctx.mesh.num_cells)
    ])
    return res, dudt


@pytest.mark.parametrize("equation", ["advection", "acoustics"])
@pytest.mark.parametrize("degree, min_alpha", [(0, 1e-8), (1, 1e-8), (2, 1e-2), (3, 1e-2)])
def test_assembled_operator_matches_oracle(equation, degree, min_alpha):
    from cutdg.dg import SemiDiscreteOperator
    from cutdg.experiments import build_context, ramp_config

    ctx = build_context(ramp_config(equation, degree, min_alpha, nx=8))
    assert len(ctx.small) > 0
    assert any(f.kind == "boundary" and not ctx.space.uncut[f.left_cell] for f in ctx.mesh.faces)
    op = SemiDiscreteOperator(ctx.plan, ctx.stab)
    rng = np.random.default_rng(degree)
    u = ctx.space.zeros(ctx.spec.m)
    u.coeffs[:] = rng.uniform(-1, 1, size=u.coeffs.shape)
    res, dudt = _oracle(ctx, u)
    assert np.abs(op.residual(u.coeffs) - res).max() <= 1e-12 * np.abs(res).max()
    # the batched solve against the dense ones, on the same right-hand side.
    # Sliver masses reach condition numbers of 1e11 here, so two correct
    # solvers differ by cond * eps in the coefficients; the L2 norm of the
    # difference is what that conditioning cannot inflate.
    diff = ctx.space.zeros(ctx.spec.m)
    diff.coeffs = ctx.plan.apply_mass_inverse(-res) - dudt
    exact = ctx.space.zeros(ctx.spec.m)
    exact.coeffs = dudt
    assert ctx.space.l2_norm(diff) <= 1e-12 * ctx.space.l2_norm(exact)

    total = sum(
        float(np.einsum("km,kl,lm->", u.coeffs[c], ctx.space.mass[c], u.coeffs[c]))
        for c in range(ctx.mesh.num_cells)
    )
    assert abs(ctx.space.l2_norm(u) - np.sqrt(total)) <= 1e-12 * np.sqrt(total)
