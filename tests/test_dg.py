import functools

import numpy as np
import pytest

from conftest import ramp_mesh, uncut_mesh
from probed_kernels import face_terms, local_matrix, volume_terms
from probed_penalty import ProbedPenalty
from cutdg.dg import (assemble, boundary_outflow_weights, face_matrices, outflow_weights,
                      volume_matrices)
from cutdg.quadrature import Space, face_quadrature, monomial_values
from cutdg.solutions import PolynomialField, random_polynomial
from cutdg.systems import SystemSpec


def test_constant_state_interior_residual_vanishes():
    # jumps of a constant are zero: only boundary faces contribute
    mesh = ramp_mesh(nx=8, ny=8)
    spec = SystemSpec.advection((1.0, 0.2))
    space = Space(mesh, 1)
    u = space.zeros(1)
    u.coeffs[:, 0, 0] = 2.0
    res = assemble(space, spec)(u.coeffs)
    boundary_cells = set(mesh.face_left[mesh.face_right < 0].tolist())
    for cell in mesh.cells:
        if cell.id not in boundary_cells:
            assert np.allclose(res[cell.id], 0.0, atol=1e-14)


def test_single_cell_r0_outflow():
    mesh = uncut_mesh(1, 1)
    spec = SystemSpec.advection((1.0, 0.0))
    space = Space(mesh, 0)
    u = space.zeros(1)
    u.coeffs[0, 0, 0] = 3.0
    res = assemble(space, spec)(u.coeffs)
    # outflow face has length 1: residual of the constant mode is u * 1
    assert abs(res[0, 0, 0] - 3.0) < 1e-14


@pytest.mark.parametrize("degree", [1, 2])
def test_steady_polynomial_residual_is_boundary_only(degree):
    # u = g(beta_perp . x) is steady; away from the boundary everything cancels
    rng = np.random.default_rng(degree)
    beta = np.array([1.0, 0.4])
    spec = SystemSpec.advection(beta)
    mesh = ramp_mesh(nx=8, ny=8)
    space = Space(mesh, degree)
    # g(s) = s^degree composed with the perpendicular coordinate
    bp = np.array([-beta[1], beta[0]])
    if degree == 1:
        fld = PolynomialField([[0.3, bp[0], bp[1]]], 1)
    else:
        # (bp . x)^2 = bp0^2 x^2 + 2 bp0 bp1 xy + bp1^2 y^2
        fld = PolynomialField([[0.0, 0.0, 0.0, bp[0] ** 2, 2 * bp[0] * bp[1], bp[1] ** 2]], 2)
    u = fld.to_dg(space)
    res = assemble(space, spec)(u.coeffs)

    expected = np.zeros_like(res)
    for fid in np.flatnonzero(mesh.face_right < 0).tolist():
        coef = max(-float(beta @ mesh.face_normal[fid]), 0.0)   # (beta.n)^+ - beta.n on the wall
        if coef == 0.0:
            continue
        pts, w = face_quadrature(mesh.face_p[fid], mesh.face_q[fid], space.face_npts + 2)
        vals = fld(pts)[:, 0]
        left = mesh.face_left[fid]
        phi = monomial_values(space.exps, space.centers[left], space.h, pts)
        expected[left, :, 0] += coef * (phi.T @ (w * vals))
    scale = np.abs(res).max()
    assert np.allclose(res, expected, atol=1e-11 * max(scale, 1.0))


def test_continuous_polynomial_jump_terms_vanish():
    rng = np.random.default_rng(3)
    mesh = ramp_mesh(nx=8, ny=8)
    spec = SystemSpec.acoustics(1.0)
    space = Space(mesh, 2)
    fld = random_polynomial(rng, 2, 3)
    u = fld.to_dg(space)
    fids = np.flatnonzero(mesh.face_right >= 0)
    A = face_matrices(space, spec, fids, central=False, dissipative=True)
    cells = np.column_stack([mesh.face_left[fids], mesh.face_right[fids]])
    blocks = A @ u.coeffs[cells].reshape(len(fids), -1, 1)
    assert np.abs(blocks).max() < 1e-12


def test_central_form_is_energy_neutral_acoustics():
    # the central part of the form is skew: a(u, u) = 0 for every discrete u,
    # including the wall terms (mirror pairing carries no energy); the
    # dissipative face terms' energy is taken off the full form's
    rng = np.random.default_rng(7)
    mesh = ramp_mesh(nx=8, ny=8)
    spec = SystemSpec.acoustics(1.3)
    space = Space(mesh, 2)
    fids = np.arange(len(mesh.face_left))
    D = face_matrices(space, spec, fids, central=False, dissipative=True)
    # a wall face's right cell (-1) reads cell 0, whose columns there are zero
    cells = np.maximum(np.column_stack([mesh.face_left, mesh.face_right]), 0)
    summed = assemble(space, spec)
    for _ in range(5):
        u = space.zeros(3)
        u.coeffs[:] = rng.uniform(-1, 1, size=u.coeffs.shape)
        res = summed(u.coeffs)
        x = u.coeffs[cells].reshape(len(fids), -1)
        energy = float(np.sum(res * u.coeffs)) - float(np.einsum("fi,fij,fj->", x, D, x))
        norm2 = space.l2_norm(u) ** 2
        assert abs(energy) < 1e-10 * max(norm2, 1.0)


def test_semi_discrete_conservation():
    rng = np.random.default_rng(11)
    mesh = ramp_mesh(nx=8, ny=8)
    spec = SystemSpec.advection((1.0, 0.3))
    space = Space(mesh, 1)
    u = space.zeros(1)
    u.coeffs[:] = rng.uniform(-1, 1, size=u.coeffs.shape)
    res = assemble(space, spec)(u.coeffs)
    total = float(np.sum(res[:, 0, 0]))   # pairing with the global constant
    outflow = float(np.vdot(boundary_outflow_weights(space, spec), u.coeffs))
    # inflow faces contribute nothing by construction; collect the rest
    assert abs(total - outflow) < 1e-12 * max(abs(outflow), 1.0)


@functools.lru_cache(maxsize=None)
def _conservation_contexts(equation):
    """The nx=8 ramp grid (r 0-3, alpha 1e-2 and 1e-5) and the accepted
    corpus cuts at nx=16, r=1, of one equation."""
    from conftest import generic_cuts
    from cutdg.errors import AdjacentSmallCellsError, BoundaryInflowError, CornerCellError
    from cutdg.experiments import build_context, line_config, ramp_config

    contexts = [build_context(ramp_config(equation, r, alpha, nx=8))
                for r in range(4) for alpha in (1e-2, 1e-5)]
    for s, o in generic_cuts()[:200]:
        try:
            contexts.append(build_context(line_config(equation, 1, s, o)))
        except (AdjacentSmallCellsError, CornerCellError, BoundaryInflowError):
            pass
    return contexts


def _conservation_defect(space, spec, stab):
    """The largest entry of g^T - e0^T (B + S), relative to the largest
    column sum of |e0^T| |B + S|.

    Mode 0 is the constant 1, so with w the cells' mode integrals
    w^T M^{-1} = e0^T, the rows of each cell's constant mode of the first
    component: w^T K + g^T = g^T - e0^T (B + S) is the rate of change of
    that component's integral plus its outflow through the weights g of
    ``outflow_weights``, for every state.  No mass is solved, so cells with
    a singular mass count too.
    """
    rows = assemble(space, spec, stab).matrix().tocsr()[
        np.arange(space.mesh.num_cells) * space.n_modes * spec.m]
    defect = outflow_weights(space, spec, stab).ravel() - np.asarray(rows.sum(axis=0)).ravel()
    return np.abs(defect).max() / abs(rows).sum(axis=0).max()


@pytest.mark.parametrize("equation, dod", [
    ("advection", False), ("advection", True), ("acoustics", False),
    pytest.param("acoustics", True, marks=pytest.mark.xfail(strict=True, reason=(
        "the acoustic penalty changes the pressure integral: 7.6e-3 to 1.3e-2 of the "
        "largest column sum, up to 6.26e-3 absolute on the ramp"))),
])
def test_operator_conserves_the_first_component(equation, dod):
    # the base form conserves to round-off on every mesh, and so does the
    # advection penalty; measured at most 9.3e-17
    contexts = _conservation_contexts(equation)
    assert len(contexts) == 8 + {"advection": 59, "acoustics": 45}[equation]
    worst = max(_conservation_defect(ctx.space, ctx.spec, ctx.stab if dod else None)
                for ctx in contexts)
    assert worst <= 1e-14


def test_apply_mass_inverse_r0():
    mesh = ramp_mesh(nx=4, ny=4)
    spec = SystemSpec.advection((1.0, 0.2))
    space = Space(mesh, 0)
    res = np.zeros((mesh.num_cells, 1, 1))
    res[:, 0, 0] = np.arange(mesh.num_cells, dtype=float)
    out = space.mass_solve(res)
    for cell in mesh.cells:
        assert abs(out[cell.id, 0, 0] - cell.id / cell.area) < 1e-10 * (1 + cell.id / cell.area)


def test_apply_mass_inverse_matches_dense_solve():
    rng = np.random.default_rng(13)
    mesh = ramp_mesh(nx=4, ny=4)
    spec = SystemSpec.acoustics(1.0)
    space = Space(mesh, 2)
    res = rng.uniform(-1, 1, size=(mesh.num_cells, space.n_modes, 3))
    out = space.mass_solve(res)
    for cid in range(mesh.num_cells):
        expected = np.linalg.solve(space.mass[cid], res[cid])
        assert np.allclose(out[cid], expected, atol=1e-9)


def test_zero_state_zero_residual():
    mesh = ramp_mesh(nx=4, ny=4)
    spec = SystemSpec.acoustics(1.0)
    space = Space(mesh, 1)
    res = assemble(space, spec)(space.zeros(3).coeffs)
    assert np.all(res == 0.0)


def test_standing_pressure_state_is_steady():
    # constant pressure, zero velocity: reflecting walls keep it in place
    mesh = ramp_mesh(nx=8, ny=8)
    spec = SystemSpec.acoustics(1.0)
    space = Space(mesh, 1)
    u = space.zeros(3)
    u.coeffs[:, 0, 0] = 4.2
    res = assemble(space, spec)(u.coeffs)
    assert np.abs(res).max() < 1e-13


def test_assembly_is_reproducible():
    rng = np.random.default_rng(17)
    mesh = ramp_mesh(nx=8, ny=8)
    spec = SystemSpec.acoustics(1.0)
    space = Space(mesh, 1)
    u = space.zeros(3)
    u.coeffs[:] = rng.uniform(-1, 1, size=u.coeffs.shape)
    # two operators built from one space apply bit for bit alike
    r1 = assemble(space, spec).folded(space)(u.coeffs)
    r2 = assemble(space, spec).folded(space)(u.coeffs)
    assert np.array_equal(r1, r2)


@pytest.mark.parametrize("equation", ["advection", "acoustics"])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_matrix_matches_apply(equation, degree):
    # B + S and K = -M^{-1} (B + S), each as one matrix and as the apply
    # (stencil matmul, shift, block-sparse product)
    from cutdg.experiments import build_context, ramp_config

    ctx = build_context(ramp_config(equation, degree, 1e-2, nx=8))
    summed = assemble(ctx.space, ctx.spec, ctx.stab)
    x = np.random.default_rng(degree).uniform(-1, 1, (ctx.mesh.num_cells, ctx.space.n_modes,
                                                       ctx.spec.m))
    for op in (summed, summed.folded(ctx.space)):
        applied = op(x)
        product = (op.matrix() @ x.ravel()).reshape(x.shape)
        assert np.abs(product - applied).max() <= 1e-14 * np.abs(applied).max()


# ------------------------------------------------- assembled operator oracle


def _oracle(ctx, u):
    """(B + S) u by summing face_terms over every face, per-cell volume terms
    and the probed penalty residual; du/dt by dense per-cell mass solves."""
    space, spec = ctx.space, ctx.spec
    res = np.zeros_like(u.coeffs)
    for fid in range(len(ctx.mesh.face_left)):
        for cid, block in face_terms(space, spec, fid, u):
            res[cid] += block
    for cid in range(ctx.mesh.num_cells):
        _, w, phi, grad = (table[0] for table in space.cell_rules([cid]))
        vals = phi @ u.coeffs[cid]
        w = w[:, None]
        res[cid] -= grad[:, :, 0].T @ (w * (vals @ spec.A1.T))
        res[cid] -= grad[:, :, 1].T @ (w * (vals @ spec.A2.T))
    if ctx.stab is not None:
        res += ProbedPenalty(ctx.stab).residual(u)
    return res, _dense_mass_solve(space, -res)


def _dense_mass_solve(space, rhs):
    """Per-cell dense Cholesky solves of the mass matrices."""
    from scipy.linalg import cho_factor, cho_solve

    return np.array([cho_solve(cho_factor(space.mass[c]), rhs[c]) for c in range(len(rhs))])


@pytest.mark.parametrize("equation", ["advection", "acoustics"])
@pytest.mark.parametrize(
    "degree, min_alpha", [(0, 1e-8), (1, 1e-8), (2, 1e-2), (2, 1e-5), (3, 1e-2)]
)
def test_assembled_operator_matches_oracle(equation, degree, min_alpha):
    from cutdg.experiments import build_context, ramp_config

    ctx = build_context(ramp_config(equation, degree, min_alpha, nx=8))
    assert len(ctx.small) > 0
    mesh = ctx.mesh
    assert np.any((mesh.face_right < 0) & ~ctx.space.uncut[mesh.face_left])
    summed = assemble(ctx.space, ctx.spec, ctx.stab)
    op = summed.folded(ctx.space)
    rng = np.random.default_rng(degree)
    u = ctx.space.zeros(ctx.spec.m)
    u.coeffs[:] = rng.uniform(-1, 1, size=u.coeffs.shape)
    res, dudt = _oracle(ctx, u)
    # the block sums the operator folds, base and penalty blocks together
    assembled = summed(u.coeffs)
    assert np.abs(assembled - res).max() <= 1e-12 * np.abs(res).max()
    # the batched solve and the folded operator against the dense solves, each
    # on its own right-hand side.  Sliver masses reach condition numbers of
    # 2e13 here, so two correct solvers differ by cond * eps in the
    # coefficients; the L2 norm of the difference is what that conditioning
    # cannot inflate.
    exact = ctx.space.zeros(ctx.spec.m)
    exact.coeffs = dudt
    diff = ctx.space.zeros(ctx.spec.m)
    diff.coeffs = ctx.space.mass_solve(-res) - dudt
    assert ctx.space.l2_norm(diff) <= 1e-12 * ctx.space.l2_norm(exact)
    exact.coeffs = _dense_mass_solve(ctx.space, -assembled)
    diff.coeffs = op(u.coeffs) - exact.coeffs
    assert ctx.space.l2_norm(diff) <= 1e-12 * ctx.space.l2_norm(exact)

    total = sum(
        float(np.einsum("km,kl,lm->", u.coeffs[c], ctx.space.mass[c], u.coeffs[c]))
        for c in range(ctx.mesh.num_cells)
    )
    assert abs(ctx.space.l2_norm(u) - np.sqrt(total)) <= 1e-12 * np.sqrt(total)


@pytest.mark.parametrize("equation, degree, min_alpha", [("acoustics", 1, 1e-6), ("advection", 2, 1e-2)])
def test_stage_does_no_mass_solve(equation, degree, min_alpha, monkeypatch):
    # the mass inverse is folded into the operator when make_rhs builds it
    import sys

    from cutdg.dg import outflow_weights
    from cutdg.experiments import build_context, make_rhs, ramp_config
    from cutdg.stepping import evolve, time_step

    ctx = build_context(ramp_config(equation, degree, min_alpha))
    track = equation == "advection"
    rhs = make_rhs(ctx)
    outflow = outflow_weights(ctx.space, ctx.spec, ctx.stab) if track else None
    u0 = ctx.space.zeros(ctx.spec.m)
    u0.coeffs[:] = np.random.default_rng(3).uniform(-1, 1, size=u0.coeffs.shape)

    def forbidden(*args, **kwargs):
        raise AssertionError("mass solve inside a stage")

    monkeypatch.setattr(Space, "mass_solve", forbidden)
    for name, module in list(sys.modules.items()):
        if name.startswith("cutdg") and hasattr(module, "cho_solve_stacked"):
            monkeypatch.setattr(module, "cho_solve_stacked", forbidden)
    dt = time_step(0.3, ctx.mesh.bg.h, ctx.spec.lambda_max, degree)
    result = evolve(ctx.space, u0, rhs, dt, 3, 3, outflow)
    assert result.steps == 3
    assert np.all(np.isfinite(result.final.coeffs))
    assert (result.outflow_integral != 0.0) == track


# ------------------------------------------- closed-form local matrices


@pytest.mark.parametrize("equation", ["advection", "acoustics"])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("min_alpha", [1e-2, 1e-8])
def test_closed_form_matrices_match_probed_kernels(equation, degree, min_alpha):
    # every face (internal and wall, axis-aligned and slanted) under each flag
    # choice, and every cell's volume term, against the probed kernels
    from cutdg.experiments import build_context, ramp_config

    ctx = build_context(ramp_config(equation, degree, min_alpha, nx=8))
    space, spec, mesh = ctx.space, ctx.spec, ctx.mesh
    shape = (space.n_modes, spec.m)
    km = space.n_modes * spec.m
    slanted = np.abs(mesh.face_normal).min(axis=1) > 1e-14
    assert slanted.any() and (slanted & (mesh.face_right < 0)).any()
    fids = np.arange(len(mesh.face_left))
    for flags in ((True, False), (False, True), (True, True)):
        closed = face_matrices(space, spec, fids, *flags)
        for fid in fids.tolist():
            cells = [C for C in (mesh.face_left[fid], mesh.face_right[fid]) if C >= 0]
            oracle = local_matrix(lambda u: face_terms(space, spec, fid, u, *flags), cells, shape)
            n = len(cells) * km
            assert np.all(closed[fid, n:] == 0.0) and np.all(closed[fid, :, n:] == 0.0)
            err = np.abs(closed[fid, :n, :n] - oracle).max()
            assert err <= 1e-13 * np.abs(oracle).max(), (fid, flags)
    cids = np.arange(mesh.num_cells)
    closed = volume_matrices(space, spec, cids)
    for cid in cids.tolist():
        oracle = local_matrix(lambda u: volume_terms(space, spec, cid, u), [cid], shape)
        assert np.abs(closed[cid] - oracle).max() <= 1e-13 * np.abs(oracle).max(), cid


def _percell_volume_matrices(space, spec, cids):
    """The volume terms' local matrices one cell at a time: the loop
    :func:`volume_matrices` replaced, kept as its bit-for-bit reference."""
    gram = np.empty((len(cids), 2, space.n_modes, space.n_modes))
    for i, c in enumerate(cids):
        _, w, phi, grad = (table[0] for table in space.cell_rules([c]))
        gram[i] = np.moveaxis(grad, -1, 0).swapaxes(-1, -2) @ (w[:, None] * phi)
    blocks = -(gram[:, 0, :, None, :, None] * spec.A1[:, None, :]
               + gram[:, 1, :, None, :, None] * spec.A2[:, None, :])
    n = space.n_modes * spec.m
    return blocks.reshape(len(cids), n, n)


@pytest.mark.parametrize("equation", ["advection", "acoustics"])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("min_alpha", [1e-2, 1e-8])
def test_volume_matrices_match_percell_loop_bitwise(equation, degree, min_alpha):
    # grouped by rule size (cut cells of three to five vertices, uncut
    # cells), in any cell order
    from cutdg.experiments import build_context, ramp_config

    ctx = build_context(ramp_config(equation, degree, min_alpha, nx=8))
    space, spec = ctx.space, ctx.spec
    assert len(np.unique(np.diff(ctx.mesh.cell_offsets)[space.cut_ids])) > 1
    every = np.arange(ctx.mesh.num_cells)
    for cids in (every, space.cut_ids, space.cut_ids[::-1], np.flatnonzero(space.uncut)[:1],
                 np.random.default_rng(degree).permutation(every)):
        got = volume_matrices(space, spec, cids)
        assert np.array_equal(got, _percell_volume_matrices(space, spec, cids))


def _ramp_with_beta(equation, beta):
    """The nx=16, r=1 ramp (α = 1e-2); under a flow ``beta`` with beta_x < 0
    the ramp is mirrored in x, so that its cut faces stay outflow faces,
    which the advection DoD penalty requires of its small cells."""
    from cutdg.experiments import build_context, ramp_config

    overrides = {} if beta is None else {"beta": beta}
    cfg = ramp_config(equation, 1, 1e-2, nx=16, **overrides)
    if beta is not None and beta[0] < 0:
        (a, b, c), = cfg.constraints   # a x + b y >= c, then x -> 1 - x
        cfg = ramp_config(equation, 1, 1e-2, nx=16, constraints=[(-a, b, c - a)], **overrides)
    return build_context(cfg)


@pytest.mark.parametrize("equation, beta, directions", [
    ("advection", (1.0, 0.75), (0, 1, 3)),    # own, west, south
    ("advection", (1.0, 0.0), (0, 1)),        # own, west
    ("advection", (-1.0, 0.5), (0, 2, 3)),    # own, east, south
    ("acoustics", None, (0, 1, 2, 3, 4)),     # Rusanov flux: all five
], ids=["advection-1,0.75", "advection-1,0", "advection--1,0.5", "acoustics"])
def test_stencil_keeps_only_coupled_directions(equation, beta, directions):
    # the upwind flux couples a cell to its inflow neighbours only; the
    # stencil keeps the own block and the nonzero neighbour blocks, in order
    ctx = _ramp_with_beta(equation, beta)
    mesh = ctx.mesh
    num_cells, d = mesh.num_cells, len(directions)
    km = ctx.space.n_modes * ctx.spec.m
    summed = assemble(ctx.space, ctx.spec, ctx.stab)
    cells = summed.stencil_cells
    assert summed.stencil.shape == (d, km, km) and cells.shape[1] == d and len(cells)
    assert np.all(summed.stencil.any(axis=(1, 2)))
    offsets = np.array([(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)])[list(directions)]
    assert np.array_equal(mesh.cell_ij[cells] - mesh.cell_ij[cells[:, :1]],
                          np.broadcast_to(offsets, cells.shape + (2,)))
    # the shift and the products' buffer are built for an operator that is applied
    op = summed.folded(ctx.space)
    assert op.shift is None
    op(ctx.space.zeros(ctx.spec.m).coeffs)
    assert op.shift.shape == (num_cells, d * num_cells) and op.shift.nnz == cells.size
    assert op._products.shape == (num_cells, d * km)
    assert summed.shift is None


@pytest.mark.parametrize("case", ["stability-sliver", "ramp-acoustics-r1-1e-6-nx128"])
def test_setup_and_steps_build_no_cell_or_face_records(case, monkeypatch):
    # the mesh is its arrays: setup and stepping read them, never a record
    from pathlib import Path

    from cutdg.config import load_config
    from cutdg.experiments import build_context, make_rhs, ramp_config
    from cutdg.geometry import CutCell
    from cutdg.stepping import evolve, time_step

    def forbidden(*args, **kwargs):
        raise AssertionError("cell record built")

    monkeypatch.setattr(CutCell, "__init__", forbidden)
    if case == "stability-sliver":
        configs = Path(__file__).resolve().parent.parent / "configs"
        cfg = load_config(str(configs / "stability-sliver.cfg"))
    else:
        cfg = ramp_config("acoustics", 1, 1e-6, nx=128)
    ctx = build_context(cfg)
    assert len(ctx.small) > 0
    rhs = make_rhs(ctx)
    u0 = ctx.space.zeros(ctx.spec.m)
    u0.coeffs[:] = np.random.default_rng(5).uniform(-1, 1, size=u0.coeffs.shape)
    dt = time_step(0.3, ctx.mesh.bg.h, ctx.spec.lambda_max, cfg.degree)
    result = evolve(ctx.space, u0, rhs, dt, 3, 3)
    assert result.steps == 3
    assert np.all(np.isfinite(result.final.coeffs))
    with pytest.raises(AssertionError, match="record built"):
        ctx.mesh.cells[0]


# ------------------------------------------- whole operator against CSR


def _check_against_csr_oracle(space, spec, stab):
    """B + S and K as matrices, against the ungrouped path: every face's
    and every cell's nonzero entries into CSR, base plus penalty, back to
    BSR, fold."""
    from csr_coupling import csr_operator, folded_operator
    from cutdg.errors import CutDGError, SingularMassError

    num_cells = space.mesh.num_cells
    try:
        oracle = folded_operator(space, spec, stab)
    except CutDGError as exc:
        assert isinstance(exc, SingularMassError) and "numerically singular" in str(exc)
        with pytest.raises(SingularMassError) as raised:
            assemble(space, spec, stab).folded(space)
        assert str(raised.value) == str(exc)
        return
    summed = assemble(space, spec, stab)
    folded = summed.folded(space).matrix()
    summed = summed.matrix()
    assert np.array_equal(folded.indptr, oracle.indptr)
    assert np.array_equal(folded.indices, oracle.indices)

    # the block sums before the fold, against the size of their terms
    expected = csr_operator(space, spec, stab)
    scale = csr_operator(space, spec, stab, np.abs)
    assert np.array_equal(scale.indices, summed.indices)
    assert np.array_equal(expected.indices, summed.indices)
    terms = scale.data.max(axis=(1, 2))
    assert np.all(np.abs(summed.data - expected.data).max(axis=(1, 2)) <= 1e-14 * terms)

    # uncut rows share the well-conditioned reference mass: the folded
    # blocks match per block.  On a cut row a sliver's mass (cond up to 4e9
    # here) turns round-off in the sums into cond * eps in the folded
    # block, so each block is checked as the solve of its own sum: the
    # residual M X + B is within round-off of |M| |X|.
    k, m = space.n_modes, spec.m
    rows = np.repeat(np.arange(num_cells), np.diff(folded.indptr))
    uncut = space.uncut[rows]
    err = np.abs(folded.data - oracle.data).max(axis=(1, 2))
    assert np.all(err[uncut] <= 1e-14 * np.abs(oracle.data[uncut]).max(axis=(1, 2)))
    M = space.mass[rows]
    X = folded.data.reshape(len(rows), k, -1)
    resid = np.abs(M @ X + summed.data.reshape(X.shape)).max(axis=(1, 2))
    assert np.all(resid <= 1e-13 * (np.abs(M) @ np.abs(X)).max(axis=(1, 2)))


@pytest.mark.parametrize("equation", ["advection", "acoustics"])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("min_alpha", [1e-2, 1e-8])
def test_block_assembly_matches_csr_oracle(equation, degree, min_alpha):
    from cutdg.experiments import build_context, ramp_config

    ctx = build_context(ramp_config(equation, degree, min_alpha, nx=8))
    assert len(ctx.small) > 0
    _check_against_csr_oracle(ctx.space, ctx.spec, ctx.stab)


@pytest.mark.parametrize("case", ["ramp-nx16-advection", "ramp-nx16-acoustics",
                                  "ramp-nx16-advection-beta=-1,0.5", "ramp-nx16-advection-beta=1,0",
                                  "mixed-r1", "mixed-r2"])
def test_every_row_kind_matches_csr_oracle(case):
    # each kind of row B + S holds: stencil rows (with the five
    # directions, or the upwind flux's inflow ones), uncut wall rows, uncut
    # rows next to a cut cell, cut rows, and (mixed set) a stencil row that
    # also carries penalty blocks
    from conftest import mixed_stabilized_set
    from cutdg.experiments import build_context, ramp_config
    from cutdg.stabilization import WaveStabilization

    if case.startswith("ramp"):
        name, _, beta = case.partition("-beta=")
        ctx = _ramp_with_beta(name.split("-")[-1],
                              tuple(map(float, beta.split(","))) if beta else None)
        stab = ctx.stab
    else:
        ctx = build_context(ramp_config("acoustics", int(case[-1]), 1e-2, nx=8))
        cells = mixed_stabilized_set(ctx.mesh, ctx.small)
        stab = WaveStabilization(ctx.space, ctx.spec, cells,
                                 np.linspace(0.2, 1.0, ctx.mesh.num_cells))
    mesh, uncut = ctx.mesh, ctx.space.uncut
    stencil = assemble(ctx.space, ctx.spec, stab).stencil_cells[:, 0]
    wall = np.zeros(mesh.num_cells, dtype=bool)
    wall[mesh.face_left[mesh.face_right < 0]] = True
    internal = mesh.face_right >= 0
    pairs = np.column_stack([mesh.face_left, mesh.face_right])[internal]
    cut_pair = ~uncut[pairs]
    near_cut = np.zeros(mesh.num_cells, dtype=bool)
    near_cut[pairs[cut_pair[:, ::-1]]] = True   # the cell across a face from a cut cell
    assert len(stencil) and len(ctx.space.cut_ids)
    assert np.any(uncut & wall) and np.any(uncut & near_cut & ~wall)
    if case.startswith("mixed"):
        penalty_rows = np.concatenate([r for r, _, _ in stab.blocks()])
        assert np.isin(stencil, penalty_rows).any()
    _check_against_csr_oracle(ctx.space, ctx.spec, stab)
