import numpy as np
import pytest

from conftest import uncut_mesh
from cutdg.dg import assemble
from cutdg.errors import ConfigurationError, IntegrationFailureError
from cutdg.geometry import build_mesh
from cutdg.quadrature import Space
from cutdg.stepping import evolve, rk_step, steps_to, time_step
from cutdg.systems import SystemSpec


def test_dt_formula_and_invariance():
    dt = time_step(cfl=0.3, h=0.0625, lambda_max=2.0, degree=1)
    assert abs(dt - 0.3 * 0.0625 / (2.0 * 3.0)) < 1e-18
    # the step size never sees the cut-cell volume fractions: identical
    # inputs give bit-identical dt regardless of mesh slivers
    assert time_step(0.3, 0.0625, 2.0, 1) == dt


def test_controls_validation():
    with pytest.raises(ConfigurationError, match=r"cfl must lie in \(0, 1\]"):
        time_step(0.0, 0.0625, 1.0, 1)
    with pytest.raises(ConfigurationError, match="t_final must be nonnegative"):
        steps_to(-1.0, 0.1)
    assert steps_to(0.0, 0.1) == 0


@pytest.mark.parametrize("order", [1, 4])
def test_unsupported_rk_order_rejected(order):
    # an order without stage weights is a configuration error, not RK2
    mesh = uncut_mesh(2, 2)
    space = Space(mesh, 0)

    def rhs(c):
        return -c

    with pytest.raises(ConfigurationError, match="rk_order must be 2 or 3"):
        rk_step(np.ones((4, 1, 1)), 0.1, rhs, order)
    with pytest.raises(ConfigurationError, match="rk_order must be 2 or 3"):
        evolve(space, space.zeros(1), rhs, 0.1, 0, order)


def test_rk3_matches_taylor_on_linear_ode():
    lam = -0.7
    dt = 0.05
    u0 = np.array([[[1.0]]])

    def rhs(c):
        return lam * c

    out, _ = rk_step(u0, dt, rhs, 3)
    z = lam * dt
    taylor = 1.0 + z + z * z / 2.0 + z**3 / 6.0
    assert abs(out[0, 0, 0] - taylor) < 1e-15


def test_rk2_matches_taylor_on_linear_ode():
    lam = 0.4
    dt = 0.05
    u0 = np.array([[[2.0]]])

    def rhs(c):
        return lam * c

    out, _ = rk_step(u0, dt, rhs, 2)
    z = lam * dt
    assert abs(out[0, 0, 0] - 2.0 * (1.0 + z + z * z / 2.0)) < 1e-15


def test_zero_state_stays_zero():
    mesh = uncut_mesh(2, 2)
    space = Space(mesh, 1)
    spec = SystemSpec.advection((1.0, 0.0))
    op = assemble(space, spec).folded(space)

    dt = time_step(0.3, mesh.bg.h, spec.lambda_max, 1)
    result = evolve(space, space.zeros(1), op, dt, steps_to(0.1, dt), 3)
    assert np.all(result.final.coeffs == 0.0)
    assert np.all(result.l2_trace == 0.0)


def test_standing_acoustic_state_constant_in_time():
    # uncut box: the plain scheme keeps the state; the cut ramp additionally
    # needs the penalty (without it the sliver noise amplifies at this dt)
    mesh = uncut_mesh(8, 8)
    space = Space(mesh, 1)
    spec = SystemSpec.acoustics(1.0)
    op = assemble(space, spec).folded(space)
    u0 = space.zeros(3)
    u0.coeffs[:, 0, 0] = 1.0

    t_final, dt = 1.0, time_step(0.3, mesh.bg.h, spec.lambda_max, 1)
    result = evolve(space, u0, op, dt, steps_to(t_final, dt), 3)
    drift = np.abs(result.final.coeffs - u0.coeffs).max()
    assert drift < 1e-12 * (1.0 + t_final)


def test_standing_state_on_cut_mesh_with_penalty():
    from cutdg.experiments import build_context, make_rhs, ramp_config

    cfg = ramp_config("acoustics", 1, 1e-3, nx=8, t_final=0.5)
    ctx = build_context(cfg)
    u0 = ctx.space.zeros(3)
    u0.coeffs[:, 0, 0] = 1.0
    t_final, dt = 0.5, time_step(0.3, ctx.mesh.bg.h, ctx.spec.lambda_max, 1)
    result = evolve(ctx.space, u0, make_rhs(ctx), dt, steps_to(t_final, dt), 3)
    diff = result.final.copy()
    diff.coeffs = result.final.coeffs - u0.coeffs
    # measured in L2: sliver coefficients feel the mass conditioning but
    # carry next to no volume
    assert ctx.space.l2_norm(diff) < 1e-12 * (1.0 + t_final) * ctx.space.l2_norm(u0)


def test_nan_reported_with_step_index():
    mesh = uncut_mesh(2, 2)
    space = Space(mesh, 0)

    def rhs(c):
        return np.full_like(c, np.nan)

    u0 = space.zeros(1)
    u0.coeffs[:] = 1.0
    with pytest.raises(IntegrationFailureError) as err:
        evolve(space, u0, rhs, time_step(0.3, mesh.bg.h, 1.0, 0), 5, 3)
    assert err.value.step == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coefficient_reported_at_its_step(bad):
    # evolve checks only the L2 norm: one non-finite coefficient, in any
    # mode and component of the smallest cut cell or of an uncut cell, makes
    # it non-finite at the step where it appears
    from cutdg.experiments import ramp_config

    cfg = ramp_config("acoustics", 1, 1e-8, nx=8)
    space = Space(build_mesh(cfg.background(), cfg.constraints), 1)
    smallest = int(np.argmin(space.mesh.cell_volume_fraction))
    assert not space.uncut[smallest]
    u0 = space.zeros(3)
    u0.coeffs[:] = np.random.default_rng(3).uniform(-1.0, 1.0, u0.coeffs.shape)
    for cell in (smallest, int(np.argmax(space.uncut))):
        for mode, comp in np.ndindex(space.n_modes, 3):
            calls = []

            def rhs(c):
                calls.append(None)
                r = np.zeros_like(c)
                if len(calls) == 7:   # the first stage of step 2
                    r[cell, mode, comp] = bad
                return r

            with pytest.raises(IntegrationFailureError) as err:
                evolve(space, u0, rhs, time_step(0.3, space.mesh.bg.h, 1.0, 1), 5, 3)
            assert err.value.step == 2


def test_norm_overflow_reported_as_failure():
    # coefficients that stay finite while their L2 norm overflows are a
    # diverged run, not a growth of nan
    mesh = uncut_mesh(2, 2)
    space = Space(mesh, 0)
    dt = time_step(0.3, mesh.bg.h, 1.0, 0)

    def rhs(c):
        return np.full_like(c, 1e160 / dt)

    u0 = space.zeros(1)
    u0.coeffs[:] = 1.0
    with pytest.raises(IntegrationFailureError) as err:
        evolve(space, u0, rhs, dt, 5, 3)
    assert err.value.step == 0
    with np.errstate(over="ignore"):
        u, _ = rk_step(u0.coeffs, dt, rhs, 3)
    assert np.all(np.isfinite(u)) and np.abs(u).max() > 1e159


@pytest.mark.parametrize("order", [2, 3])
def test_rk_step_bit_identical_to_explicit_formulas(order):
    # the in-place stages against the formulas written out, on a random
    # linear right-hand side
    rng = np.random.default_rng(order)
    K = rng.standard_normal((12, 12))
    u = rng.standard_normal((4, 3, 1))
    dt = 0.037

    def f(c):
        return (K @ c.ravel()).reshape(c.shape)

    calls = []

    def rhs(c):
        calls.append(c.copy())
        return f(c)

    g = rng.standard_normal(u.shape)
    new, rates = rk_step(u, dt, rhs, order, g)
    u1 = u + dt * f(u)
    if order == 2:
        expected = 0.5 * u + 0.5 * (u1 + dt * f(u1))
        stages = [u, u1]
    else:
        u2 = 0.75 * u + 0.25 * (u1 + dt * f(u1))
        expected = u / 3.0 + 2.0 / 3.0 * (u2 + dt * f(u2))
        stages = [u, u1, u2]
    assert np.array_equal(new, expected)
    assert all(np.array_equal(c, s) for c, s in zip(calls, stages)) and len(calls) == order
    # the outflow rate of each stage input
    assert rates == [float(np.vdot(g, c)) for c in stages]
    assert rk_step(u, dt, rhs, order)[1] == []
