"""Acceptance suite: one test per shipping criterion, at fixed tolerances.

Each test prints a single summary line (visible with ``pytest -s`` or on
failure) and asserts the criterion's bound.
"""

import time

import numpy as np
import pytest

from conftest import face_matrix_on, penalty_cells, source_values
from cutdg.experiments import (
    build_context,
    check_axioms_on_cell,
    ramp_config,
    run_consistency,
    run_convergence,
    run_evolve,
    run_stability,
)
from cutdg.config import RunConfig
from cutdg.geometry import halfplane_from_line
from cutdg.solutions import random_polynomial
from cutdg.stepping import time_step
from cutdg.systems import mirror_state

MIN_ALPHAS = (1e-2, 1e-5, 1e-8)
DEGREES = (0, 1, 2, 3)


def _report(name, value, bound, extra=""):
    status = "PASS" if value <= bound else "FAIL"
    print(f"[{status}] {name}: worst {value:.3e} (bound {bound:.0e}) {extra}")
    return status == "PASS"


def test_criterion_1_advection_consistency():
    t0 = time.time()
    worst = 0.0
    for degree in DEGREES:
        for alpha in MIN_ALPHAS:
            rep = run_consistency(ramp_config("advection", degree, alpha))
            worst = max(worst, rep.max_residual)
    elapsed = time.time() - t0
    ok = _report("advection consistency", worst, 1e-10, f"runtime {elapsed:.1f}s")
    assert ok
    assert elapsed < 30.0


def test_criterion_2_acoustics_consistency():
    t0 = time.time()
    worst = 0.0
    for degree in DEGREES:
        for alpha in MIN_ALPHAS:
            rep = run_consistency(ramp_config("acoustics", degree, alpha))
            worst = max(worst, rep.max_residual)
    elapsed = time.time() - t0
    ok = _report("acoustics consistency", worst, 1e-10, f"runtime {elapsed:.1f}s")
    assert ok
    assert elapsed < 60.0


def test_criterion_3_propagation_form_axioms():
    t0 = time.time()
    rng = np.random.default_rng(42)
    worst = {}
    for degree in DEGREES:
        for alpha in MIN_ALPHAS:
            ctx = build_context(ramp_config("acoustics", degree, alpha))
            for cid in ctx.small:
                cell_worst = check_axioms_on_cell(ctx.space, ctx.spec, cid, rng, 50)
                for name, value in cell_worst.items():
                    worst[name] = max(worst.get(name, 0.0), value)
    value = max(worst.values())
    elapsed = time.time() - t0
    ok = _report(
        "propagation-form axioms", value, 1e-12,
        str({k: f"{v:.1e}" for k, v in worst.items()}) + f" runtime {elapsed:.1f}s",
    )
    assert ok
    assert elapsed < 10.0


def test_criterion_4_extension_gluing():
    # the penalty's extension sources, from its source tables, at every
    # stabilized cell's face and cell points
    rng = np.random.default_rng(42)
    worst_glue = 0.0
    worst_mirror = 0.0
    for degree in DEGREES:
        cfg = ramp_config("acoustics", degree, 1e-8)
        ctx = build_context(cfg)
        space = ctx.space
        for _ in range(5):
            fld = random_polynomial(rng, degree, 3, pressure_only=True)
            u = fld.to_dg(space)
            umax = max(abs(fld.coeffs).max(), 1e-300)
            for cid in ctx.small:
                fids = ctx.mesh.cell_faces(cid)
                pts = np.vstack([space.face_rule(fids)[0].reshape(-1, 2),
                                 space.cell_rules([cid])[0][0]])
                _, _, values, _ = source_values(space, cid, u.coeffs)
                worst_glue = max(worst_glue, np.abs(values - fld(pts)).max() / umax)
    # mirror involution, and the mirrored sources' trace on the wall
    cfg = ramp_config("acoustics", 2, 1e-5)
    ctx = build_context(cfg)
    for _ in range(100):
        state = rng.normal(size=3)
        angle = rng.uniform(0, 2 * np.pi)
        n = np.array([np.cos(angle), np.sin(angle)])
        dev = np.abs(mirror_state(mirror_state(state, n), n) - state).max()
        worst_mirror = max(worst_mirror, dev / max(np.abs(state).max(), 1e-300))
    u = ctx.space.zeros(3)
    u.coeffs[:] = rng.uniform(-1, 1, size=u.coeffs.shape)
    nq = ctx.space.face_npts
    mirrored = 0
    for cid in ctx.small:
        fids = ctx.mesh.cell_faces(cid)
        k = int(np.flatnonzero(ctx.mesh.face_right[fids] < 0)[0])
        sources, n_plain, values, _ = source_values(ctx.space, cid, u.coeffs)
        on_wall = values[:, k * nq:(k + 1) * nq]
        for x in range(n_plain, len(sources)):
            plain = on_wall[list(sources[:n_plain]).index(sources[x])]
            normal = ctx.mesh.face_normal[fids[k]]
            dev = np.abs(on_wall[x] - mirror_state(plain, normal)).max()
            worst_mirror = max(worst_mirror, dev)
            mirrored += 1
    assert mirrored > 0
    ok1 = _report("extension gluing", worst_glue, 1e-11)
    ok2 = _report("mirror involution/trace", worst_mirror, 1e-12)
    assert ok1 and ok2


def test_criterion_5_small_cell_stability():
    t0 = time.time()
    cfg = ramp_config("acoustics", 1, 1e-6, steps=1000, cfl=0.3, rk_order=3)
    rep = run_stability(cfg)
    growth_excess = rep.growth - 1.0 if rep.failed_at is None else np.inf
    ok = _report(
        "small-cell stability", growth_excess, 1e-3,
        f"1000 steps, dt={rep.dt:.3e}, runtime {time.time()-t0:.1f}s",
    )
    assert ok
    # the step size never sees the sliver size: bit-identical dt
    cfg8 = ramp_config("acoustics", 1, 1e-8, steps=1000, cfl=0.3, rk_order=3)
    dt6 = time_step(cfg.cfl, 1.0 / cfg.nx, 1.0, cfg.degree)
    dt8 = time_step(cfg8.cfl, 1.0 / cfg8.nx, 1.0, cfg8.degree)
    assert dt6 == dt8
    assert rep.dt == dt6


def test_criterion_6_convergence_order():
    t0 = time.time()
    hp = halfplane_from_line(0.75, 0.005)
    final = {}
    for degree in (0, 1, 2):
        cfg = RunConfig(
            equation="advection", degree=degree, nx=16,
            constraints=[(hp.a, hp.b, hp.c)], beta=(1.0, 0.75),
            alpha0=0.25, cfl=0.3, t_final=0.2, rk_order=3,
            initial="windowed-sine-advect", refinements=(16, 32, 64),
        ).validate()
        rep = run_convergence(cfg)
        final[degree] = [r.observed_order for r in rep.rows if r.observed_order is not None][-1]
    elapsed = time.time() - t0
    margin = min(final[r] - (r + 0.7) for r in final)
    status = "PASS" if margin >= 0 else "FAIL"
    print(f"[{status}] convergence orders: " +
          ", ".join(f"r={r}: {o:.3f} (need {r + 0.7})" for r, o in final.items()) +
          f" runtime {elapsed:.1f}s")
    assert margin >= 0.0
    assert elapsed < 300.0


def test_criterion_7_conservation():
    cfg = ramp_config("advection", 1, 1e-2, t_final=0.4,
                      initial="bump-advect:0.55,0.55,0.15")
    run = run_evolve(cfg).result
    resid = abs(run.mass_change + run.outflow_integral) / max(abs(run.mass_change), 1e-300)
    ok = _report("conservation identity", resid, 1e-10,
                 f"mass change {run.mass_change:.3e}")
    assert run.mass_change < -1e-3
    assert ok


def test_criterion_8_cancellation_bitwise():
    from cutdg.stabilization import WaveStabilization

    exact = True
    for alpha in MIN_ALPHAS:
        cfg = ramp_config("acoustics", 2, alpha)
        ctx = build_context(cfg)
        eta = np.ones(ctx.mesh.num_cells)
        stab = WaveStabilization(ctx.space, ctx.spec, ctx.small, eta)
        for cid, cell in penalty_cells(stab).items():
            expected = cell.parts["surface"] + cell.parts["volume"] + cell.parts["dissipative"]
            for fid in ctx.mesh.cells[cid].face_ids:
                for flags in ((True, False), (False, True)):
                    expected = expected - face_matrix_on(ctx.space, ctx.spec, fid, cell.cells, *flags)
            exact = exact and np.array_equal(cell.local, expected)
    status = "PASS" if exact else "FAIL"
    print(f"[{status}] cancellation terms reproduce base face kernels bit for bit")
    assert exact
