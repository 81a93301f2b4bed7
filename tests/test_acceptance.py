"""Acceptance suite: one test per shipping criterion, at fixed tolerances.

Each test prints a single summary line (visible with ``pytest -s`` or on
failure) and asserts the criterion's bound.
"""

import time

import numpy as np
import pytest

from cutdg.dg import face_terms
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
from cutdg.operators import mirror_polynomial, mirror_state, extend, unified_extend
from cutdg.solutions import random_polynomial
from cutdg.stepping import TimeControls

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
    ok = _report("propagation-form axioms", value, 1e-12, str({k: f"{v:.1e}" for k, v in worst.items()}))
    assert ok


def test_criterion_4_extension_gluing():
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
                cell = ctx.mesh.cells[cid]
                pts = np.vstack(
                    [space.cell_pts[cid]] + [space.face_pts[f] for f in cell.face_ids]
                )
                exact = fld(pts)
                K = cell.num_faces
                for i in range(K):
                    for j in range(i + 1, K):
                        for source in ("E", "Ei", "Ej"):
                            f = unified_extend(u, space, cid, i, j, source)
                            dev = np.abs(f.values(pts) - exact).max()
                            worst_glue = max(worst_glue, dev / umax)
    # mirror involution and trace coincidence
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
    for face in ctx.mesh.faces:
        if face.kind != "boundary":
            continue
        fld = extend(u, ctx.space, face.left_cell)
        mirrored = mirror_polynomial(fld, face)
        pts = ctx.space.face_pts[face.id]
        dev = np.abs(mirrored.values(pts) - mirror_state(fld.values(pts), face.normal)).max()
        worst_mirror = max(worst_mirror, dev)
    ok1 = _report("extension gluing", worst_glue, 1e-11)
    ok2 = _report("mirror involution/trace", worst_mirror, 1e-12)
    assert ok1 and ok2


def test_criterion_5_small_cell_stability():
    t0 = time.time()
    cfg = ramp_config("acoustics", 1, 1e-6, steps=1000, cfl=0.3, rk_order=3)
    rep = run_stability(cfg)
    growth_excess = rep.growth - 1.0 if not rep.unstable else np.inf
    ok = _report(
        "small-cell stability", growth_excess, 1e-3,
        f"1000 steps, dt={rep.dt:.3e}, runtime {time.time()-t0:.1f}s",
    )
    assert ok
    # the step size never sees the sliver size: bit-identical dt
    cfg8 = ramp_config("acoustics", 1, 1e-8, steps=1000, cfl=0.3, rk_order=3)
    dt6 = TimeControls(1.0, cfg.cfl, cfg.rk_order).dt(1.0 / cfg.nx, 1.0, cfg.degree)
    dt8 = TimeControls(1.0, cfg8.cfl, cfg8.rk_order).dt(1.0 / cfg8.nx, 1.0, cfg8.degree)
    assert dt6 == dt8
    assert rep.dt == dt6


def test_criterion_6_convergence_order():
    t0 = time.time()
    hp = halfplane_from_line(0.75, 0.005)
    final = {}
    for degree in (0, 1, 2):
        cfg = RunConfig(
            equation="advection", degree=degree, nx=16, ny=16,
            constraints=[(hp.a, hp.b, hp.c)], beta=(1.0, 0.75),
            alpha0=0.25, cfl=0.3, t_final=0.2, rk_order=3,
            initial="windowed-sine-advect", refinements=(16, 32, 64),
        ).validate()
        rep = run_convergence(cfg)
        final[degree] = rep.final_order()
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
    rep = run_evolve(cfg)
    resid = abs(rep.mass_change + rep.outflow_integral) / max(abs(rep.mass_change), 1e-300)
    ok = _report("conservation identity", resid, 1e-10,
                 f"mass change {rep.mass_change:.3e}")
    assert rep.mass_change < -1e-3
    assert ok


def test_criterion_8_cancellation_bitwise():
    from cutdg.dg import local_matrix
    from cutdg.stabilization import WaveStabilization

    exact = True
    for alpha in MIN_ALPHAS:
        cfg = ramp_config("acoustics", 2, alpha)
        ctx = build_context(cfg)
        eta = np.ones(ctx.mesh.num_cells)
        stab = WaveStabilization(ctx.plan, ctx.small, eta)
        for cid in stab.cell_ids:
            cell = stab._ctx[cid]
            expected = cell.surface + cell.volume + cell.dissipative
            for fid in ctx.mesh.cells[cid].face_ids:
                for flags in ((True, False), (False, True)):
                    expected = expected - local_matrix(
                        lambda u: face_terms(ctx.plan, fid, u, *flags), cell.cells, ctx.plan.shape
                    )
            exact = exact and np.array_equal(stab.local[cid], expected)
    status = "PASS" if exact else "FAIL"
    print(f"[{status}] cancellation terms reproduce base face kernels bit for bit")
    assert exact
