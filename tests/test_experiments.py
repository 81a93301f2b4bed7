from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import generic_cuts, ramp_mesh
from percell_checks import axioms_per_cell, consistency_per_field
from cutdg.config import RunConfig, load_config
from cutdg.errors import (AdjacentSmallCellsError, BoundaryInflowError, ConfigurationError,
                          CornerCellError, InflowCountError, UnsupportedConfigurationError)
from cutdg.experiments import (
    CONSISTENCY_TOL,
    _draw_triples,
    build_context,
    check_axioms_on_cell,
    line_config,
    make_rhs,
    mesh_info,
    ramp_config,
    run_axioms,
    run_consistency,
    run_convergence,
    run_evolve,
    run_stability,
)
from cutdg.geometry import halfplane_from_line
from cutdg.quadrature import Space
from cutdg.solutions import random_polynomial
from cutdg.stepping import evolve
from cutdg.systems import SystemSpec


def test_ramp_config_hits_target_min_alpha():
    for target in (1e-2, 1e-5, 1e-8):
        cfg = ramp_config("acoustics", 1, target)
        ctx = build_context(cfg)
        min_alpha = min(ctx.mesh.cells[c].volume_fraction for c in ctx.small)
        assert abs(min_alpha - target) < 1e-6 * target + 1e-12


_CORPUS_COUNTS = {
    "acoustics": {"accepted": 45, AdjacentSmallCellsError: 62, CornerCellError: 93},
    "advection": {"accepted": 59, AdjacentSmallCellsError: 62, BoundaryInflowError: 79},
}


@pytest.mark.parametrize("equation", sorted(_CORPUS_COUNTS))
def test_generic_cut_corpus_counts_per_rejection_reason(equation):
    # the first 200 corpus lines at nx=16, r=1; a change to the share the
    # method accepts, or to the reason it rejects a cut, is a deliberate edit
    cuts = generic_cuts()
    assert cuts.shape == (202, 2)
    counts = Counter()
    for s, o in cuts[:200]:
        try:
            ctx = build_context(line_config(equation, 1, s, o))
            make_rhs(ctx)
            counts["accepted"] += 1
        except (AdjacentSmallCellsError, CornerCellError, BoundaryInflowError) as exc:
            counts[type(exc)] += 1
    assert counts == _CORPUS_COUNTS[equation]


def test_two_inflow_faces_are_a_named_rejection():
    # corpus line 32 (counted from 1) at nx=8: an advection small cell with
    # two inflow faces, which the upstream-extension penalty does not define
    s, o = generic_cuts()[31]
    with pytest.raises(InflowCountError) as err:
        build_context(line_config("advection", 1, s, o, nx=8))
    assert isinstance(err.value, UnsupportedConfigurationError)
    assert str(err.value) == "stabilized cell 2 has 2 inflow faces; exactly one required"


# the consistency and axiom grid of the equivalence tests: the ramp at nx=8
_CHECK_GRID = [(r, a) for r in range(4) for a in (1e-2, 1e-5)]


@pytest.mark.parametrize("equation", ["advection", "acoustics"])
@pytest.mark.parametrize("degree, alpha", _CHECK_GRID)
def test_consistency_equals_the_per_field_evaluation(monkeypatch, equation, degree, alpha):
    # all fields at once, with the re-centering and the field sizes built
    # once: the same fields, drawn in the same order, and the same residual
    from cutdg import experiments

    drawn = []

    def recorded(*args, **kwargs):
        fld = random_polynomial(*args, **kwargs)
        drawn.append(fld.coeffs)
        return fld

    monkeypatch.setattr(experiments, "random_polynomial", recorded)
    cfg = ramp_config(equation, degree, alpha, nx=8, n_polynomials=4, seed=degree + 1)
    worst, expected = consistency_per_field(cfg)
    assert run_consistency(cfg).max_residual == worst
    assert len(drawn) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(drawn, expected))


def _generic_r1():
    """Corpus line 202 (counted from 1) at nx=8, r=1, acoustics."""
    return line_config("acoustics", 1, *generic_cuts()[201], nx=8)


@pytest.mark.parametrize("cfg", [ramp_config("acoustics", r, a, nx=8, n_triples=6, seed=r + 3)
                                 for r, a in _CHECK_GRID] + [_generic_r1()])
def test_axiom_run_equals_the_per_cell_evaluation(cfg):
    # every cell's triples drawn first, the cells checked in groups: the
    # same worst residuals as one cell after the other, from the same draws
    ctx = build_context(cfg)
    rng = np.random.default_rng(cfg.seed)
    expected = axioms_per_cell(ctx.space, ctx.spec, ctx.small, rng, cfg.n_triples)
    assert run_axioms(cfg).worst == expected
    batched_rng = np.random.default_rng(cfg.seed)
    assert check_axioms_on_cell(ctx.space, ctx.spec, ctx.small, batched_rng,
                                cfg.n_triples) == expected
    assert batched_rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("entries", [None, 1])
def test_axiom_check_groups_equal_the_per_cell_evaluation(monkeypatch, degree, entries):
    # every cut cell of a gentler ramp (3, 4 and 5 faces) and two uncut
    # cells, out of id order: several groups form; with a one-entry budget
    # every group is checked one cell at a time
    from cutdg import experiments

    if entries is not None:
        monkeypatch.setattr(experiments, "_CHECK_ENTRIES", entries)
    mesh = ramp_mesh(nx=4, ny=4, slope=0.55, offset=0.13)
    space, spec = Space(mesh, degree), SystemSpec.acoustics(1.0)
    cut = [c for c in range(mesh.num_cells) if not space.uncut[c]]
    cells = cut[::-1] + np.flatnonzero(space.uncut)[:2].tolist()
    keys = {(len(mesh.cell_faces(c)), int(space.rule_size[c])) for c in cells}
    assert len(keys) >= 4
    for ids in (cells, cells[0]):
        rng, batched_rng = np.random.default_rng(degree), np.random.default_rng(degree)
        expected = axioms_per_cell(space, spec, np.atleast_1d(ids), rng, 7)
        assert check_axioms_on_cell(space, spec, ids, batched_rng, 7) == expected
        assert batched_rng.bit_generator.state == rng.bit_generator.state


def test_consistency_driver_advection():
    cfg = ramp_config("advection", 1, 1e-5, n_polynomials=5)
    rep = run_consistency(cfg)
    assert rep.passed
    assert rep.max_residual <= 1e-12
    assert rep.n_stabilized >= 4


def test_consistency_driver_acoustics():
    cfg = ramp_config("acoustics", 1, 1e-5, n_polynomials=5)
    rep = run_consistency(cfg)
    assert rep.passed
    assert rep.max_residual <= 1e-12


def test_consistency_zero_eta_control(tmp_path, capsys):
    # at eta_scale = 0 every local matrix is zero and the check would pass
    # vacuously: it is a configuration error, by key name (exit code 2)
    from cutdg.cli import main
    from cutdg.config import serialize_config

    cfg = ramp_config("advection", 1, 1e-5, n_polynomials=2, eta_scale=0.0, out=str(tmp_path))
    with pytest.raises(ConfigurationError, match="eta_scale"):
        run_consistency(cfg)
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(cfg))
    assert main(["consistency", "--config", str(path)]) == 2
    assert "eta_scale" in capsys.readouterr().err


def test_consistency_residual_does_not_scale_with_eta(monkeypatch):
    # every local matrix is eta times the penalty form: a defect planted in
    # the form is reported at the same normalized size at any eta_scale
    from cutdg.stabilization import AdvectionStabilization

    local = AdvectionStabilization._local

    def planted(self, group):
        defect = 1e-6 * np.ones_like(group.parts["volume"])
        return local(self, group) + group.eta[:, None, None] * defect

    monkeypatch.setattr(AdvectionStabilization, "_local", planted)
    worst = [run_consistency(ramp_config("advection", 1, 1e-5, n_polynomials=2,
                                         eta_scale=scale)).max_residual
             for scale in (1.0, 0.01)]
    assert worst[0] > 1e3 * CONSISTENCY_TOL
    assert abs(worst[1] - worst[0]) <= 1e-9 * worst[0]


def test_consistency_and_axiom_runs_build_no_base_form(monkeypatch):
    # both checks read the penalty only: no run assembles B
    from pathlib import Path

    from cutdg import dg
    from cutdg.config import load_config

    def forbidden(*args, **kwargs):
        raise AssertionError("base form assembled")

    monkeypatch.setattr(dg, "volume_matrices", forbidden)
    configs = Path(__file__).resolve().parent.parent / "configs"
    assert run_consistency(load_config(str(configs / "consistency-advection.cfg"))).passed
    assert run_axioms(load_config(str(configs / "consistency-acoustics.cfg"))).passed


def test_a_residual_that_is_not_a_number_fails_the_check(monkeypatch):
    # one cell's penalty, or one cell's form tables, made nan: the worst
    # residual is nan and the check fails, whatever the other cells read
    from cutdg import experiments
    from cutdg.stabilization import AdvectionStabilization

    local = AdvectionStabilization._local

    def poisoned_local(self, group):
        A = local(self, group)
        A[0, 0, 0] = np.nan
        return A

    monkeypatch.setattr(AdvectionStabilization, "_local", poisoned_local)
    rep = run_consistency(ramp_config("advection", 1, 1e-2, nx=8, n_polynomials=2))
    assert np.isnan(rep.max_residual) and not rep.passed

    cfg = ramp_config("acoustics", 1, 1e-2, nx=8, n_triples=3)
    poisoned = build_context(cfg).small[1]
    tables = experiments.source_tables

    def poisoned_tables(space, cell_ids, *args):
        out = tables(space, cell_ids, *args)
        out.face_gram[np.asarray(cell_ids) == poisoned] = np.nan
        return out

    monkeypatch.setattr(experiments, "source_tables", poisoned_tables)
    rep = run_axioms(cfg)
    assert np.isnan(rep.worst["face_consistency"]) and not rep.passed
    assert "face_consistency = nan" in rep.lines()


def test_axiom_driver_seed_invariance():
    worst = []
    for seed in (1, 2):
        cfg = ramp_config("acoustics", 1, 1e-2, n_triples=5, seed=seed)
        rep = run_axioms(cfg)
        assert rep.passed
        worst.append(rep.worst)
    # values differ with the seed; the verdict does not
    assert all(v <= 1e-12 for w in worst for v in w.values())


def test_axiom_draws_follow_the_per_triple_order():
    # per triple: the blocks U, V, W, W2, then a face pair, then (a, b)
    n_modes, m, K, n_triples = 6, 3, 5, 20
    rng = np.random.default_rng(7)
    expected = []
    for _ in range(n_triples):
        blocks = [rng.uniform(-1.0, 1.0, size=(n_modes, m)) for _ in range(4)]
        expected.append((blocks, rng.choice(K, size=2, replace=False), rng.uniform(-1.0, 1.0, size=2)))
    (U, V, W, W2), (i, j), (a, b) = _draw_triples(np.random.default_rng(7), n_modes, m, K, n_triples)
    for t, (blocks, pair, weights) in enumerate(expected):
        assert all(np.array_equal(X[t], x) for X, x in zip((U, V, W, W2), blocks))
        assert (i[t], j[t]) == tuple(pair)
        assert (a[t], b[t]) == tuple(weights)


def test_convergence_projection_only_rate():
    hp = halfplane_from_line(0.75, 0.005)
    cfg = RunConfig(
        equation="advection", degree=1, nx=8,
        constraints=[(hp.a, hp.b, hp.c)], beta=(1.0, 0.75),
        alpha0=0.25, initial="windowed-sine-advect",
        refinements=(8, 16, 32), projection_only=True,
    ).validate()
    rep = run_convergence(cfg)
    order = [r.observed_order for r in rep.rows if r.observed_order is not None][-1]
    assert abs(order - 2.0) <= 0.1


def test_convergence_requires_advection():
    cfg = ramp_config("acoustics", 1, 1e-2)
    with pytest.raises(ConfigurationError):
        run_convergence(cfg)


def test_convergence_reports_divergence_per_row():
    # unstabilized run on the sliver mesh at the background step blows up;
    # the study records it instead of crashing
    cfg = ramp_config("advection", 1, 1e-6, t_final=0.5, dod=False,
                      initial="windowed-sine-advect", refinements=(16,))
    rep = run_convergence(cfg)
    assert not rep.passed
    assert "diverged" in rep.csv()


def test_convergence_keeps_the_levels_before_a_rejected_one():
    # the bump study's finest level puts a small cell's inflow face on the
    # wall: that level is a row naming the error, after the levels that ran
    configs = Path(__file__).resolve().parent.parent / "configs"
    rep = run_convergence(load_config(str(configs / "conservation-bump.cfg")))
    assert not rep.passed
    assert [r.rejected is None for r in rep.rows] == [True, True, False]
    assert all(np.isfinite(r.l2_error) for r in rep.rows[:2])
    assert rep.rows[1].observed_order is not None and rep.rows[2].observed_order is None
    assert rep.csv().splitlines()[3] == "advection-r1-nx64,64,0.015625,,BoundaryInflowError,"
    assert rep.lines()[-1] == ("# nx = 64 rejected: BoundaryInflowError: stabilized cell 0: "
                               "inflow face 1 lies on the physical boundary")


def test_convergence_csv_shape():
    hp = halfplane_from_line(0.75, 0.005)
    cfg = RunConfig(
        equation="advection", degree=0, nx=8,
        constraints=[(hp.a, hp.b, hp.c)], beta=(1.0, 0.75),
        alpha0=0.25, initial="windowed-sine-advect",
        refinements=(8, 16), projection_only=True,
    ).validate()
    rep = run_convergence(cfg)
    lines = rep.csv().strip().splitlines()
    assert lines[0] == "run_id,nx,h,dofs,l2_error,observed_order"
    assert lines[1].startswith("advection-r0-nx8,8,")
    assert lines[1].endswith(",")          # first row has no observed order
    assert len(lines) == 3


def test_stability_driver_short():
    cfg = ramp_config("acoustics", 1, 1e-6, steps=50)
    rep = run_stability(cfg)
    assert rep.passed
    assert rep.growth <= 1.0 + 1e-6


def test_stability_contrast_detects_blowup():
    cfg = ramp_config("acoustics", 1, 1e-6, steps=200)
    rep = run_stability(cfg, contrast=True)
    assert rep.passed
    assert rep.contrast_growth > 10.0      # inf when the contrast run failed


def test_stability_no_stabilized_cells_matches_plain_run():
    # threshold below every volume fraction: the penalty machinery is idle
    # and the run equals the unstabilized one bit for bit
    cfg = ramp_config("acoustics", 1, 1e-2, steps=20)
    cfg.alpha0 = 1e-9
    cfg.validate()
    ctx_on = build_context(replace(cfg, dod=True))
    assert len(ctx_on.small) == 0
    ctx_off = build_context(replace(cfg, dod=False))
    fld = "poly:0.4,1,-0.7;0;0"
    cfg.initial = fld
    rep_on = _run_with(ctx_on, cfg)
    rep_off = _run_with(ctx_off, cfg)
    assert np.array_equal(rep_on, rep_off)


def _run_with(ctx, cfg):
    from cutdg.experiments import project_field
    from cutdg.solutions import lookup_field

    fld = lookup_field(cfg.initial, ctx.spec)
    u0 = project_field(ctx.space, fld)
    return evolve(ctx.space, u0, make_rhs(ctx), ctx.dt, cfg.steps, cfg.rk_order).final.coeffs


def test_evolve_conservation_identity():
    cfg = ramp_config("advection", 1, 1e-2, t_final=0.4,
                      initial="bump-advect:0.55,0.55,0.15")
    run = run_evolve(cfg).result
    resid = abs(run.mass_change + run.outflow_integral)
    assert run.mass_change < -1e-3          # the bump really leaves
    assert resid <= 1e-10 * abs(run.mass_change)


def test_failed_evolve_is_its_report():
    # the unstabilized sliver ramp blows up at the background step: the
    # report stores the failed step once and holds no result and no file
    cfg = ramp_config("advection", 1, 1e-6, t_final=0.5, dod=False)
    rep = run_evolve(cfg)
    assert rep.failed_at == 25 and rep.result is None
    assert not rep.passed
    assert rep.files() == {}
    assert rep.lines() == ["integration failed at step 25"]


def test_acoustic_evolve_measures_the_pressure_integral():
    # every acoustic boundary is a reflecting wall, so no pressure flows out:
    # the mass trace records the pressure integral itself
    from cutdg.experiments import build_context, project_field
    from cutdg.solutions import lookup_field

    initial = "pressure-poly:0.3,1,-0.7"
    cfg = ramp_config("acoustics", 1, 1e-2, t_final=0.05, initial=initial)
    run = run_evolve(cfg).result
    ctx = build_context(cfg)
    mass0 = ctx.space.total_mass(project_field(ctx.space, lookup_field(initial, ctx.spec)))[0]
    assert abs(mass0) > 0.05
    assert run.mass_trace[0] == mass0
    assert run.outflow_integral == 0.0
    # on the uncut box the scheme conserves it to round-off
    box = RunConfig(equation="acoustics", nx=16, t_final=0.2, initial=initial).validate()
    run = run_evolve(box).result
    assert abs(run.mass_change) <= 1e-14 * abs(run.mass_trace[0])


def test_mesh_info_output():
    cfg = ramp_config("acoustics", 1, 1e-2)
    rep = mesh_info(cfg)
    info, dump = "\n".join(rep.lines()), rep.files()["mesh.txt"]
    assert "cells = " in info
    assert "stabilized = " in info
    assert dump.startswith("cell 0 ")

    cfg_uncut = RunConfig(equation="advection", nx=2).validate()
    info = "\n".join(mesh_info(cfg_uncut).lines())
    assert "cells = 4" in info
    assert "min_alpha = 1" in info


@pytest.mark.parametrize("equation", ["advection", "acoustics"])
def test_singular_cut_mass_stops_stepping_runs_only(equation, tmp_path, capsys):
    # r=2 at alpha=1e-8: the sliver's Gram matrix does not factor.  Runs that
    # step stop with a named error (exit code 1); the consistency check never
    # solves with the mass and still passes.
    from cutdg.cli import main
    from cutdg.config import serialize_config
    from cutdg.errors import SingularMassError

    cfg = ramp_config(equation, 2, 1e-8, steps=5, t_final=0.01, out=str(tmp_path))
    assert run_consistency(cfg).passed
    run = run_stability if equation == "acoustics" else run_evolve
    with pytest.raises(SingularMassError, match="mass matrix of cell 1 is numerically singular"):
        run(cfg)
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(cfg))
    command = "stability" if equation == "acoustics" else "evolve"
    assert main([command, "--config", str(path)]) == 1
    assert "mass matrix of cell 1 is numerically singular" in capsys.readouterr().err
    assert main(["consistency", "--config", str(path)]) == 0


def test_every_driver_context_is_its_config(monkeypatch):
    # a run is recorded by its config: every context a driver builds (the
    # checks, which stabilize whatever dod says, each refinement level, the
    # stability run and its unstabilized contrast, evolve) is the one its
    # config builds again from its canonical text
    from cutdg import experiments
    from cutdg.config import parse_config, serialize_config

    built = []

    def recording(*args, **kwargs):
        built.append(build_context(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(experiments, "build_context", recording)
    checks = ramp_config("acoustics", 1, 1e-2, nx=8, n_polynomials=1, n_triples=1, dod=False)
    study = ramp_config("advection", 1, 1e-2, nx=8, refinements=(8, 16), t_final=0.01)
    long_run = ramp_config("acoustics", 1, 1e-2, nx=8, steps=2)
    plain = ramp_config("advection", 1, 1e-2, nx=8, t_final=0.01)
    reports = [run_consistency(checks), run_axioms(checks), run_convergence(study),
               run_stability(long_run, contrast=True), run_evolve(plain)]
    # and each report keeps the config it was run with
    configs = [checks, checks, study, long_run, plain]
    assert all(rep.cfg is cfg for rep, cfg in zip(reports, configs))
    assert [(c.cfg.nx, c.cfg.dod) for c in built] == [
        (8, True), (8, True), (8, True), (16, True), (8, True), (8, False), (8, True)]
    for ctx in built:
        again = build_context(parse_config(serialize_config(ctx.cfg)))
        assert again.mesh.dump() == ctx.mesh.dump()
        assert list(again.small) == list(ctx.small)
    assert [len(c.small) > 0 for c in built] == [True] * 5 + [False, True]
