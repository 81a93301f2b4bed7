"""Experiment drivers: consistency checks, form axioms, convergence, stability.

Each driver takes a validated :class:`~cutdg.config.RunConfig` and returns a
small report object: the config it ran and the values the run measured,
each stored once.  The CLI prints each report's ``lines()``, writes its
``files()`` and exits by its ``passed``, and does nothing else.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .config import RunConfig
from .dg import assemble, outflow_weights
from .errors import (ConfigurationError, IntegrationFailureError, MeshValidationError,
                     UnsupportedConfigurationError)
from .geometry import build_mesh, classify_small_cells, halfplane_from_line
from .quadrature import (
    Space,
    face_quadrature,
    fan_rules,
    monomial_tables,
    monomial_values,
    triangle_rule,
)
from .solutions import PolynomialField, lookup_field, random_polynomial, recentered
from .stabilization import (
    SPLIT,
    AdvectionStabilization,
    WaveStabilization,
    cell_faces,
    eta_values,
    face_forms,
    kappa,
    source_tables,
    surface_forms,
    volume_forms,
)
from .stepping import EvolveResult, evolve, steps_to, time_step

CONSISTENCY_TOL = 1e-10
AXIOM_TOL = 1e-12
# the axiom check takes at most as many cells of one group at once as keep
# its largest arrays within this many entries (8 MB)
_CHECK_ENTRIES = 2 ** 20

RAMP_SLOPE = 0.75


def ramp_offset_for_min_alpha(min_alpha, h, row=1):
    """Line offset placing a corner triangle of volume fraction ``min_alpha``.

    With slope 3/4 and the offset fraction psi0 = 1/4 - sqrt(1.5 * alpha),
    every fourth column is cut into a triangle of exactly the requested
    fraction, and no stabilized cell ever shares a face with another one or
    touches the outer box.
    """
    psi0 = 0.25 - np.sqrt(2.0 * RAMP_SLOPE * min_alpha)
    if psi0 <= 0.0:
        raise ConfigurationError(f"min_alpha {min_alpha} too large for the ramp family")
    return (row + psi0) * h


def ramp_config(equation, degree, min_alpha, nx=16, **overrides):
    """Unit-box configuration with the engineered sliver ramp geometry."""
    return line_config(
        equation, degree, RAMP_SLOPE, ramp_offset_for_min_alpha(min_alpha, 1.0 / nx), nx,
        **overrides)


def line_config(equation, degree, slope, offset, nx=16, **overrides):
    """Unit-box configuration cut by the line ``y = slope * x + offset``,
    fluid above; otherwise as :func:`ramp_config`."""
    hp = halfplane_from_line(slope, offset)
    cfg = RunConfig(equation=equation, degree=degree, nx=nx, constraints=[(hp.a, hp.b, hp.c)],
                    alpha0=0.25, beta=(1.0, 0.2), sound_speed=1.0)
    return replace(cfg, **overrides).validate()


# ---------------------------------------------------------------------------


@dataclass
class RunContext:
    cfg: RunConfig
    spec: object
    mesh: object
    space: Space
    small: tuple   # stabilized cell ids
    eta: np.ndarray
    stab: object

    @property
    def dt(self):
        """The run's time step: the background mesh's CFL step."""
        return time_step(self.cfg.cfl, self.space.h, self.spec.lambda_max, self.cfg.degree)


def build_context(cfg):
    """Mesh, discrete space and stabilization of the run ``cfg``, and of
    nothing else: a variant of a run is a variant of its config."""
    spec = cfg.system()
    mesh = build_mesh(cfg.background(), cfg.constraints)
    small = classify_small_cells(mesh, cfg.alpha0) if cfg.dod else ()
    space = Space(mesh, cfg.degree)
    eta = eta_values(mesh, small, cfg.alpha0, cfg.eta_scale)
    stab = None
    # the advection penalty checks its cells' inflow faces
    if len(small):
        if spec.kind == "advection":
            stab = AdvectionStabilization(space, spec, small, eta)
        else:
            stab = WaveStabilization(space, spec, small, eta)
    return RunContext(cfg, spec, mesh, space, small, eta, stab)


def project_field(space, fld, t=0.0):
    """Discrete representation of a field: exact for fitting polynomials."""
    if isinstance(fld, PolynomialField) and fld.degree <= space.degree:
        return fld.to_dg(space)
    return space.l2_project(lambda pts: fld(pts, t), fld.m)


def make_rhs(ctx):
    """The right-hand side ``rhs(coeffs) = du/dt``: the semi-discrete
    operator K = -M^{-1} (B + S), assembled once."""
    return assemble(ctx.space, ctx.spec, ctx.stab).folded(ctx.space)


def _initial_state(ctx, default):
    """The run's initial field, the config's ``initial`` or else the driver's
    ``default``, and its projection."""
    fld = lookup_field(ctx.cfg.initial or default, ctx.spec)
    return fld, project_field(ctx.space, fld)


def _time_run(ctx, u0, steps, outflow=None):
    """``steps`` steps of the run ``ctx`` from ``u0`` at its background step,
    with the mass and outflow ledger of the ``outflow`` weights if given: the
    :class:`~cutdg.stepping.EvolveResult`, or the step at which the state
    stopped being finite.  No driver lets the failure escape as an error."""
    try:
        return evolve(ctx.space, u0, make_rhs(ctx), ctx.dt, steps, ctx.cfg.rk_order, outflow)
    except IntegrationFailureError as exc:
        return exc.step


class _Report:
    """A driver's report: ``lines()`` to print, ``passed`` for the exit code
    and ``files()``, name -> text, to write; by default no file."""

    def files(self):
        return {}


# ---------------------------------------------------------------------------
# consistency of the penalty at global polynomials
# ---------------------------------------------------------------------------


def _mode_scales(space, group):
    """Max |mode| over each quadrature point of each cell of a penalty
    group's neighborhoods, (B, n, k), from their plain source tables."""
    tables = source_tables(space, group.cell_ids, group.cells)
    vals = np.maximum(abs(tables.face_phi).max(axis=(1, 3)), abs(tables.cell_phi).max(axis=2))
    return np.maximum(vals, 1e-300)


@dataclass
class ConsistencyReport(_Report):
    cfg: RunConfig
    n_stabilized: int
    min_alpha: float
    max_residual: float

    @property
    def passed(self):
        return self.max_residual <= CONSISTENCY_TOL

    def lines(self):
        cfg = self.cfg
        return [
            f"# consistency equation={cfg.equation} degree={cfg.degree} seed={cfg.seed}",
            f"stabilized_cells = {self.n_stabilized}",
            f"min_alpha = {self.min_alpha:.3e}",
            f"fields = {cfg.n_polynomials}",
            f"max_normalized_residual = {self.max_residual:.6e}",
            f"tolerance = {CONSISTENCY_TOL:.1e}",
            f"status = {'pass' if self.passed else 'FAIL'}",
        ]


def run_consistency(cfg):
    """Assemble the penalty at projections of random global polynomials.

    The penalty must annihilate them; reports the worst residual normalized
    by field size, mesh size, test-mode size and the cell's eta, since every
    local matrix is eta times the penalty form.  All fields are drawn
    first, each field's size is its largest value at the space's
    quadrature points, and each group's local matrices are applied to every
    field at once.
    """
    if cfg.eta_scale == 0.0:
        raise ConfigurationError("consistency run requires eta_scale > 0")
    ctx = build_context(replace(cfg, dod=True))
    if ctx.stab is None:
        raise ConfigurationError("consistency run requires at least one stabilized cell")
    rng = np.random.default_rng(cfg.seed)
    pressure_only = ctx.spec.kind == "acoustics"
    fields = [random_polynomial(rng, cfg.degree, ctx.spec.m, pressure_only=pressure_only)
              for _ in range(cfg.n_polynomials)]
    values = monomial_values(fields[0].exps, (0.0, 0.0), 1.0, ctx.space.quad_pts)
    umax = np.array([max(float(np.max(np.abs(values @ f.coeffs))), 1e-300) for f in fields])
    groups = ctx.stab.groups
    # every field's blocks on the cells the penalty reads
    cells = np.unique(np.concatenate([g.cells.ravel() for g in groups]))
    blocks = recentered(fields, ctx.space, cells)
    h = ctx.space.h
    worst = 0.0
    for group in groups:
        scale = group.eta[:, None, None] * _mode_scales(ctx.space, group)
        u = blocks[:, np.searchsorted(cells, group.cells)]
        res = group.local @ u.reshape(len(fields), len(scale), -1, 1)
        denom = (umax * h)[:, None, None, None, None] * scale[..., None]
        normalized = np.abs(res.reshape((len(fields),) + scale.shape + (-1,))) / denom
        worst = float(np.maximum(worst, normalized.max()))   # a nan stays nan
    min_alpha = float(ctx.mesh.cell_volume_fraction[list(ctx.small)].min())
    return ConsistencyReport(cfg, len(ctx.small), min_alpha, worst)


# ---------------------------------------------------------------------------
# propagation-form axioms
# ---------------------------------------------------------------------------

AXIOM_NAMES = ("symmetry", "linearity", "balance", "face_consistency", "volume_consistency")


@dataclass
class AxiomReport(_Report):
    cfg: RunConfig
    n_cells: int
    worst: dict

    @property
    def passed(self):
        return all(v <= AXIOM_TOL for v in self.worst.values())

    def lines(self):
        cfg = self.cfg
        out = [f"# form-axioms seed={cfg.seed} cells={self.n_cells} triples={cfg.n_triples}"]
        for name in AXIOM_NAMES:
            out.append(f"{name} = {self.worst[name]:.6e}")
        out.append(f"tolerance = {AXIOM_TOL:.1e}")
        out.append(f"status = {'pass' if self.passed else 'FAIL'}")
        return out


def _draw_triples(rng, n_modes, m, K, n_triples):
    """Every triple's random draws, in the per-triple order: the blocks U, V,
    W, W2, a pair of distinct faces (i, j), then the weights (a, b)."""
    blocks = np.empty((n_triples, 4, n_modes, m))
    pairs = np.empty((n_triples, 2), dtype=int)
    weights = np.empty((n_triples, 2))
    # rng.uniform(-1, 1) is -1 + 2 u of rng.random's u, in the same stream:
    # the u are drawn into place and scaled once.  One call draws the same
    # numbers as four successive (n_modes, m) calls.
    for t in range(n_triples):
        rng.random(out=blocks[t])
        pairs[t] = rng.choice(K, size=2, replace=False)
        rng.random(out=weights[t])
    return (-1.0 + 2.0 * blocks).swapaxes(0, 1), pairs.T, (-1.0 + 2.0 * weights).T


def _fine_references(space, spec, cell_ids, U, V, W):
    """A_k(U, V, W) on each face and p_V(U, U, W) in the cell, for cells of
    one face count, evaluated pointwise on rules finer than the space's:
    ``face_npts + 3`` points per face and a fan cell rule exact to degree
    2r + 4 (:func:`~cutdg.quadrature.fan_rules`), stacked over the cells.
    The blocks are stacks (..., cells, n_modes, m).  The references share no
    table with the forms the axiom check tests, so they are its independent
    references.
    """
    mesh = space.mesh
    exps, h, k = space.exps, space.h, space.n_modes
    fids = cell_faces(mesh, cell_ids)
    B, K = fids.shape
    pts, w = face_quadrature(mesh.face_p[fids], mesh.face_q[fids], space.face_npts + 3)
    nq = pts.shape[2]
    centers = np.repeat(space.centers[cell_ids], K * nq, axis=0)
    phi = monomial_values(exps, centers, h, pts.reshape(-1, 2)).reshape(B, K, nq, k)
    outward = (np.where(mesh.face_left[fids] == cell_ids[:, None], 1.0, -1.0)[..., None]
               * mesh.face_normal[fids])
    AnT = np.swapaxes(spec.A_n(outward), -1, -2)
    # the blocks against every face, and against both gradient directions
    Uf, Vf, Wf = (X[..., None, :, :] for X in (U, V, W))
    flux = SPLIT * (phi @ Uf + phi @ Vf) @ AnT
    faces = np.sum(np.sum(flux * (phi @ Wf), axis=-1) * w, axis=-1)
    polygons = mesh.cell_vertices[mesh.cell_offsets[cell_ids][:, None] + np.arange(K)]
    pts, w = fan_rules(polygons, 2 * space.degree + 4)
    centers = np.repeat(space.centers[cell_ids], pts.shape[1], axis=0)
    phi, grad = monomial_tables(exps, centers, h, pts.reshape(-1, 2))
    phi = phi.reshape(B, -1, k)
    grad = np.moveaxis(grad.reshape(B, -1, k, 2), -1, 1)
    flux = (phi @ U)[..., None, :, :] @ np.stack([spec.A1.T, spec.A2.T])
    fluxes = np.sum(flux * (grad @ Wf), axis=(-3, -1))
    # each cell's weights against its own rows: (cells, ..., points) @ (cells, points, 1)
    p_v = kappa(K) * (np.moveaxis(fluxes, -2, 0) @ w[:, :, None])[..., 0]
    return faces, np.moveaxis(p_v, 0, -1)


def check_axioms_on_cell(space, spec, cell_ids, rng, n_triples):
    """Worst relative residual of each form identity over the cells
    ``cell_ids``, one id or a sequence of them.

    The triples of every cell are drawn first, cell after cell in the order
    given (:func:`_draw_triples`).  The cells are then checked in groups of
    one face count and cell-rule size, in batches within ``_CHECK_ENTRIES``.
    Per batch, one call of the penalty's table builder
    (:func:`~cutdg.stabilization.source_tables`), with each cell's own
    extension as its only source, gives the Gram products that the forms
    contract, and every identity is one array expression over the batch's
    triples and cells.
    """
    cell_ids = np.atleast_1d(np.asarray(cell_ids, dtype=np.int64))
    faces = np.diff(space.mesh.cell_offsets)[cell_ids].tolist()
    draws = [_draw_triples(rng, space.n_modes, spec.m, K, n_triples) for K in faces]
    keys = list(zip(faces, space.rule_size[cell_ids].tolist()))
    worst = dict.fromkeys(AXIOM_NAMES, 0.0)
    for key in dict.fromkeys(keys):
        members = [c for c, other in enumerate(keys) if other == key]
        # a batch's arrays, (triples, cells, points, m) per direction, stay
        # within _CHECK_ENTRIES entries
        fine_points = len(triangle_rule(2 * space.degree + 4)[1]) * key[0]
        step = max(1, _CHECK_ENTRIES // (2 * n_triples * fine_points * spec.m))
        for lo in range(0, len(members), step):
            batch = members[lo:lo + step]
            # each draw stacked over the batch's cells, (triples, cells, ...)
            (U, V, W, W2), (i, j), (a, b) = (
                np.stack([draws[c][n] for c in batch], axis=2) for n in range(3))
            cell_worst = _axiom_worst(space, spec, cell_ids[batch], U, V, W, W2, i, j, a, b)
            for name in AXIOM_NAMES:
                worst[name] = float(np.maximum(worst[name], cell_worst[name]))   # a nan stays nan
    return worst


def _axiom_worst(space, spec, cell_ids, U, V, W, W2, i, j, a, b):
    """Worst relative residual of each form identity over a batch of cells of
    one face count and cell-rule size; the draws are stacked (triples,
    cells, ...)."""
    tables = source_tables(space, cell_ids, cell_ids[:, None])
    T, B = i.shape
    K, k = tables.outward.shape[1], space.n_modes
    t, c = np.arange(T)[:, None], np.arange(B)
    # each cell's basis at its own points: the cell rule and every face rule
    probe = np.concatenate([tables.cell_phi[:, 0], tables.face_phi[:, :, 0].reshape(B, -1, k)],
                           axis=1)

    def max_abs(X):
        return np.abs(probe @ X).max(axis=(-2, -1))

    denom = (
        spec.lambda_max * space.h
        * np.maximum(np.maximum(max_abs(U), max_abs(V)), 1e-300)
        * np.maximum(max_abs(W), 1e-300)
    )

    def surfaces(U, V, W):
        return surface_forms(face_forms(tables, spec, U, V, W))

    P = surfaces(U, V, W)
    p_uv = P[t, c, i, j]
    combo = a[..., None, None] * W + b[..., None, None] * W2
    p_v, p_vs = volume_forms(tables, spec, U, V, W)
    fine_faces, fine_volume = _fine_references(space, spec, cell_ids, U, V, W)
    iu, ju = np.triu_indices(K, 1)
    residuals = {
        "symmetry": p_uv - surfaces(V, U, W)[t, c, i, j],
        "linearity": surfaces(U, V, combo)[t, c, i, j] - a * p_uv
        - b * surfaces(U, V, W2)[t, c, i, j],
        "balance": P[..., iu, ju] + P[..., ju, iu] - p_v[..., None] - p_vs[..., None],
        # face sum against an independent, finer quadrature of the flux
        "face_consistency": P.sum(axis=-2) - fine_faces,
        # volume identity at equal arguments against a finer cell rule
        "volume_consistency": volume_forms(tables, spec, U, U, W)[0] - fine_volume,
    }
    return {
        name: float(np.max(np.abs(r) / denom.reshape(denom.shape + (1,) * (r.ndim - 2)),
                           initial=0.0))
        for name, r in residuals.items()
    }


def run_axioms(cfg):
    ctx = build_context(replace(cfg, dod=True))
    if len(ctx.small) == 0:
        raise ConfigurationError("axiom run requires at least one stabilized cell")
    rng = np.random.default_rng(cfg.seed)
    worst = check_axioms_on_cell(ctx.space, ctx.spec, ctx.small, rng, cfg.n_triples)
    return AxiomReport(cfg, len(ctx.small), worst)


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceRow:
    """One refinement level; a level whose run diverged has ``l2_error`` nan.
    A level whose geometry the method rejects has ``rejected``, the error's
    name and message, ``l2_error`` nan and ``dofs`` None."""
    h: float
    dofs: int
    l2_error: float
    observed_order: float = None
    rejected: str = None


@dataclass
class ConvergenceReport(_Report):
    cfg: RunConfig
    rows: list = field(default_factory=list)   # one per level of cfg.refinements

    def csv(self):
        run_id = f"{self.cfg.equation}-r{self.cfg.degree}-nx"
        lines = ["run_id,nx,h,dofs,l2_error,observed_order"]
        for n, r in zip(self.cfg.refinements, self.rows):
            if r.rejected is not None:
                err = r.rejected.partition(":")[0]
            else:
                err = "diverged" if np.isnan(r.l2_error) else f"{r.l2_error:.17g}"
            order = "" if r.observed_order is None else f"{r.observed_order:.17g}"
            dofs = "" if r.dofs is None else r.dofs
            lines.append(f"{run_id}{n},{n},{r.h:.17g},{dofs},{err},{order}")
        return "\n".join(lines) + "\n"

    @property
    def passed(self):
        return not any(np.isnan(r.l2_error) for r in self.rows)

    def lines(self):
        rejected = [f"# nx = {n} rejected: {r.rejected}"
                    for n, r in zip(self.cfg.refinements, self.rows) if r.rejected is not None]
        return [f"# seed = {self.cfg.seed}"] + self.csv().splitlines() + rejected

    def files(self):
        return {"convergence.csv": self.csv()}


def run_convergence(cfg):
    """Refinement study of the advected field named in the configuration.

    A level whose geometry the method rejects (an unsupported small-cell
    configuration or an invalid mesh) is a row naming the error; the other
    levels still run."""
    if cfg.equation != "advection":
        raise ConfigurationError("the convergence driver runs the advection system")
    report = ConvergenceReport(cfg)
    for n in cfg.refinements:
        level = replace(cfg, nx=n)
        try:
            ctx = build_context(level)
        except (UnsupportedConfigurationError, MeshValidationError) as exc:
            report.rows.append(ConvergenceRow(level.background().h, None, np.nan,
                                              rejected=f"{type(exc).__name__}: {exc}"))
            continue
        fld, u0 = _initial_state(ctx, "windowed-sine-advect")
        if cfg.projection_only:
            err = ctx.space.l2_error(u0, lambda pts: fld(pts, 0.0))
        else:
            run = _time_run(ctx, u0, steps_to(cfg.t_final, ctx.dt))
            err = np.nan if isinstance(run, int) else ctx.space.l2_error(
                run.final, lambda pts: fld(pts, run.steps * ctx.dt))
        h = ctx.mesh.bg.h
        order = None
        # no order next to a diverged level: a comparison with nan is false
        if report.rows and err > 0 and report.rows[-1].l2_error > 0:
            prev = report.rows[-1]
            order = float(np.log(prev.l2_error / err) / np.log(prev.h / h))
        report.rows.append(ConvergenceRow(h, ctx.space.dofs(ctx.spec.m), err, order))
    return report


# ---------------------------------------------------------------------------
# small-cell stability experiment
# ---------------------------------------------------------------------------


@dataclass
class StabilityReport(_Report):
    """``growth`` is max ||u|| / ||u0|| of the run, None when it failed at
    step ``failed_at``; ``contrast_growth`` is that of the run without the
    penalty (inf when it failed), None when there was none."""
    cfg: RunConfig
    dt: float
    growth: float = None
    failed_at: int = None
    contrast_growth: float = None

    @property
    def passed(self):
        return self.failed_at is None and self.growth <= 1.0 + self.cfg.growth_tol

    def lines(self):
        out = [
            f"# stability seed={self.cfg.seed} steps={self.cfg.steps} dt={self.dt:.6e}",
            f"growth = {'unstable' if self.failed_at is not None else f'{self.growth:.12f}'}",
        ]
        if self.failed_at is not None:
            out.append(f"failed_at_step = {self.failed_at}")
        if self.contrast_growth is not None:
            c = self.contrast_growth
            out.append(f"growth_without_stabilization = "
                       f"{'unstable' if np.isinf(c) else f'{c:.6e}'}")
        out.append(f"status = {'pass' if self.passed else 'FAIL'}")
        return out


def run_stability(cfg, contrast=False):
    """Long acoustic run on the sliver mesh with the background time step;
    with ``contrast``, the same run without the penalty as well."""
    if cfg.equation != "acoustics":
        raise ConfigurationError("the stability driver runs the acoustics system")
    runs = []
    for run_cfg in (cfg, replace(cfg, dod=False))[:1 + contrast]:
        ctx = build_context(run_cfg)
        _, u0 = _initial_state(ctx, "poly:0.4,1,-0.7,0.5,-1,0.25;0;0")
        runs.append(_time_run(ctx, u0, cfg.steps))
    # the contrast differs only in its penalty, so its step is the run's
    report = StabilityReport(cfg, ctx.dt)
    if isinstance(runs[0], int):
        report.failed_at = runs[0]
    else:
        report.growth = runs[0].max_growth
    if contrast:
        report.contrast_growth = np.inf if isinstance(runs[1], int) else runs[1].max_growth
    return report


# ---------------------------------------------------------------------------
# plain evolution
# ---------------------------------------------------------------------------


@dataclass
class EvolveReport(_Report):
    """``result`` is the run's :class:`~cutdg.stepping.EvolveResult`, None
    when it failed at step ``failed_at``."""
    cfg: RunConfig
    dt: float
    result: EvolveResult = None
    failed_at: int = None

    @property
    def passed(self):
        return self.failed_at is None

    def lines(self):
        r = self.result
        if r is None:
            return [f"integration failed at step {self.failed_at}"]
        return [
            f"# evolve seed={self.cfg.seed} steps={r.steps} dt={self.dt:.6e}",
            f"final_l2 = {r.l2_trace[-1]:.17g}",
            f"mass_change = {r.mass_change:.17g}",
            f"outflow_integral = {r.outflow_integral:.17g}",
        ]

    def files(self):
        r = self.result
        if r is None:
            return {}
        lines = ["step,t,l2,mass"]
        for k, (t, l2, mass) in enumerate(zip(r.times, r.l2_trace, r.mass_trace)):
            lines.append(f"{k},{t:.17g},{l2:.17g},{mass:.17g}")
        return {"evolve_trace.csv": "\n".join(lines) + "\n"}


def run_evolve(cfg):
    """The config's run to ``t_final`` with its mass and outflow ledger; a
    state that stops being finite is stored as the report's ``failed_at``."""
    ctx = build_context(cfg)
    _, u0 = _initial_state(ctx, "bump-advect" if cfg.equation == "advection" else "poly:1;0;0")
    run = _time_run(ctx, u0, steps_to(cfg.t_final, ctx.dt),
                    outflow_weights(ctx.space, ctx.spec, ctx.stab))
    report = EvolveReport(cfg, ctx.dt)
    if isinstance(run, int):
        report.failed_at = run
    else:
        report.result = run
    return report


# ---------------------------------------------------------------------------


@dataclass
class MeshReport(_Report):
    """The mesh a config builds and its number of stabilized cells."""
    cfg: RunConfig
    mesh: object
    n_stabilized: int
    passed = True

    def lines(self):
        alphas = self.mesh.cell_volume_fraction
        return [
            f"cells = {self.mesh.num_cells}",
            f"min_alpha = {alphas.min():.17g}",
            f"max_alpha = {alphas.max():.17g}",
            f"stabilized = {self.n_stabilized}",
        ]

    def files(self):
        return {"mesh.txt": self.mesh.dump()}


def mesh_info(cfg):
    """Mesh statistics and the mesh dump; builds only the mesh and, with the
    DoD penalty on, the small-cell selection."""
    mesh = build_mesh(cfg.background(), cfg.constraints)
    small = classify_small_cells(mesh, cfg.alpha0) if cfg.dod else ()
    return MeshReport(cfg, mesh, len(small))
