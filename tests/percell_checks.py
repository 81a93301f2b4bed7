"""Per-field and per-cell reference evaluations of the two check drivers.

``consistency_per_field`` applies the penalty to one random global
polynomial at a time, each written into every cell by ``to_dg`` and sized
by its own evaluation at the quadrature points; ``axioms_per_cell`` checks
one stabilized cell at a time, drawing its triples with one
``rng.uniform``/``rng.choice`` call per draw and evaluating its finer
references face by face with ``face_quadrature`` and on the cell with
``polygon_quadrature``.  Both draw from the generator in the drivers'
order and do the drivers' arithmetic per field and per cell, so the tests
require the batched drivers of ``cutdg.experiments`` to equal them exactly.
"""

from dataclasses import replace

import numpy as np

from cutdg.experiments import _mode_scales, build_context
from cutdg.quadrature import (face_quadrature, monomial_gradients, monomial_values,
                              polygon_quadrature)
from cutdg.solutions import random_polynomial
from cutdg.stabilization import (SPLIT, face_forms, kappa, source_tables, surface_forms,
                                 volume_forms)


def consistency_per_field(cfg):
    """(worst normalized residual, the fields' coefficient arrays) of the
    consistency run ``cfg``, field after field."""
    ctx = build_context(replace(cfg, dod=True))
    rng = np.random.default_rng(cfg.seed)
    scales = [group.eta[:, None, None] * _mode_scales(ctx.space, group)
              for group in ctx.stab.groups]
    h = ctx.space.h
    worst = 0.0
    drawn = []
    for _ in range(cfg.n_polynomials):
        fld = random_polynomial(rng, cfg.degree, ctx.spec.m,
                                pressure_only=ctx.spec.kind == "acoustics")
        drawn.append(fld.coeffs)
        u = fld.to_dg(ctx.space)
        umax = max(float(np.max(np.abs(fld(ctx.space.quad_pts)))), 1e-300)
        for group, scale in zip(ctx.stab.groups, scales):
            res = group.local @ u.coeffs[group.cells].reshape(len(scale), -1, 1)
            normalized = np.abs(res.reshape(scale.shape + (-1,))) / (umax * h * scale[..., None])
            worst = max(worst, float(normalized.max()))
    return worst, drawn


def draw_triples(rng, n_modes, m, K, n_triples):
    """One cell's draws, triple after triple: the blocks U, V, W, W2, a pair
    of distinct faces (i, j), then the weights (a, b)."""
    blocks, pairs, weights = [], [], []
    for _ in range(n_triples):
        blocks.append([rng.uniform(-1.0, 1.0, size=(n_modes, m)) for _ in range(4)])
        pairs.append(rng.choice(K, size=2, replace=False))
        weights.append(rng.uniform(-1.0, 1.0, size=2))
    return np.array(blocks).swapaxes(0, 1), np.array(pairs).T, np.array(weights).T


def fine_references(space, spec, cell_id, U, V, W):
    """A_k(U, V, W) per face and p_V(U, U, W) of one cell, face by face on
    ``face_npts + 3`` points and on the cell's rule exact to degree 2r + 4."""
    mesh = space.mesh
    exps, center, h = space.exps, space.centers[cell_id], space.h
    faces = []
    for fid in mesh.cell_faces(cell_id).tolist():
        pts, w = face_quadrature(mesh.face_p[fid], mesh.face_q[fid], space.face_npts + 3)
        phi = monomial_values(exps, center, h, pts)
        flux = SPLIT * (phi @ U + phi @ V) @ spec.A_n(mesh.outward_normal(cell_id, fid)).T
        faces.append(np.sum(np.sum(flux * (phi @ W), axis=-1) * w, axis=-1))
    pts, w = polygon_quadrature(mesh.cell_polygon(cell_id), 2 * space.degree + 4)
    phi = monomial_values(exps, center, h, pts)
    grad = np.moveaxis(monomial_gradients(exps, center, h, pts), -1, 0)
    flux = (phi @ U)[..., None, :, :] @ np.stack([spec.A1.T, spec.A2.T])
    p_v = kappa(len(faces)) * (np.sum(flux * (grad @ W[..., None, :, :]), axis=(-3, -1)) @ w)
    return np.stack(faces, axis=-1), p_v


def axioms_on_one_cell(space, spec, cell_id, rng, n_triples):
    """Worst relative residual of each form identity on one cell."""
    tables = source_tables(space, [cell_id], [[cell_id]])
    K, k = tables.outward.shape[1], space.n_modes
    (U, V, W, W2), (i, j), (a, b) = draw_triples(rng, k, spec.m, K, n_triples)
    t = np.arange(n_triples)
    probe = np.concatenate([tables.cell_phi[0, 0], tables.face_phi[0, :, 0].reshape(-1, k)])

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
    p_uv = P[t, i, j]
    combo = a[:, None, None] * W + b[:, None, None] * W2
    p_v, p_vs = volume_forms(tables, spec, U, V, W)
    fine_faces, fine_volume = fine_references(space, spec, cell_id, U, V, W)
    iu, ju = np.triu_indices(K, 1)
    residuals = {
        "symmetry": p_uv - surfaces(V, U, W)[t, i, j],
        "linearity": surfaces(U, V, combo)[t, i, j] - a * p_uv - b * surfaces(U, V, W2)[t, i, j],
        "balance": P[:, iu, ju] + P[:, ju, iu] - p_v[:, None] - p_vs[:, None],
        "face_consistency": P.sum(axis=1) - fine_faces,
        "volume_consistency": volume_forms(tables, spec, U, U, W)[0] - fine_volume,
    }
    return {
        name: float(np.max(np.abs(r).T / denom, initial=0.0))
        for name, r in residuals.items()
    }


def axioms_per_cell(space, spec, cell_ids, rng, n_triples):
    """Worst relative residual of each form identity over the cells
    ``cell_ids``, one cell after the other."""
    worst = {}
    for cid in cell_ids:
        for name, value in axioms_on_one_cell(space, spec, cid, rng, n_triples).items():
            worst[name] = max(worst.get(name, 0.0), value)
    return worst
