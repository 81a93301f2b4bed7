"""Shared helpers for the test suite."""

from collections import namedtuple
from pathlib import Path

import numpy as np

from cutdg.dg import face_matrices
from cutdg.geometry import BackgroundMesh, build_mesh, halfplane_from_line
from cutdg.quadrature import monomial_values
from cutdg.stabilization import _wave_layout, source_tables, vector_parts


def ramp_mesh(nx=8, ny=8, slope=0.75, offset=None, box=(0.0, 0.0, 1.0, 1.0)):
    """Unit-box mesh cut by a single line, kept side above."""
    if offset is None:
        offset = 1.3 / nx
    return build_mesh(BackgroundMesh(*box, nx, ny), [halfplane_from_line(slope, offset)])


def generic_cuts():
    """The fixed corpus of straight cuts, (s, o) per line y = s x + o, (202, 2)."""
    return np.loadtxt(Path(__file__).with_name("generic_cuts.csv"), delimiter=",")


def uncut_mesh(nx=2, ny=2, box=(0.0, 0.0, 1.0, 1.0)):
    return build_mesh(BackgroundMesh(*box, nx, ny), [])


def face_kinds(mesh, fids):
    """The kind of each face of ``fids``: "boundary" or "internal"."""
    return ["boundary" if right < 0 else "internal" for right in mesh.face_right[fids].tolist()]


def evaluate(space, u, cell_id, pts):
    """Cell ``cell_id``'s polynomial block of ``u`` at ``pts``, one point (2,)
    or several (n, 2), in closed form."""
    vals = monomial_values(space.exps, space.centers[cell_id], space.h, pts) @ u.coeffs[cell_id]
    return vals[0] if np.ndim(pts) == 1 else vals


def polygon_monomial_integral(poly, p, q):
    """Exact integral of x^p y^q over a polygon via edge integrals (sympy).

    Independent of the fan-triangulation quadrature: Green's theorem reduces
    the area integral to a sum of univariate polynomial edge integrals.
    """
    import sympy as sp

    t = sp.Symbol("t")
    total = sp.Integer(0)
    n = len(poly)
    for k in range(n):
        x0, y0 = (sp.Float(v, 30) for v in poly[k])
        x1, y1 = (sp.Float(v, 30) for v in poly[(k + 1) % n])
        X = x0 + (x1 - x0) * t
        Y = y0 + (y1 - y0) * t
        total += sp.integrate(X ** (p + 1) / (p + 1) * Y**q * (y1 - y0), (t, 0, 1))
    return float(total)


def face_matrix_on(space, spec, fid, cells, central=True, dissipative=True):
    """The base form's face matrix of face ``fid`` (``dg.face_matrices``) on
    the dofs of ``cells``, zero elsewhere."""
    mesh = space.mesh
    km = space.n_modes * spec.m
    A = face_matrices(space, spec, [fid], central, dissipative)[0]
    face_cells = [C for C in (mesh.face_left[fid], mesh.face_right[fid]) if C >= 0]
    idx = np.concatenate([cells.index(C) * km + np.arange(km) for C in face_cells])
    out = np.zeros((len(cells) * km, len(cells) * km))
    out[np.ix_(idx, idx)] = A[:len(idx), :len(idx)]
    return out


def source_values(space, cid, coeffs):
    """The pairwise penalty's extension sources of cell ``cid``, evaluated
    from its source tables (``stabilization.source_tables``) contracted with
    their vector parts, for the coefficients ``coeffs`` (cells, modes, 3).

    Returns (sources, n, values, gradients): the source cells (S,), of which
    the first n are plain and the rest mirrored across the cell's wall; each
    source's values at the cell's face points, face by face, then its cell
    points (S, P, 3); and its gradients at the cell points (S, nc, 3, 2).
    """
    cells, sources, pattern = _wave_layout(space.mesh, cid)
    n = len(cells)
    tables = source_tables(space, [cid], [sources], pattern[1], n)
    plain, mirror = vector_parts(tables)[0]
    phi = np.concatenate([
        np.moveaxis(tables.face_phi[0], 1, 0).reshape(len(sources), -1, space.n_modes),
        tables.cell_phi[0],
    ], axis=1)
    U = coeffs[sources]
    values = phi @ U @ plain
    grads = np.einsum("sqkd,skm,im->sqid", tables.cell_grad[0], U, plain)
    # a mirrored source: its cell's plain table plus its own table times -2 N
    own = [cells.index(C) for C in sources[n:]]
    values[n:] = values[own] + values[n:] @ mirror
    grads[n:] = grads[own] + np.einsum("im,sqmd->sqid", mirror, grads[n:])
    return sources, n, values, grads


def mixed_stabilized_set(mesh, small):
    """The ramp's small cells plus, none sharing a face with another chosen
    cell: an uncut interior cell, an uncut box-wall cell that is no corner,
    and a cut quadrilateral or pentagon on the ramp."""
    def walls(c):
        return int((mesh.face_right[c.face_ids] < 0).sum())

    def neighbors(cid):
        return {mesh.neighbor(cid, f) for f in mesh.cells[cid].face_ids} - {None}

    kinds = [
        lambda c: c.volume_fraction == 1.0 and walls(c) == 0,
        lambda c: c.volume_fraction == 1.0 and walls(c) == 1,
        lambda c: c.volume_fraction < 1.0 and c.num_faces in (4, 5) and walls(c) == 1,
    ]
    chosen = list(small)
    for kind in kinds:
        taken = set(chosen).union(*(neighbors(c) for c in chosen))
        chosen.append(next(c.id for c in mesh.cells if kind(c) and c.id not in taken))
    return chosen


PenaltyCell = namedtuple("PenaltyCell", "cells eta parts local")


def penalty_cells(stab):
    """The penalty's groups read back per stabilized cell, {cell id:
    PenaltyCell} in ascending id order: the neighborhood as a list, eta,
    the named matrices by name and the local matrix."""
    cells = {}
    for g in stab.groups:
        for b, cid in enumerate(g.cell_ids.tolist()):
            parts = {name: part[b] for name, part in g.parts.items()}
            cells[cid] = PenaltyCell(g.cells[b].tolist(), g.eta[b], parts, g.local[b])
    return dict(sorted(cells.items()))


def penalty_residuals(stab, u):
    """Each group's cells' penalty applied to ``u``, (B, n, n_modes, m)
    per group: cell b's blocks on its neighborhood's cells."""
    return [(g.local @ u.coeffs[g.cells].reshape(len(g.cells), -1, 1)).reshape(
        g.cells.shape + u.coeffs.shape[1:]) for g in stab.groups]
