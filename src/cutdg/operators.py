"""Extension and mirroring operators.

Extensions are never materialized as new coefficient blocks: a cell's
polynomial is globally defined in the scaled monomial basis, so extending it
means evaluating the same block anywhere.  All operators here return small
field objects exposing ``values(pts)`` and ``gradients(pts)``.
"""

import numpy as np

from .errors import CutDGError, UnsupportedConfigurationError, UnsupportedOperationError
from .quadrature import monomial_gradients, monomial_values


def mirror_state(u, n):
    """Reflect the velocity of acoustic states (p, v1, v2) across a wall normal.

    Tangential velocity and pressure are untouched; works on single states or
    arrays of states along the leading axes, with one normal or normals
    (..., 2) that broadcast against those axes.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[-1] != 3:
        raise UnsupportedOperationError("mirroring is defined for 3-component acoustic states")
    n = np.asarray(n, dtype=float)
    out = u.copy()
    vn = u[..., 1] * n[..., 0] + u[..., 2] * n[..., 1]
    out[..., 1] -= 2.0 * vn * n[..., 0]
    out[..., 2] -= 2.0 * vn * n[..., 1]
    return out


class CellPolyField:
    """Globally evaluated polynomial backed by one cell's coefficient block."""

    def __init__(self, coeffs, center, h, exps):
        self.coeffs = coeffs
        self.center = np.asarray(center, dtype=float)
        self.h = h
        self.exps = exps

    @property
    def m(self):
        return self.coeffs.shape[1]

    def values(self, pts):
        return monomial_values(self.exps, self.center, self.h, pts) @ self.coeffs

    def gradients(self, pts):
        grads = monomial_gradients(self.exps, self.center, self.h, pts)
        return np.einsum("qkd,km->qmd", grads, self.coeffs)


class MirroredField:
    """Velocity-mirrored polynomial across the line {x . n = d}.

    The velocity argument is sampled at the foot point on the line, which is
    affine in x, so the result is again a polynomial of the same degree.
    """

    def __init__(self, base, n, d):
        if base.m != 3:
            raise UnsupportedOperationError("mirroring is defined for 3-component fields")
        self.base = base
        self.n = np.asarray(n, dtype=float)
        self.d = float(d)

    @property
    def m(self):
        return 3

    def _foot(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        s = pts @ self.n - self.d
        return pts - s[:, None] * self.n[None, :]

    def values(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        vals = self.base.values(pts).copy()
        vperp = self.base.values(self._foot(pts))[:, 1:]
        vn = vperp @ self.n
        vals[:, 1] -= 2.0 * vn * self.n[0]
        vals[:, 2] -= 2.0 * vn * self.n[1]
        return vals

    def gradients(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        grads = self.base.gradients(pts).copy()
        gperp = self.base.gradients(self._foot(pts))[:, 1:, :]
        n = self.n
        # d/dx of v(foot(x)).n: chain rule with d foot/dx = I - n n^T
        gn = np.einsum("qvd,v->qd", gperp, n)
        gn_tan = gn - np.outer(gn @ n, n)
        grads[:, 1, :] -= 2.0 * n[0] * gn_tan
        grads[:, 2, :] -= 2.0 * n[1] * gn_tan
        return grads


def extend(u, space, cell_id):
    """Global polynomial equal to u's restriction on the given cell."""
    if not 0 <= cell_id < space.mesh.num_cells:
        raise CutDGError(f"unknown cell id {cell_id}")
    return CellPolyField(
        u.coeffs[cell_id], space.basis.center(cell_id), space.basis.h, space.basis.exps
    )


def mirror_polynomial(field, face):
    """Generalized mirroring of a polynomial field across a straight face."""
    return MirroredField(field, face.normal, face.line_offset)


def reflected_extend(u, space, cell_id, face):
    """Extension from a cell composed with mirroring at a reflecting wall face."""
    if face.kind != "boundary":
        raise CutDGError(f"face {face.id} is internal; reflected extension needs a wall face")
    return mirror_polynomial(extend(u, space, cell_id), face)


def unified_extend(u, space, cell_id, i, j, source):
    """Extension used by pairwise stabilization between faces i and j of a cell.

    ``i`` and ``j`` are positions into the cell's face list; ``source`` is one
    of "E", "Ei", "Ej".  A wall face has no physical neighbor: its virtual
    neighbor is realized by extending from the other face's neighbor and
    mirroring across the wall.  Configurations where both faces are walls are
    rejected.
    """
    face_ids = space.mesh.cell_faces(cell_id).tolist()
    if i == j:
        raise CutDGError("face pair requires two distinct faces")
    fid_i = face_ids[i]
    fid_j = face_ids[j]
    face_i = space.mesh.faces[fid_i]
    face_j = space.mesh.faces[fid_j]
    if source == "E":
        return extend(u, space, cell_id)
    if face_i.kind == "boundary" and face_j.kind == "boundary":
        raise UnsupportedConfigurationError(
            f"cell {cell_id}: faces {fid_i} and {fid_j} are both boundary faces"
        )
    if source == "Ei":
        if face_i.kind == "internal":
            return extend(u, space, space.mesh.neighbor(cell_id, fid_i))
        return reflected_extend(u, space, space.mesh.neighbor(cell_id, fid_j), face_i)
    if source == "Ej":
        if face_j.kind == "internal":
            return extend(u, space, space.mesh.neighbor(cell_id, fid_j))
        return reflected_extend(u, space, space.mesh.neighbor(cell_id, fid_i), face_j)
    raise CutDGError(f"unknown extension source {source!r}")
