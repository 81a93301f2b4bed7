"""Reference oracle: extensions as field objects, and the propagation forms
on them, one triple at a time.

A field object exposes ``values(pts)`` and ``gradients(pts)``.  A cell's
polynomial is globally defined in the scaled monomial basis, so extending it
means evaluating the same block anywhere (:class:`CellPolyField`), and
mirroring it across a wall line samples its velocity at the foot point
(:class:`MirroredField`); :func:`unified_extend` picks the extension a face
pair of the pairwise penalty uses.  The tests compare the penalty's source
tables (``cutdg.stabilization.source_tables``) against these fields, and the
forms evaluated from the tables' Gram products against :class:`CellForms`,
which evaluates its fields at the quadrature points on every call.
"""

import numpy as np

from cutdg.errors import (
    ConfigurationError,
    CutDGError,
    UnsupportedConfigurationError,
    UnsupportedOperationError,
)
from cutdg.quadrature import monomial_gradients, monomial_values
from cutdg.stabilization import SPLIT, kappa, surface_weights


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
        u.coeffs[cell_id], space.centers[cell_id], space.h, space.exps
    )


def reflected_extend(u, space, cell_id, fid):
    """Extension from a cell composed with mirroring at the reflecting wall
    face ``fid``, across the line {x . n = n . p} of its normal n and start p."""
    mesh = space.mesh
    if mesh.face_right[fid] >= 0:
        raise CutDGError(f"face {fid} is internal; reflected extension needs a wall face")
    n = mesh.face_normal[fid]
    return MirroredField(extend(u, space, cell_id), n, n @ mesh.face_p[fid])


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
    wall_i, wall_j = space.mesh.face_right[[fid_i, fid_j]] < 0
    if source == "E":
        return extend(u, space, cell_id)
    if wall_i and wall_j:
        raise UnsupportedConfigurationError(
            f"cell {cell_id}: faces {fid_i} and {fid_j} are both boundary faces"
        )
    if source == "Ei":
        if not wall_i:
            return extend(u, space, space.mesh.neighbor(cell_id, fid_i))
        return reflected_extend(u, space, space.mesh.neighbor(cell_id, fid_j), fid_i)
    if source == "Ej":
        if not wall_j:
            return extend(u, space, space.mesh.neighbor(cell_id, fid_j))
        return reflected_extend(u, space, space.mesh.neighbor(cell_id, fid_i), fid_j)
    raise CutDGError(f"unknown extension source {source!r}")


class CombinedField:
    """Linear combination of fields (used for jump-style test arguments)."""

    def __init__(self, terms):
        self.terms = list(terms)

    @property
    def m(self):
        return self.terms[0][1].m

    def values(self, pts):
        out = None
        for coef, f in self.terms:
            v = coef * f.values(pts)
            out = v if out is None else out + v
        return out

    def gradients(self, pts):
        out = None
        for coef, f in self.terms:
            g = coef * f.gradients(pts)
            out = g if out is None else out + g
        return out


class CellForms:
    """Trilinear propagation forms of one cell, evaluated on field objects."""

    def __init__(self, space, spec, cell_id):
        self.space = space
        self.spec = spec
        self.cell = space.mesh.cells[cell_id]
        self.K = self.cell.num_faces
        self.face_data = []
        for fid in self.cell.face_ids:
            n_out = space.mesh.outward_normal(cell_id, fid)
            self.face_data.append(
                space.face_rule(fid) + (n_out, spec.A_n(n_out))
            )
        self.cell_pts, self.cell_w = (table[0] for table in space.cell_rules([cell_id])[:2])
        self.kappa = kappa(self.K) if self.K > 1 else 0.0

    def face_functional(self, k, U, V, W):
        pts, w, _, An = self.face_data[k]
        ubar = SPLIT * (U.values(pts) + V.values(pts))
        return float(np.einsum("q,qm->", w, (ubar @ An.T) * W.values(pts)))

    def surface(self, i, j, U, V, W):
        """p_ij: skew redistribution of the face functionals."""
        if i == j:
            raise ConfigurationError("surface form requires two distinct face indices")
        c = surface_weights(self.K, i, j)
        return sum(c[k] * self.face_functional(k, U, V, W) for k in range(self.K))

    def volume(self, U, V, W):
        """(p_V, p_V*): flux against grad W, and flux divergence against W."""
        pts, w = self.cell_pts, self.cell_w
        ubar = SPLIT * (U.values(pts) + V.values(pts))
        gw = W.gradients(pts)
        p_v = self.kappa * float(
            np.einsum("q,qm->", w, (ubar @ self.spec.A1.T) * gw[:, :, 0])
            + np.einsum("q,qm->", w, (ubar @ self.spec.A2.T) * gw[:, :, 1])
        )
        gu = SPLIT * (U.gradients(pts) + V.gradients(pts))
        div = gu[:, :, 0] @ self.spec.A1.T + gu[:, :, 1] @ self.spec.A2.T
        p_vs = self.kappa * float(np.einsum("q,qm->", w, div * W.values(pts)))
        return p_v, p_vs
