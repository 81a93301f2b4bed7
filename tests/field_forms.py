"""Reference oracle: the propagation forms on field objects, one triple at a time.

Each form evaluates its fields' ``values`` and ``gradients`` at the
quadrature points on every call.  The tests compare the array forms of
``cutdg.stabilization.CellForms`` against it.
"""

import numpy as np

from cutdg.errors import ConfigurationError
from cutdg.stabilization import surface_weights


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
                (space.face_pts[fid], space.face_w[fid], n_out, spec.A_n(n_out))
            )
        self.cell_pts = space.cell_pts[cell_id]
        self.cell_w = space.cell_w[cell_id]
        self.kappa = 2.0 / (self.K * (self.K - 1)) if self.K > 1 else 0.0

    def face_functional(self, k, U, V, W):
        pts, w, _, An = self.face_data[k]
        ubar = 0.5 * (U.values(pts) + V.values(pts))
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
        ubar = 0.5 * (U.values(pts) + V.values(pts))
        gw = W.gradients(pts)
        p_v = self.kappa * float(
            np.einsum("q,qm->", w, (ubar @ self.spec.A1.T) * gw[:, :, 0])
            + np.einsum("q,qm->", w, (ubar @ self.spec.A2.T) * gw[:, :, 1])
        )
        gu = 0.5 * (U.gradients(pts) + V.gradients(pts))
        div = gu[:, :, 0] @ self.spec.A1.T + gu[:, :, 1] @ self.spec.A2.T
        p_vs = self.kappa * float(np.einsum("q,qm->", w, div * W.values(pts)))
        return p_v, p_vs
