"""Polynomial bases, quadrature rules, mass matrices and L2 projection.

Basis functions are monomials scaled by the *background* cell: with center
(xc, yc) and mesh size h, the modes are ((x-xc)/h)^p ((y-yc)/h)^q for
p + q <= r.  Because the center and scale never depend on the cut geometry,
extending a cell's polynomial beyond the cell is literally evaluating the
same closed form elsewhere.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import CutDGError


def mode_exponents(degree):
    """(p, q) exponent pairs for total degree <= degree, in a fixed order."""
    exps = []
    for d in range(degree + 1):
        for p in range(d, -1, -1):
            exps.append((p, d - p))
    return np.array(exps, dtype=int)


def n_modes(degree):
    return (degree + 1) * (degree + 2) // 2


def monomial_values(exps, center, h, pts):
    """Values of the scaled monomials at pts, shape (npts, n_modes).

    ``center`` is one center (2,) or one per point (npts, 2).
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    center = np.asarray(center, dtype=float)
    X = (pts[:, 0] - center[..., 0]) / h
    Y = (pts[:, 1] - center[..., 1]) / h
    return X[:, None] ** exps[:, 0] * Y[:, None] ** exps[:, 1]


def monomial_gradients(exps, center, h, pts):
    """Gradients of the scaled monomials, shape (npts, n_modes, 2).

    ``center`` is one center (2,) or one per point (npts, 2).
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    center = np.asarray(center, dtype=float)
    X = (pts[:, 0] - center[..., 0]) / h
    Y = (pts[:, 1] - center[..., 1]) / h
    p = exps[:, 0]
    q = exps[:, 1]
    xp = X[:, None] ** np.maximum(p - 1, 0)
    yq = Y[:, None] ** np.maximum(q - 1, 0)
    gx = p / h * xp * Y[:, None] ** q
    gy = q / h * X[:, None] ** p * yq
    return np.stack([gx, gy], axis=-1)


@lru_cache(maxsize=None)
def _gauss_1d(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@lru_cache(maxsize=None)
def triangle_rule(degree):
    """Rule on the reference triangle (0,0),(1,0),(0,1), exact to ``degree``.

    Collapsed-coordinate (Duffy) mapping of a tensor Gauss rule; the Jacobian
    raises the first-direction degree by one, which the point count covers.
    """
    nu = (degree + 3) // 2
    nv = (degree + 2) // 2
    xu, wu = _gauss_1d(max(nu, 1))
    xv, wv = _gauss_1d(max(nv, 1))
    u = 0.5 * (xu + 1.0)
    v = 0.5 * (xv + 1.0)
    wu = 0.5 * wu
    wv = 0.5 * wv
    U, V = np.meshgrid(u, v, indexing="ij")
    WU, WV = np.meshgrid(wu, wv, indexing="ij")
    x = U
    y = V * (1.0 - U)
    w = WU * WV * (1.0 - U)
    pts = np.column_stack([x.ravel(), y.ravel()])
    return pts, w.ravel()


def polygon_quadrature(polygon, degree):
    """Quadrature on a convex polygon, exact for total degree <= ``degree``.

    Fan triangulation from the vertex mean (interior for convex polygons),
    each triangle integrated with the reference rule.
    """
    polygon = np.asarray(polygon, dtype=float)
    ref_pts, ref_w = triangle_rule(degree)
    c = polygon.mean(axis=0)
    pts = []
    wts = []
    nv = len(polygon)
    for k in range(nv):
        a = polygon[k]
        b = polygon[(k + 1) % nv]
        jac = (a[0] - c[0]) * (b[1] - c[1]) - (b[0] - c[0]) * (a[1] - c[1])
        mapped = c + ref_pts[:, :1] * (a - c) + ref_pts[:, 1:] * (b - c)
        pts.append(mapped)
        wts.append(ref_w * jac)
    return np.vstack(pts), np.concatenate(wts)


@lru_cache(maxsize=None)
def _square_rule(npts_1d):
    """Tensor Gauss rule on [-1/2, 1/2]^2 in scaled coordinates."""
    x, w = _gauss_1d(npts_1d)
    x = 0.5 * x
    w = 0.5 * w
    X, Y = np.meshgrid(x, x, indexing="ij")
    WX, WY = np.meshgrid(w, w, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel()]), (WX * WY).ravel()


def face_quadrature(p, q, npts):
    """Gauss-Legendre rule on the segment from p to q."""
    x, w = _gauss_1d(npts)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    t = 0.5 * (x + 1.0)
    pts = p[None, :] + t[:, None] * (q - p)[None, :]
    return pts, 0.5 * w * float(np.hypot(*(q - p)))


@dataclass
class DGFunction:
    """Piecewise polynomial: one (n_modes, m) coefficient block per cell."""

    coeffs: np.ndarray   # shape (num_cells, n_modes, m)
    degree: int

    @property
    def m(self):
        return self.coeffs.shape[2]

    def copy(self):
        return DGFunction(self.coeffs.copy(), self.degree)


def cho_solve_stacked(U, b):
    """Solve U^T U x = b for stacked upper factors U (n, k, k) and b (n, k, m).

    Forward and back substitution vectorized over the stack: 2k array steps
    whatever the number of systems.
    """
    k = U.shape[-1]
    diag = np.diagonal(U, axis1=1, axis2=2)[:, :, None]
    y = np.empty_like(b)
    for i in range(k):
        y[:, i] = (b[:, i] - np.einsum("nj,njm->nm", U[:, :i, i], y[:, :i])) / diag[:, i]
    x = np.empty_like(b)
    for i in range(k - 1, -1, -1):
        x[:, i] = (y[:, i] - np.einsum("nj,njm->nm", U[:, i, i + 1:], x[:, i + 1:])) / diag[:, i]
    return x


def mass_matrix(cell, basis):
    """Gram matrix of the scaled monomials over the cut cell (per component)."""
    pts, w = polygon_quadrature(cell.polygon, 2 * basis.degree + 2)
    phi = monomial_values(basis.exps, basis.center(cell.id), basis.h, pts)
    mat = phi.T @ (w[:, None] * phi)
    return 0.5 * (mat + mat.T)


class Basis:
    """Scaled monomial basis attached to a mesh's background cells."""

    def __init__(self, mesh, degree):
        if degree < 0:
            raise CutDGError("degree must be >= 0")
        self.mesh = mesh
        self.degree = degree
        self.exps = mode_exponents(degree)
        self.n_modes = len(self.exps)
        self.h = mesh.bg.h
        self.centers = mesh.cell_centers

    def center(self, cell_id):
        return self.centers[cell_id]

    def values(self, cell_id, pts):
        return monomial_values(self.exps, self.center(cell_id), self.h, pts)

    def gradients(self, cell_id, pts):
        return monomial_gradients(self.exps, self.center(cell_id), self.h, pts)


class Space:
    """Mesh + basis with cached quadrature rules and mass factorizations.

    Cells that coincide with their background cell share one reference rule,
    one basis-value table and one mass factorization; cut cells get per-cell
    rules built by fan triangulation.  The mass matrices of all cells are kept
    stacked, shape (num_cells, n_modes, n_modes).

    Every cell's quadrature points sit in one array ``quad_pts`` (weights
    ``quad_w``, owning cells ``quad_cells``): first the uncut cells, each
    with the reference rule's points, then the cut cells, both in ascending
    cell order.  ``cell_pts[cid]`` and ``cell_w[cid]`` are views into it.
    The face tables are stacked arrays indexed by face id: ``face_pts``
    (faces, npts, 2), ``face_w`` (faces, npts) and the left and right cells'
    basis values ``face_phi_left`` / ``face_phi_right`` (faces, npts,
    n_modes); the right table is zero on boundary faces.
    """

    def __init__(self, mesh, degree):
        self.mesh = mesh
        self.basis = Basis(mesh, degree)
        self.degree = degree
        self.n_modes = self.basis.n_modes
        h = mesh.bg.h
        exps = self.basis.exps
        centers = self.basis.centers
        quad_degree = 2 * degree + 2
        self.face_npts = degree + 2

        ncells = mesh.num_cells
        self.uncut = np.array(
            [abs(c.volume_fraction - 1.0) <= 1e-12 and len(c.polygon) == 4 for c in mesh.cells]
        )
        uncut_ids = np.flatnonzero(self.uncut)
        self.cut_ids = cut_ids = np.flatnonzero(~self.uncut)

        # reference (scaled-coordinate) data shared by all uncut cells
        ref_pts, ref_w = _square_rule(degree + 2)
        self._ref_phi = monomial_values(exps, (0.0, 0.0), 1.0, ref_pts)
        self._ref_grad = monomial_gradients(exps, (0.0, 0.0), 1.0, ref_pts) / h
        self._ref_w = ref_w * h * h
        ref_mass = self._ref_phi.T @ (self._ref_w[:, None] * self._ref_phi)
        ref_mass = 0.5 * (ref_mass + ref_mass.T)
        self._ref_cho = cho_factor(ref_mass)
        self._ref_mass = ref_mass

        # all cells' points in one array: the uncut cells' block, then the
        # cut cells' fan rules
        cut_rules = [polygon_quadrature(mesh.cells[cid].polygon, quad_degree) for cid in cut_ids]
        nq = len(ref_w)
        self._n_uncut_pts = n_uncut = len(uncut_ids) * nq
        cut_npts = [len(w) for _, w in cut_rules]
        bounds = n_uncut + np.concatenate([[0], np.cumsum(cut_npts, dtype=np.int64)])
        self._cut_starts = bounds[:-1] - n_uncut
        self.quad_pts = np.empty((bounds[-1], 2))
        self.quad_w = np.empty(bounds[-1])
        self.quad_cells = np.concatenate([np.repeat(uncut_ids, nq), np.repeat(cut_ids, cut_npts)])
        uncut_pts = self.quad_pts[:n_uncut].reshape(len(uncut_ids), nq, 2)
        uncut_pts[:] = centers[uncut_ids][:, None, :] + ref_pts * h
        self.quad_w[:n_uncut] = np.tile(self._ref_w, len(uncut_ids))

        self.cell_pts = [None] * ncells
        self.cell_w = [self._ref_w] * ncells
        self.cell_phi = [self._ref_phi] * ncells
        self.cell_grad = [self._ref_grad] * ncells
        for cid, pts in zip(uncut_ids.tolist(), uncut_pts):
            self.cell_pts[cid] = pts
        self.mass = np.empty((ncells, self.n_modes, self.n_modes))
        self.mass[uncut_ids] = ref_mass
        self.mode_integral = np.empty((ncells, self.n_modes))
        self.mode_integral[uncut_ids] = self._ref_w @ self._ref_phi
        cut_phi = [np.zeros((0, self.n_modes))]
        for i, cid in enumerate(cut_ids.tolist()):
            pts, w = cut_rules[i]
            lo, hi = bounds[i], bounds[i + 1]
            self.quad_pts[lo:hi] = pts
            self.quad_w[lo:hi] = w
            self.cell_pts[cid] = self.quad_pts[lo:hi]
            self.cell_w[cid] = self.quad_w[lo:hi]
            phi = monomial_values(exps, centers[cid], h, pts)
            self.cell_phi[cid] = phi
            self.cell_grad[cid] = monomial_gradients(exps, centers[cid], h, pts)
            mat = phi.T @ (w[:, None] * phi)
            self.mass[cid] = 0.5 * (mat + mat.T)
            self.mode_integral[cid] = w @ phi
            cut_phi.append(phi)
        self._cut_phi = np.concatenate(cut_phi)
        self._cho = {}
        self._cut_factors = None

        # face rules and trace tables, all faces at once
        x, w = _gauss_1d(self.face_npts)
        t = 0.5 * (x + 1.0)
        p, q = mesh.face_p, mesh.face_q
        span = q - p
        self.face_pts = p[:, None, :] + t[None, :, None] * span[:, None, :]
        self.face_w = (0.5 * w)[None, :] * np.hypot(span[:, 0], span[:, 1])[:, None]
        self.face_phi_left = self._trace(self.face_pts, mesh.face_left)
        self.face_phi_right = np.zeros_like(self.face_phi_left)
        internal = mesh.face_right >= 0
        self.face_phi_right[internal] = self._trace(
            self.face_pts[internal], mesh.face_right[internal]
        )

    def _trace(self, pts, cells):
        """Basis values of ``cells[f]`` at the points ``pts[f]``, stacked."""
        npts = pts.shape[1]
        vals = monomial_values(
            self.basis.exps, np.repeat(self.basis.centers[cells], npts, axis=0),
            self.basis.h, pts.reshape(-1, 2),
        )
        return vals.reshape(len(cells), npts, self.n_modes)

    # ------------------------------------------------------------------
    def zeros(self, m):
        return DGFunction(np.zeros((self.mesh.num_cells, self.n_modes, m)), self.degree)

    def evaluate(self, u, cell_id, pts):
        """Closed-form value of cell_id's polynomial block at arbitrary points."""
        if not 0 <= cell_id < self.mesh.num_cells:
            raise CutDGError(f"unknown cell id {cell_id}")
        single = np.asarray(pts).ndim == 1
        vals = self.basis.values(cell_id, pts) @ u.coeffs[cell_id]
        return vals[0] if single else vals

    def _factor(self, cell_id):
        # factorizations are built on first use: meshes may hold slivers whose
        # Gram matrix is numerically indefinite at high degree, and runs that
        # never mass-solve there (penalty assembly, re-centered projections)
        # must not be blocked by them
        if self.uncut[cell_id]:
            return self._ref_cho
        if cell_id not in self._cho:
            try:
                self._cho[cell_id] = cho_factor(self.mass[cell_id])
            except np.linalg.LinAlgError as exc:
                raise CutDGError(
                    f"mass matrix of cell {cell_id} is numerically singular"
                ) from exc
        return self._cho[cell_id]

    def cut_mass_factors(self):
        """Upper Cholesky factors U (M = U^T U) of every cut cell, stacked.

        Built on the first call, in ascending cell order, so a singular mass
        matrix is reported by the lowest such cell id.
        """
        if self._cut_factors is None:
            factors = np.empty((len(self.cut_ids), self.n_modes, self.n_modes))
            for i, cid in enumerate(self.cut_ids):
                factors[i] = self._factor(cid)[0]
            # cho_factor (upper by default) leaves the lower triangle unspecified
            self._cut_factors = np.triu(factors)
        return self._cut_factors

    def mass_solve(self, rhs):
        """Block-diagonal mass solve for every cell, rhs of shape (cells, n_modes, m).

        One solve with the reference factor for all cells, then the cut cells
        again with their stacked factors.
        """
        n, k, m = rhs.shape
        # right-hand sides as the columns of a Fortran-ordered (k, n m) array
        cols = np.ascontiguousarray(rhs.transpose(0, 2, 1)).reshape(n * m, k).T
        out = cho_solve(self._ref_cho, cols, check_finite=False)
        out = out.T.reshape(n, m, k).transpose(0, 2, 1)
        if len(self.cut_ids):
            out[self.cut_ids] = cho_solve_stacked(self.cut_mass_factors(), rhs[self.cut_ids])
        return out

    def _point_values(self, f, m):
        """f at ``quad_pts``, called once, as an (npts, m) array."""
        return np.asarray(f(self.quad_pts), dtype=float).reshape(len(self.quad_pts), m)

    def l2_project(self, f, m):
        """Cell-wise L2 projection of a pointwise function f(pts) -> (npts, m).

        ``f`` is called once, on ``quad_pts``: all cells' points in one array.
        """
        vals = self._point_values(f, m)
        n_uncut = self._n_uncut_pts
        rhs = np.empty((self.mesh.num_cells, self.n_modes, m))
        uncut_vals = vals[:n_uncut].reshape(-1, len(self._ref_w), m)
        rhs[self.uncut] = (self._ref_phi.T * self._ref_w) @ uncut_vals
        if len(self.cut_ids):
            wv = self.quad_w[n_uncut:, None] * vals[n_uncut:]
            rhs[self.cut_ids] = np.add.reduceat(
                self._cut_phi[:, :, None] * wv[:, None, :], self._cut_starts, axis=0
            )
        return DGFunction(self.mass_solve(rhs), self.degree)

    def l2_norm(self, u):
        c = u.coeffs
        total = float(np.vdot(c, self.mass @ c))
        return np.sqrt(max(total, 0.0))

    def l2_error(self, u, f):
        """L2(domain) distance between u and a pointwise function.

        ``f`` is called once, on ``quad_pts``.
        """
        m = u.coeffs.shape[2]
        n_uncut = self._n_uncut_pts
        vals = np.empty((len(self.quad_pts), m))
        vals[:n_uncut] = (self._ref_phi @ u.coeffs[self.uncut]).reshape(-1, m)
        vals[n_uncut:] = np.einsum(
            "qk,qkm->qm", self._cut_phi, u.coeffs[self.quad_cells[n_uncut:]]
        )
        diff = vals - self._point_values(f, m)
        total = float(self.quad_w @ np.sum(diff * diff, axis=1))
        return np.sqrt(max(total, 0.0))

    def total_mass(self, u):
        """Integral over the domain, one value per state component."""
        return np.einsum("ck,ckm->m", self.mode_integral, u.coeffs)

    def dofs(self, m):
        return self.mesh.num_cells * self.n_modes * m

