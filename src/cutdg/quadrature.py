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
    """Values of the scaled monomials at pts, shape (npts, n_modes)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    X = (pts[:, 0] - center[0]) / h
    Y = (pts[:, 1] - center[1]) / h
    return X[:, None] ** exps[:, 0] * Y[:, None] ** exps[:, 1]


def monomial_gradients(exps, center, h, pts):
    """Gradients of the scaled monomials, shape (npts, n_modes, 2)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    X = (pts[:, 0] - center[0]) / h
    Y = (pts[:, 1] - center[1]) / h
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


def cell_quadrature(cell, degree):
    """Quadrature rule for a cut cell, exact for polynomials of ``degree``."""
    return polygon_quadrature(cell.polygon, degree)


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
    phi = monomial_values(basis.exps, basis.center_of(cell), basis.h, pts)
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

    def center_of(self, cell):
        return self.mesh.bg.cell_center(*cell.ij)

    def center(self, cell_id):
        return self.mesh.cell_center(cell_id)

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
    """

    def __init__(self, mesh, degree):
        self.mesh = mesh
        self.basis = Basis(mesh, degree)
        self.degree = degree
        self.n_modes = self.basis.n_modes
        h = mesh.bg.h
        quad_degree = 2 * degree + 2
        self.face_npts = degree + 2

        ncells = mesh.num_cells
        self.uncut = np.array(
            [abs(c.volume_fraction - 1.0) <= 1e-12 and len(c.polygon) == 4 for c in mesh.cells]
        )

        # reference (scaled-coordinate) data shared by all uncut cells
        ref_pts, ref_w = _square_rule(degree + 2)
        exps = self.basis.exps
        self._ref_phi = monomial_values(exps, (0.0, 0.0), 1.0, ref_pts)
        self._ref_grad = monomial_gradients(exps, (0.0, 0.0), 1.0, ref_pts) / h
        self._ref_w = ref_w * h * h
        ref_mass = self._ref_phi.T @ (self._ref_w[:, None] * self._ref_phi)
        ref_mass = 0.5 * (ref_mass + ref_mass.T)
        self._ref_cho = cho_factor(ref_mass)
        self._ref_mass = ref_mass

        self.cell_pts = [None] * ncells
        self.cell_w = [None] * ncells
        self.cell_phi = [None] * ncells
        self.cell_grad = [None] * ncells
        self.mass = np.empty((ncells, self.n_modes, self.n_modes))
        self._cho = [None] * ncells
        self._cut_factors = None
        self.mode_integral = np.zeros((ncells, self.n_modes))

        for cell in mesh.cells:
            cid = cell.id
            center = self.basis.center(cid)
            if self.uncut[cid]:
                self.cell_pts[cid] = center[None, :] + ref_pts * h
                self.cell_w[cid] = self._ref_w
                self.cell_phi[cid] = self._ref_phi
                self.cell_grad[cid] = self._ref_grad
                self.mass[cid] = ref_mass
                self._cho[cid] = self._ref_cho
            else:
                pts, w = polygon_quadrature(cell.polygon, quad_degree)
                phi = monomial_values(exps, center, h, pts)
                grad = monomial_gradients(exps, center, h, pts)
                mat = phi.T @ (w[:, None] * phi)
                mat = 0.5 * (mat + mat.T)
                self.cell_pts[cid] = pts
                self.cell_w[cid] = w
                self.cell_phi[cid] = phi
                self.cell_grad[cid] = grad
                self.mass[cid] = mat
            self.mode_integral[cid] = self.cell_w[cid] @ self.cell_phi[cid]

        # face rules and trace tables
        nfaces = len(mesh.faces)
        self.face_pts = [None] * nfaces
        self.face_w = [None] * nfaces
        self.face_phi_left = [None] * nfaces
        self.face_phi_right = [None] * nfaces
        for face in mesh.faces:
            pts, w = face_quadrature(face.p, face.q, self.face_npts)
            self.face_pts[face.id] = pts
            self.face_w[face.id] = w
            self.face_phi_left[face.id] = self.basis.values(face.left_cell, pts)
            if face.right_cell is not None:
                self.face_phi_right[face.id] = self.basis.values(face.right_cell, pts)

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
        if self._cho[cell_id] is None:
            try:
                self._cho[cell_id] = cho_factor(self.mass[cell_id])
            except np.linalg.LinAlgError as exc:
                raise CutDGError(
                    f"mass matrix of cell {cell_id} is numerically singular"
                ) from exc
        return self._cho[cell_id]

    def solve_mass(self, cell_id, rhs):
        # non-finite input may occur in intentionally unstable runs; the
        # integrator detects it at the step boundary
        return cho_solve(self._factor(cell_id), rhs, check_finite=False)

    def cut_mass_factors(self):
        """Upper Cholesky factors U (M = U^T U) of every cut cell, stacked.

        Built on the first call, in ascending cell order, so a singular mass
        matrix is reported by the lowest such cell id.
        """
        if self._cut_factors is None:
            cut = np.where(~self.uncut)[0]
            factors = np.empty((len(cut), self.n_modes, self.n_modes))
            for i, cid in enumerate(cut):
                factors[i] = self._factor(cid)[0]
            # cho_factor (upper by default) leaves the lower triangle unspecified
            self._cut_factors = np.triu(factors)
        return self._cut_factors

    def l2_project(self, f, m):
        """Cell-wise L2 projection of a pointwise function f(pts) -> (npts, m)."""
        u = self.zeros(m)
        for cell in self.mesh.cells:
            cid = cell.id
            vals = np.asarray(f(self.cell_pts[cid]), dtype=float).reshape(-1, m)
            rhs = self.cell_phi[cid].T @ (self.cell_w[cid][:, None] * vals)
            u.coeffs[cid] = self.solve_mass(cid, rhs)
        return u

    def l2_norm(self, u):
        c = u.coeffs
        total = float(np.vdot(c, self.mass @ c))
        return np.sqrt(max(total, 0.0))

    def l2_error(self, u, f):
        """L2(domain) distance between u and a pointwise function."""
        total = 0.0
        for cid in range(self.mesh.num_cells):
            vals = self.cell_phi[cid] @ u.coeffs[cid]
            exact = np.asarray(f(self.cell_pts[cid]), dtype=float).reshape(vals.shape)
            diff = vals - exact
            total += float(self.cell_w[cid] @ np.sum(diff * diff, axis=1))
        return np.sqrt(max(total, 0.0))

    def total_mass(self, u):
        """Integral over the domain, one value per state component."""
        return np.einsum("ck,ckm->m", self.mode_integral, u.coeffs)

    def dofs(self, m):
        return self.mesh.num_cells * self.n_modes * m


def l2_project(f, mesh, basis, m=1):
    """Standalone projection (builds rules on the fly); see Space.l2_project."""
    u = DGFunction(np.zeros((mesh.num_cells, basis.n_modes, m)), basis.degree)
    for cell in mesh.cells:
        pts, w = polygon_quadrature(cell.polygon, 2 * basis.degree + 2)
        phi = monomial_values(basis.exps, basis.center(cell.id), basis.h, pts)
        vals = np.asarray(f(pts), dtype=float).reshape(-1, m)
        mat = phi.T @ (w[:, None] * phi)
        rhs = phi.T @ (w[:, None] * vals)
        u.coeffs[cell.id] = np.linalg.solve(0.5 * (mat + mat.T), rhs)
    return u


def evaluate(u, mesh, basis, cell_id, pts):
    if not 0 <= cell_id < mesh.num_cells:
        raise CutDGError(f"unknown cell id {cell_id}")
    single = np.asarray(pts).ndim == 1
    vals = basis.values(cell_id, pts) @ u.coeffs[cell_id]
    return vals[0] if single else vals
