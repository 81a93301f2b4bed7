"""Polynomial basis, quadrature rules, mass matrices and L2 projection.

Basis functions are monomials scaled by the *background* cell: with center
(xc, yc) and mesh size h, the modes are ((x-xc)/h)^p ((y-yc)/h)^q for
p + q <= r.  Because the center and scale never depend on the cut geometry,
extending a cell's polynomial beyond the cell is literally evaluating the
same closed form elsewhere.  :class:`Space` holds the basis, every cell's
rule in one flat layout and the stacked masses, and builds face rules on
request.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import ConfigurationError, SingularMassError


def mode_exponents(degree):
    """(p, q) exponent pairs for total degree <= degree, in a fixed order."""
    exps = []
    for d in range(degree + 1):
        for p in range(d, -1, -1):
            exps.append((p, d - p))
    return np.array(exps, dtype=int)


def n_modes(degree):
    return (degree + 1) * (degree + 2) // 2


def _scaled_powers(exps, center, h, pts):
    """Powers of the scaled coordinates (pts - center) / h, one C-ordered
    table per coordinate, each (max exponent + 1, npts): row j holds the
    j-th power at every point.

    Each power is taken once per point and shared by every mode using it.
    No ``pow`` is used at all: row 0 is 1, row 1 the scaled coordinate, and
    row j is row j-1 times row 1.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    center = np.asarray(center, dtype=float)
    P = np.empty((2, int(exps.max()) + 1, len(pts)))
    P[:, 0] = 1.0
    if P.shape[1] > 1:
        np.subtract(pts.T, center.T.reshape(2, -1), out=P[:, 1])
        P[:, 1] /= h
    for j in range(2, P.shape[1]):
        np.multiply(P[:, j - 1], P[:, 1], out=P[:, j])
    return P[0], P[1]


def _values(exps, Xp, Yp):
    """(npts, n_modes) mode values, C-ordered: the layout fixes the BLAS
    summation order of the products built from them (the stacked cut-cell
    masses).  Each mode's column is one product of two power rows, written
    in place, so no gathered temporary is made."""
    out = np.empty((Xp.shape[1], len(exps)))
    for i, (p, q) in enumerate(exps.tolist()):
        np.multiply(Xp[p], Yp[q], out=out[:, i])
    return out


def _gradients(exps, h, Xp, Yp):
    """(npts, n_modes, 2) mode gradients, C-ordered, each entry
    (p/h x^(p-1)) y^q or (q/h x^p) y^(q-1)."""
    out = np.empty((Xp.shape[1], len(exps), 2))
    for i, (p, q) in enumerate(exps.tolist()):
        np.multiply(p / h * Xp[max(p - 1, 0)], Yp[q], out=out[:, i, 0])
        np.multiply(q / h * Xp[p], Yp[max(q - 1, 0)], out=out[:, i, 1])
    return out


def monomial_values(exps, center, h, pts):
    """Values of the scaled monomials at pts, shape (npts, n_modes).

    ``center`` is one center (2,) or one per point (npts, 2).
    """
    return _values(exps, *_scaled_powers(exps, center, h, pts))


def monomial_gradients(exps, center, h, pts):
    """Gradients of the scaled monomials, shape (npts, n_modes, 2).

    ``center`` is one center (2,) or one per point (npts, 2).
    """
    return _gradients(exps, h, *_scaled_powers(exps, center, h, pts))


def monomial_tables(exps, center, h, pts, grad_rows=slice(None)):
    """(values at ``pts``, gradients at ``pts[grad_rows]``) from one set of
    coordinate powers, equal to :func:`monomial_values` and
    :func:`monomial_gradients` on those points."""
    Xp, Yp = _scaled_powers(exps, center, h, pts)
    return _values(exps, Xp, Yp), _gradients(exps, h, Xp[:, grad_rows], Yp[:, grad_rows])


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


def fan_rules(polygons, degree):
    """The rules of :func:`polygon_quadrature` on stacked convex polygons of
    one vertex count n, (B, n, 2): points (B, n nq, 2) and weights (B, n nq),
    nq per fan triangle, with the same points in the same order."""
    tri_pts, tri_w = triangle_rule(degree)
    c = polygons.mean(axis=1)[:, None, :]
    a, b = polygons - c, np.roll(polygons, -1, axis=1) - c
    jac = a[..., 0] * b[..., 1] - b[..., 0] * a[..., 1]
    mapped = c[:, :, None] + tri_pts[:, :1] * a[:, :, None] + tri_pts[:, 1:] * b[:, :, None]
    return mapped.reshape(len(polygons), -1, 2), (tri_w * jac[..., None]).reshape(len(polygons), -1)


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
    """Gauss-Legendre rule on the segment from p to q, or on each of stacked
    segments (p, q of shape (..., 2)): points (..., npts, 2) and weights
    (..., npts)."""
    x, w = _gauss_1d(npts)
    p = np.asarray(p, dtype=float)
    d = np.asarray(q, dtype=float) - p
    t = 0.5 * (x + 1.0)
    pts = p[..., None, :] + t[:, None] * d[..., None, :]
    return pts, 0.5 * w * np.hypot(d[..., 0], d[..., 1])[..., None]


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


class Space:
    """The scaled monomial basis on a mesh (exponents ``exps``, background
    cell ``centers``, mesh size ``h``), its quadrature rules and masses.

    Cells that coincide with their background cell share one reference rule,
    one basis-value table and one mass factorization; cut cells get their
    own rules, by fan triangulation from the vertex mean (the rule of
    :func:`polygon_quadrature`, same points in the same order).  The cut
    cells' rules, masses and mode integrals are built from the mesh's flat
    vertex arrays per group of cells with one vertex count, and their basis
    values and gradients in one call each over all their points.  The mass
    matrices of all cells are kept stacked, shape (num_cells, n_modes,
    n_modes).

    Every cell's quadrature points sit in one array ``quad_pts`` (weights
    ``quad_w``, owning cells ``quad_cells``): first the uncut cells, each
    with the reference rule's points, then the cut cells, both in ascending
    cell order; cell c's rule is its ``rule_size[c]`` rows from
    ``rule_start[c]`` on (:meth:`cell_rules`).  Face rules and basis traces
    are built for the faces a caller asks for (:meth:`face_rule`,
    :meth:`face_traces`).
    """

    def __init__(self, mesh, degree):
        if degree < 0:
            raise ConfigurationError("degree must be >= 0")
        self.mesh = mesh
        self.degree = degree
        self.exps = exps = mode_exponents(degree)
        self.n_modes = len(exps)
        self.h = h = mesh.bg.h
        self.centers = centers = mesh.cell_centers
        quad_degree = 2 * degree + 2
        self.face_npts = degree + 2

        ncells = mesh.num_cells
        nv = np.diff(mesh.cell_offsets)
        self.uncut = (np.abs(mesh.cell_volume_fraction - 1.0) <= 1e-12) & (nv == 4)
        uncut_ids = np.flatnonzero(self.uncut)
        self.cut_ids = cut_ids = np.flatnonzero(~self.uncut)

        # reference (scaled-coordinate) data shared by all uncut cells
        ref_pts, ref_w = _square_rule(degree + 2)
        self._ref_phi, ref_grad = monomial_tables(exps, (0.0, 0.0), 1.0, ref_pts)
        self._ref_grad = ref_grad / h
        self._ref_w = ref_w * h * h
        ref_mass = self._ref_phi.T @ (self._ref_w[:, None] * self._ref_phi)
        ref_mass = 0.5 * (ref_mass + ref_mass.T)
        self._ref_mass = ref_mass
        self._ref_inv = cho_solve(cho_factor(ref_mass), np.eye(self.n_modes))
        self._ref_mass_kron = {}

        # all cells' points in one array: the uncut cells' block, then the
        # cut cells' fan rules, nq_tri points per vertex
        nq, nq_tri = len(ref_w), len(triangle_rule(quad_degree)[1])
        self._n_uncut_pts = n_uncut = len(uncut_ids) * nq
        cut_nv = nv[cut_ids]
        bounds = n_uncut + np.concatenate([[0], np.cumsum(cut_nv * nq_tri)])
        self.rule_start = np.empty(ncells, dtype=np.int64)
        self.rule_start[uncut_ids] = np.arange(len(uncut_ids)) * nq
        self.rule_start[cut_ids] = bounds[:-1]
        self.rule_size = np.where(self.uncut, nq, nv * nq_tri)
        self.quad_pts = np.empty((bounds[-1], 2))
        self.quad_w = np.empty(bounds[-1])
        self.quad_cells = np.concatenate(
            [np.repeat(uncut_ids, nq), np.repeat(cut_ids, cut_nv * nq_tri)]
        )
        uncut_pts = self.quad_pts[:n_uncut].reshape(len(uncut_ids), nq, 2)
        uncut_pts[:] = centers[uncut_ids][:, None, :] + ref_pts * h
        self.quad_w[:n_uncut] = np.tile(self._ref_w, len(uncut_ids))

        # the cut cells' fan rules (fan_rules), tables, masses
        # and mode integrals, one group of equal vertex count at a time
        cut_pts, cut_w = self.quad_pts[n_uncut:], self.quad_w[n_uncut:]
        groups = []   # (cut-cell positions, their point rows (cells, n nq_tri))
        for n in np.unique(cut_nv).tolist():
            g = np.flatnonzero(cut_nv == n)
            rows = bounds[g][:, None] - n_uncut + np.arange(n * nq_tri)
            groups.append((g, rows))
            poly = mesh.cell_vertices[mesh.cell_offsets[cut_ids[g]][:, None] + np.arange(n)]
            cut_pts[rows], cut_w[rows] = fan_rules(poly, quad_degree)
        self._cut_phi, self._cut_grad = monomial_tables(exps, centers[self.quad_cells[n_uncut:]], h, cut_pts)
        self.mass = np.empty((ncells, self.n_modes, self.n_modes))
        self.mass[uncut_ids] = ref_mass
        self.mode_integral = np.empty((ncells, self.n_modes))
        self.mode_integral[uncut_ids] = self._ref_w @ self._ref_phi
        for g, rows in groups:
            phi, w = self._cut_phi[rows], cut_w[rows]
            mat = np.swapaxes(phi, 1, 2) @ (w[..., None] * phi)
            self.mass[cut_ids[g]] = 0.5 * (mat + np.swapaxes(mat, 1, 2))
            self.mode_integral[cut_ids[g]] = (w[:, None, :] @ phi)[:, 0]
        self._cut_mass = self.mass[cut_ids]
        self._cut_factors = None

    def cell_rules(self, cids):
        """(points, weights, basis values, basis gradients) of cells ``cids``
        of one rule size, stacked: (C, n, 2), (C, n), (C, n, n_modes) and
        (C, n, n_modes, 2).

        Uncut cells broadcast the shared reference tables (read-only views);
        cut cells' are gathered from the cut cells' tables."""
        cids = np.asarray(cids, dtype=np.int64)
        rows = self.rule_start[cids][:, None] + np.arange(self.rule_size[cids[0]])
        pts = self.quad_pts[rows]
        if self.uncut[cids[0]]:   # nq points; a cut cell's rule has 3 nq or more
            return (pts,) + tuple(np.broadcast_to(t, (len(cids),) + t.shape)
                                  for t in (self._ref_w, self._ref_phi, self._ref_grad))
        cut_rows = rows - self._n_uncut_pts
        return pts, self.quad_w[rows], self._cut_phi[cut_rows], self._cut_grad[cut_rows]

    def face_rule(self, fids):
        """Gauss-Legendre points and weights of faces ``fids`` (any shape),
        (..., face_npts, 2) and (..., face_npts): the rule of
        :func:`face_quadrature` on each face."""
        x, w = _gauss_1d(self.face_npts)
        t = 0.5 * (x + 1.0)
        p = self.mesh.face_p.take(fids, axis=0)
        span = self.mesh.face_q.take(fids, axis=0) - p
        pts = p[..., None, :] + t[:, None] * span[..., None, :]
        return pts, (0.5 * w) * np.hypot(span[..., 0], span[..., 1])[..., None]

    def face_traces(self, fids):
        """Left and right cells' basis values at the points of faces ``fids``,
        each (faces, npts, n_modes), and the weights (faces, npts) of the
        rule they were evaluated on; the right trace is zero on walls."""
        (pts, w), right = self.face_rule(fids), self.mesh.face_right[fids]
        cells = np.concatenate([self.mesh.face_left[fids], np.maximum(right, 0)])
        centers = np.repeat(self.centers[cells], pts.shape[1], axis=0)
        vals = monomial_values(self.exps, centers, self.h, np.concatenate([pts, pts]).reshape(-1, 2))
        phi_left, phi_right = vals.reshape((2,) + pts.shape[:2] + (self.n_modes,))
        phi_right[right < 0] = 0.0
        return phi_left, phi_right, w

    # ------------------------------------------------------------------
    def zeros(self, m):
        return DGFunction(np.zeros((self.mesh.num_cells, self.n_modes, m)), self.degree)

    def cut_mass_factors(self):
        """Upper Cholesky factors U (M = U^T U) of every cut cell, stacked.

        Built on the first call, in one batched factorization: meshes may hold
        slivers whose Gram matrix is numerically indefinite at high degree,
        and runs that never mass-solve there (penalty assembly, re-centered
        projections) must not be blocked by them.  A singular mass matrix is
        reported by the lowest such cell id.
        """
        if self._cut_factors is None:
            try:
                self._cut_factors = np.linalg.cholesky(self.mass[self.cut_ids], upper=True)
            except np.linalg.LinAlgError as exc:
                for cid in self.cut_ids.tolist():
                    try:
                        np.linalg.cholesky(self.mass[cid], upper=True)
                    except np.linalg.LinAlgError:
                        raise SingularMassError(
                            f"mass matrix of cell {cid} is numerically singular"
                        ) from exc
                raise
        return self._cut_factors

    def mass_solve(self, rhs, cells=None):
        """Block-diagonal mass solve of stacked blocks rhs (n, n_modes, p).

        Block i is solved with the mass matrix of ``cells[i]`` (default: block
        i belongs to cell i).  The blocks of uncut cells are multiplied by the
        reference mass's inverse, formed once from its Cholesky factor, all
        in one product; the reference mass is well conditioned (cond 12, 185
        and 2.9e3 at degree 1, 2 and 3).  The cut cells' masses are never
        inverted: their blocks are solved with the stacked Cholesky factors.
        """
        n, k, p = rhs.shape
        cells = np.arange(n) if cells is None else np.asarray(cells)
        uncut = self.uncut[cells]
        out = np.empty_like(rhs)
        # every uncut block side by side: one (k, k) by (k, uncut blocks * p) product
        blocks = rhs[uncut]
        out[uncut] = (self._ref_inv @ blocks.transpose(1, 0, 2).reshape(k, -1)).reshape(
            k, len(blocks), p).transpose(1, 0, 2)
        if not uncut.all():
            cut = ~uncut
            slot = np.searchsorted(self.cut_ids, cells[cut])
            out[cut] = cho_solve_stacked(self.cut_mass_factors()[slot], rhs[cut])
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
            starts = self.rule_start[self.cut_ids] - n_uncut
            rhs[self.cut_ids] = np.add.reduceat(self._cut_phi[:, :, None] * wv[:, None, :], starts, axis=0)
        return DGFunction(self.mass_solve(rhs), self.degree)

    def l2_norm(self, u):
        """L2(domain) norm of u: the sum over cells of c^T M c.

        The uncut cells share the reference mass: the state, read as one
        (cells, n_modes m) matrix without a copy, times the reference mass
        (Kronecker the identity on the components) gives every cell's
        M_ref c.  With the cut cells' rows of that product zeroed, one dot
        product with the state sums c^T M_ref c over the uncut cells alone
        (subtracting the cut cells' share from a sum over all cells instead
        would lose a small cut cell with large coefficients to cancellation);
        the cut cells use their own masses, stacked once.  Any non-finite
        coefficient makes the norm non-finite.
        """
        c = u.coeffs
        n, k, m = c.shape
        kron = self._ref_mass_kron.get(m)
        if kron is None:
            kron = self._ref_mass_kron[m] = np.kron(self._ref_mass, np.eye(m))
        flat = c.reshape(n, k * m)
        weighted = flat @ kron
        weighted[self.cut_ids] = 0.0
        cut = c[self.cut_ids]
        total = np.vdot(weighted, flat) + np.vdot(cut, self._cut_mass @ cut)
        return np.sqrt(max(float(total), 0.0))

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

