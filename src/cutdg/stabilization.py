"""Domain-of-dependence penalty terms for small cut cells.

The penalty restores the correct domain of dependence on cells that are too
small for the background-mesh time step.  For advection it reroutes the
outflow of a small cell to the extension of its single upstream neighbor.
For acoustics it redistributes flux between all face pairs of the small cell
through trilinear "propagation forms" built from face functionals

    A_k(u, v, w) = int_{face k} < f_n(avg(u, v)), w >        (outward normal)

as  p_ij = A_j/K - A_i/K + S/(K(K-1)),  S = sum_k A_k,  together with the
volume split p_V (flux against test gradient) and p_V* (flux divergence
against test value).  The closed form is the unique choice (up to gauge) in
this ansatz satisfying the pair balance and face-sum identities that the
consistency argument needs; the test suite checks those identities directly
rather than trusting the construction.

Every term is bilinear, so each penalty is held as one local matrix per
stabilized cell over the cell's neighborhood, built directly: for
acoustics, eta times the sum of three named matrices (``surface``,
``volume``, ``dissipative``) minus eta times the base face kernels of the
cell's faces, read off :func:`face_terms` itself; for advection, eta times
its ``outflow`` and ``volume`` matrices.  The global matrix sums them.
"""

import numpy as np

from .errors import (
    ConfigurationError,
    MeshValidationError,
    UnsupportedConfigurationError,
)
from .dg import block_csr, face_terms, local_matrix
from .geometry import inflow_faces
from .quadrature import (
    face_quadrature,
    monomial_gradients,
    monomial_values,
    polygon_quadrature,
)

_I3 = np.eye(3)


def eta_values(mesh, small, alpha0, scale=1.0):
    """Per-cell stabilization strength: scale * (1 - min(1, alpha/alpha0))."""
    if not 0.0 <= scale <= 1.0:
        raise ConfigurationError("eta scale must lie in [0, 1]")
    eta = np.zeros(mesh.num_cells)
    for cid in small:
        alpha = mesh.cells[cid].volume_fraction
        eta[cid] = scale * (1.0 - min(1.0, alpha / alpha0))
    return eta


def surface_weights(K, i, j):
    """Face weights c_k with p_ij = sum_k c_k A_k."""
    c = np.full(K, 1.0 / (K * (K - 1)))
    c[j] += 1.0 / K
    c[i] -= 1.0 / K
    return c


# ---------------------------------------------------------------------------
# propagation forms on stacks of coefficient blocks (axiom checks)
# ---------------------------------------------------------------------------


class CellForms:
    """Trilinear propagation forms of one cell, on stacks of coefficient blocks.

    The arguments U, V, W are blocks of the cell's own basis, (n_modes, m),
    or stacks of them, (..., n_modes, m); each form returns one value per
    stacked triple.  The basis tables are built once per cell: values on
    each face rule and on the cell rule, gradients on the cell rule, and
    the same on a finer face rule (``face_npts + 3`` points) and a finer
    cell rule (exact to degree 2r + 4), selected by ``fine=True``, which
    the axiom check uses as independent references.
    """

    def __init__(self, space, spec, cell_id):
        mesh = space.mesh
        basis = space.basis
        cell = mesh.cells[cell_id]
        face_ids = list(cell.face_ids)
        self.K = K = cell.num_faces
        self.kappa = 2.0 / (K * (K - 1)) if K > 1 else 0.0
        # transposed flux matrices: values @ AnT[k] is the flux A_n u on face k
        self.AnT = np.stack([spec.A_n(mesh.outward_normal(cell_id, fid)).T for fid in face_ids])
        self.AdT = np.stack([spec.A1.T, spec.A2.T])
        # weights[i, j] @ A = p_ij; the diagonal stays zero
        self.weights = np.zeros((K, K, K))
        for i in range(K):
            for j in range(K):
                if i != j:
                    self.weights[i, j] = surface_weights(K, i, j)

        fine_faces = [
            face_quadrature(mesh.faces[fid].p, mesh.faces[fid].q, space.face_npts + 3)
            for fid in face_ids
        ]
        face_rules = [
            (space.face_pts[face_ids], space.face_w[face_ids]),
            (np.stack([p for p, _ in fine_faces]), np.stack([w for _, w in fine_faces])),
        ]
        cell_rules = [
            (space.cell_pts[cell_id], space.cell_w[cell_id]),
            polygon_quadrature(cell.polygon, 2 * space.degree + 4),
        ]
        exps, center, h, n = basis.exps, basis.center(cell_id), basis.h, basis.n_modes
        self.face_phi = [
            monomial_values(exps, center, h, p.reshape(-1, 2)).reshape(K, -1, n)
            for p, _ in face_rules
        ]
        self.cell_phi = [monomial_values(exps, center, h, p) for p, _ in cell_rules]
        self.cell_grad = [
            np.moveaxis(monomial_gradients(exps, center, h, p), -1, 0) for p, _ in cell_rules
        ]
        self.face_w = [w for _, w in face_rules]
        self.cell_w = [w for _, w in cell_rules]
        # the cell's own points: the cell rule and every face rule
        self.probe_phi = np.concatenate([self.cell_phi[0], self.face_phi[0].reshape(-1, n)])

    def max_abs(self, U):
        """Max |value| of each stacked block over the cell and face points."""
        return np.abs(self.probe_phi @ U).max(axis=(-2, -1))

    def face_functionals(self, U, V, W, fine=False):
        """A_k for every face k, shape (..., K)."""
        phi, w = self.face_phi[fine], self.face_w[fine]
        U, V, W = (X[..., None, :, :] for X in (U, V, W))
        flux = 0.5 * (phi @ U + phi @ V) @ self.AnT
        return np.sum(np.sum(flux * (phi @ W), axis=-1) * w, axis=-1)

    def surfaces(self, U, V, W):
        """p_ij for every ordered pair of faces, shape (..., K, K), zero for i = j."""
        return np.einsum("...k,ijk->...ij", self.face_functionals(U, V, W), self.weights)

    def volume(self, U, V, W, fine=False):
        """(p_V, p_V*): flux against grad W, and flux divergence against W."""
        phi, grad, w = self.cell_phi[fine], self.cell_grad[fine], self.cell_w[fine]
        # gradients are stacked by direction d: (..., d, point, component)
        flux = (0.5 * (phi @ U + phi @ V))[..., None, :, :] @ self.AdT
        gw = grad @ W[..., None, :, :]
        p_v = self.kappa * (np.sum(flux * gw, axis=(-3, -1)) @ w)
        gu = 0.5 * (grad @ U[..., None, :, :] + grad @ V[..., None, :, :])
        div = np.sum(gu @ self.AdT, axis=-3)
        p_vs = self.kappa * (np.sum(div * (phi @ W), axis=-1) @ w)
        return p_v, p_vs


# ---------------------------------------------------------------------------
# acoustics: pairwise cell stabilization
# ---------------------------------------------------------------------------


class _WaveCellContext:
    """The pair matrices of one small cell, unscaled, over its neighborhood.

    An extension source is a cell C of the neighborhood, extended as is, or
    C's extension with its velocity mirrored across the wall face k.  Each
    source has one table (values on every face and in the cell, gradients and
    A-contracted gradients), which serves as both the trial and the test
    side.  The pair loop only collects scalar weights per source pair; the
    three matrices ``surface``, ``volume`` (split plus divergence) and
    ``dissipative`` contract them with Gram products of the tables.
    """

    def __init__(self, space, spec, diss, cell_id):
        mesh = space.mesh
        basis = space.basis
        cell = mesh.cells[cell_id]
        K = cell.num_faces
        face_ids = list(cell.face_ids)
        boundary = [mesh.faces[fid].kind == "boundary" for fid in face_ids]
        nb = [mesh.neighbor(cell_id, fid) for fid in face_ids]
        if sum(boundary) >= 2:
            walls = [face_ids[k] for k in range(K) if boundary[k]]
            raise UnsupportedConfigurationError(
                f"cell {cell_id}: faces {walls[0]} and {walls[1]} are both boundary faces; "
                "the pairwise stabilization does not define this configuration"
            )
        self.cells = sorted({cell_id} | {C for C in nb if C is not None})

        # sources (C, None) for the plain extension of C, (C, k) for the one
        # mirrored across wall k; a pair (i, j) with wall i uses (nb[j], i)
        sources = [(C, None) for C in self.cells]
        if any(boundary):
            wall = boundary.index(True)
            sources += list(dict.fromkeys((nb[j], wall) for j in range(K) if j != wall))
        index = {src: a for a, src in enumerate(sources)}
        S = len(sources)

        # every source's values at the face points, then the cell points; a
        # mirrored source (after the plain ones, all across the one wall) subtracts
        # twice its normal velocity at the foot of each point on the wall line
        nq = space.face_pts.shape[1]
        pts = np.concatenate([space.face_pts[face_ids].reshape(-1, 2), space.cell_pts[cell_id]])
        nc = len(space.cell_pts[cell_id])
        centers = np.repeat(basis.center(np.array([C for C, _ in sources])), len(pts), axis=0)
        exps, h = basis.exps, basis.h
        phi = monomial_values(exps, centers, h, np.tile(pts, (S, 1))).reshape(S, len(pts), -1)
        V = phi[..., None, None] * _I3   # (source, point, mode k, slot s, component)
        cell_centers = centers.reshape(S, len(pts), 2)[:, -nc:].reshape(-1, 2)
        grad = monomial_gradients(exps, cell_centers, h, np.tile(pts[-nc:], (S, 1)))
        G = grad.reshape(S, nc, -1, 1, 1, 2) * _I3[..., None]
        n_plain = len(self.cells)
        if S > n_plain:
            face = mesh.faces[face_ids[wall]]
            feet = pts - (pts @ face.normal - face.line_offset)[:, None] * face.normal
            e_n = np.concatenate([[0.0], face.normal])
            N = e_n[:, None] * e_n[None, :]
            n_mirror = S - n_plain
            phi_perp = monomial_values(
                exps, centers[n_plain * len(pts):], h, np.tile(feet, (n_mirror, 1))
            )
            V[n_plain:] -= 2.0 * phi_perp.reshape(n_mirror, len(pts), -1)[..., None, None] * N
            grad_perp = monomial_gradients(
                exps, cell_centers[n_plain * nc:], h, np.tile(feet[-nc:], (n_mirror, 1))
            )
            n = face.normal
            tang = grad_perp.reshape(n_mirror, nc, -1, 2)
            tang = (tang - (tang * n).sum(axis=-1, keepdims=True) * n)[:, :, :, None, None]
            G[n_plain:] -= 2.0 * tang * N[..., None]
        V = V.reshape(S, len(pts), -1, 3)
        R = V.shape[2]
        G = G.reshape(S, nc, R, 3, 2)
        D = G[..., 0] @ spec.A1.T + G[..., 1] @ spec.A2.T   # A-contracted gradients

        # Gram products: one per face (flux A_n, dissipation s I), one each
        # for the volume split and the divergence form; rows test, columns trial
        def rows(T):
            """(source, point, test mode, ...) -> (source * test mode, point * ...)."""
            return np.moveaxis(T, 2, 1).reshape(S * R, -1)

        An = np.stack([spec.A_n(mesh.outward_normal(cell_id, fid)) for fid in face_ids])
        s = np.array([diss.coefficient(spec, mesh.outward_normal(cell_id, fid)) for fid in face_ids])
        w = space.face_w[face_ids]
        Vf = V[:, :K * nq].reshape(S, K, nq, R, 3)
        flux_gram = np.stack([
            rows(Vf[:, l]) @ rows(w[l][:, None, None] * (Vf[:, l] @ An[l].T)).T for l in range(K)
        ])
        diss_gram = sum(
            rows(Vf[:, l]) @ rows(s[l] * w[l][:, None, None] * Vf[:, l]).T for l in range(K)
        )
        wc = space.cell_w[cell_id][:, None, None]
        Vc = V[:, K * nq:]
        AV = np.stack([Vc @ spec.A1.T, Vc @ spec.A2.T], axis=-1)
        volume_gram = np.stack([rows(G) @ rows(wc[..., None] * AV).T, rows(D) @ rows(wc * Vc).T])

        # scalar weights of each (test source, trial source) pair
        kappa = 2.0 / (K * (K - 1))
        e = index[(cell_id, None)]
        flux_w = np.zeros((K, S, S))
        volume_w = np.zeros((2, S, S))
        diss_w = np.zeros((1, S, S))
        for i in range(K):
            for j in range(i + 1, K):
                si = index[(nb[j], i)] if boundary[i] else index[(nb[i], None)]
                sj = index[(nb[i], j)] if boundary[j] else index[(nb[j], None)]
                # flux redistribution between the two faces, averaged over the
                # two extensions; test argument: the extension from E minus
                # (for an internal face b) the extension from its neighbor
                for a, b in ((i, j), (j, i)):
                    c = 0.5 * surface_weights(K, a, b)
                    tests = [(e, 1.0)]
                    if not boundary[b]:
                        tests.append((index[(nb[b], None)], -1.0))
                    for t, sign in tests:
                        flux_w[:, t, si] += sign * c
                        flux_w[:, t, sj] += sign * c
                # volume split with weights -1 (E) and 1/2 (each extension):
                # the averaged flux minus the flux of the tested source, and
                # the divergence form, linear in the test slots i and j
                for t, omega in ((e, -1.0), (si, 0.5), (sj, 0.5)):
                    v = omega * kappa
                    volume_w[0, t, si] += 0.5 * v
                    volume_w[0, t, sj] += 0.5 * v
                    volume_w[0, t, t] -= v
                    volume_w[1, si, t] += 0.5 * v
                    volume_w[1, sj, t] += 0.5 * v
                # dissipative coupling of the jump of the two extensions
                for t, sign in ((si, 1.0), (sj, -1.0)):
                    diss_w[0, t, si] += sign / 3.0
                    diss_w[0, t, sj] -= sign / 3.0

        # contract the weights, then sum the sources into their cells' blocks
        to_cell = np.zeros((len(self.cells), S))
        to_cell[[self.cells.index(C) for C, _ in sources], np.arange(S)] = 1.0
        scatter = np.kron(to_cell, np.eye(R))

        def contract(weights, gram):
            gram = gram.reshape(len(weights), S, R, S, R)
            blocks = np.einsum("lta,ltras->tras", weights, gram).reshape(S * R, S * R)
            return scatter @ blocks @ scatter.T

        self.surface = contract(flux_w, flux_gram)
        self.volume = contract(volume_w, volume_gram)
        self.dissipative = contract(diss_w, diss_gram[None])


class _Penalty:
    """What both penalties share: one local matrix per stabilized cell over
    its neighborhood, applied per cell or summed into the global matrix.

    Subclasses provide ``_context(cid)``, whose ``cells`` is the
    neighborhood, and ``_local_matrix(cid)``.  A local matrix maps the
    coefficients of the neighborhood, in the order of
    ``u.coeffs[cells].ravel()``, to the penalty paired with its test modes.
    """

    def __init__(self, plan, small, eta):
        self.plan = plan
        self.space = plan.space
        self.cell_ids = list(small)
        self.eta = eta
        self._ctx = {cid: self._context(cid) for cid in self.cell_ids}
        self.local = {cid: self._local_matrix(cid) for cid in self.cell_ids}

    def neighborhood(self, cid):
        return self._ctx[cid].cells

    def cell_residual(self, cid, u):
        """The penalty of one cell applied to ``u``, {cell: block}."""
        cells = self.neighborhood(cid)
        res = self.local[cid] @ u.coeffs[cells].ravel()
        return dict(zip(cells, res.reshape((len(cells),) + self.plan.shape)))

    def matrix(self):
        """The penalty as a CSR matrix over the global dofs."""
        entries = [(self.neighborhood(cid), self.local[cid]) for cid in self.cell_ids]
        return block_csr(entries, self.space.mesh.num_cells, self.plan.shape)


class WaveStabilization(_Penalty):
    """Penalty assembly for acoustics over a fixed stabilized-cell set."""

    def _context(self, cid):
        return _WaveCellContext(self.space, self.plan.spec, self.plan.diss, cid)

    def _local_matrix(self, cid):
        """eta (surface + volume + dissipative) minus eta times the base face
        kernels of the cell's faces, central part then dissipative part.

        The subtracted blocks are read off :func:`face_terms` itself, so at
        eta = 1 they cancel the base face terms bit for bit.
        """
        ctx = self._ctx[cid]
        eta = self.eta[cid]
        A = eta * (ctx.surface + ctx.volume + ctx.dissipative)
        for fid in self.space.mesh.cells[cid].face_ids:
            for central in (True, False):
                A -= eta * local_matrix(
                    lambda u: face_terms(self.plan, fid, u, central, not central),
                    ctx.cells, self.plan.shape,
                )
        return A


# ---------------------------------------------------------------------------
# advection: upstream-extension stabilization
# ---------------------------------------------------------------------------


class _AdvectionCellContext:
    """The upstream-extension matrices of one small cell, unscaled.

    ``outflow`` corrects the outflow flux by the defect of the upstream
    extension against the jump of the test function; ``volume`` couples the
    same defect in the cell.  ``boundary_outflow`` pairs with the
    neighborhood's coefficients to give the correction's outflow rate on
    physical boundary faces.
    """

    def __init__(self, space, spec, cell_id):
        mesh = space.mesh
        basis = space.basis
        cell = mesh.cells[cell_id]
        beta = spec.beta
        inflow = inflow_faces(mesh, cell_id, beta)
        if len(inflow) != 1:
            raise MeshValidationError(
                f"stabilized cell {cell_id} has {len(inflow)} inflow faces; "
                "the advection penalty requires exactly one"
            )
        if mesh.faces[inflow[0]].kind != "internal":
            raise UnsupportedConfigurationError(
                f"stabilized cell {cell_id}: inflow face {inflow[0]} lies on the boundary"
            )
        up = mesh.neighbor(cell_id, inflow[0])
        nb = [mesh.neighbor(cell_id, fid) for fid in cell.face_ids]
        self.cells = sorted({cell_id, up} | {C for C in nb if C is not None})
        k = space.n_modes
        n = len(self.cells) * k

        def block(C):
            i = self.cells.index(C)
            return slice(i * k, (i + 1) * k)

        def defect(pts, phi_E):
            """Upstream extension minus the cell's own polynomial at ``pts``."""
            d = np.zeros((len(pts), n))
            d[:, block(up)] = monomial_values(basis.exps, basis.center(up), basis.h, pts)
            d[:, block(cell_id)] -= phi_E
            return d

        self.outflow = np.zeros((n, n))
        self.boundary_outflow = np.zeros(n)
        for fid, C in zip(cell.face_ids, nb):
            bn_plus = max(float(beta @ mesh.outward_normal(cell_id, fid)), 0.0)
            if bn_plus == 0.0:
                continue
            pts = space.face_pts[fid]
            phi_E = monomial_values(basis.exps, basis.center(cell_id), basis.h, pts)
            g = (bn_plus * space.face_w[fid])[:, None] * defect(pts, phi_E)
            self.outflow[block(cell_id)] += phi_E.T @ g
            if C is None:
                self.boundary_outflow += g.sum(axis=0)
            else:
                phi_nb = monomial_values(basis.exps, basis.center(C), basis.h, pts)
                self.outflow[block(C)] -= phi_nb.T @ g
        pts = space.cell_pts[cell_id]
        wd = space.cell_w[cell_id][:, None] * defect(pts, space.cell_phi[cell_id])
        gE = space.cell_grad[cell_id] @ beta
        gU = monomial_gradients(basis.exps, basis.center(up), basis.h, pts) @ beta
        self.volume = np.zeros((n, n))
        self.volume[block(up)] += gU.T @ wd
        self.volume[block(cell_id)] -= gE.T @ wd


class AdvectionStabilization(_Penalty):
    """Penalty assembly for advection over a fixed stabilized-cell set."""

    def __init__(self, plan, small, eta):
        if plan.spec.kind != "advection":
            raise ConfigurationError("advection stabilization requires an advection system")
        super().__init__(plan, small, eta)

    def _context(self, cid):
        return _AdvectionCellContext(self.space, self.plan.spec, cid)

    def _local_matrix(self, cid):
        ctx = self._ctx[cid]
        return self.eta[cid] * (ctx.outflow + ctx.volume)

    def boundary_outflow_weights(self):
        """Weights g with g . u the penalty's outflow-rate correction on
        physical boundary faces."""
        g = np.zeros((self.space.mesh.num_cells, self.space.n_modes, 1))
        for cid in self.cell_ids:
            ctx = self._ctx[cid]
            g[ctx.cells, :, 0] += self.eta[cid] * ctx.boundary_outflow.reshape(len(ctx.cells), -1)
        return g
