"""Reference oracle: the DoD penalty as a residual, with its matrix probed.

Each term is evaluated on the trial extension values and tested against
separate test tables, pair by pair, and the local matrix is read off by
probing the residual with unit blocks.  The tests compare the directly
assembled matrices of ``cutdg.stabilization`` against it.
"""

import numpy as np

from cutdg.dg import block_csr, face_terms, local_matrix
from cutdg.errors import MeshValidationError, UnsupportedConfigurationError
from cutdg.geometry import inflow_faces
from cutdg.quadrature import monomial_gradients, monomial_values
from cutdg.stabilization import surface_weights

_I3 = np.eye(3)


def _value_tensor(phi, phi_perp=None, n=None):
    """Vector test-mode values T[q, mode, s, m] (s = state slot of the mode)."""
    T = np.einsum("qk,sm->qksm", phi, _I3)
    if phi_perp is not None:
        T[:, :, 1:, 1:] -= 2.0 * np.einsum("qk,s,m->qksm", phi_perp, n, n)
    return T


def _gradient_tensor(grad, grad_perp=None, n=None):
    """Vector test-mode gradients G[q, mode, s, m, d]."""
    G = np.einsum("qkd,sm->qksmd", grad, _I3)
    if grad_perp is not None:
        tang = grad_perp - np.einsum("qke,e,d->qkd", grad_perp, n, n)
        G[:, :, 1:, 1:, :] -= 2.0 * np.einsum("qkd,s,m->qksmd", tang, n, n)
    return G


class _WaveCellContext:
    """Quadrature tables, extension sources and test tensors for one small cell."""

    def __init__(self, space, spec, diss, cell_id):
        mesh = space.mesh
        basis = space.basis
        self.space = space
        self.spec = spec
        self.cell_id = cell_id
        cell = mesh.cells[cell_id]
        self.K = cell.num_faces
        self.kappa = 2.0 / (self.K * (self.K - 1))
        self.face_ids = list(cell.face_ids)
        self.boundary = []
        self.nb = []
        self.face_pts = []
        self.face_w = []
        self.An_out = []
        self.s_out = []
        for fid in self.face_ids:
            face = mesh.faces[fid]
            self.boundary.append(face.kind == "boundary")
            self.nb.append(mesh.neighbor(cell_id, fid))
            self.face_pts.append(space.face_pts[fid])
            self.face_w.append(space.face_w[fid])
            n_out = mesh.outward_normal(cell_id, fid)
            self.An_out.append(spec.A_n(n_out))
            self.s_out.append(diss.coefficient(spec, n_out))
        self.cell_pts = space.cell_pts[cell_id]
        self.cell_w = space.cell_w[cell_id]
        self.cells = sorted({cell_id} | {nb for nb in self.nb if nb is not None})
        if sum(self.boundary) >= 2:
            walls = [self.face_ids[k] for k in range(self.K) if self.boundary[k]]
            raise UnsupportedConfigurationError(
                f"cell {cell_id}: faces {walls[0]} and {walls[1]} are both boundary faces; "
                "the pairwise stabilization does not define this configuration"
            )

        # mirror combos actually used: (source cell, wall face position)
        combos = set()
        for i in range(self.K):
            for j in range(i + 1, self.K):
                if self.boundary[i]:
                    combos.add((self.nb[j], i))
                if self.boundary[j]:
                    combos.add((self.nb[i], j))

        h = basis.h
        exps = basis.exps
        locations = self.face_pts + [self.cell_pts]

        def foot(pts, k):
            face = mesh.faces[self.face_ids[k]]
            n, d = face.normal, face.line_offset
            s = pts @ n - d
            return pts - s[:, None] * n[None, :]

        self.phi = {}        # (loc, C) -> (nq, n_modes)
        self.phi_perp = {}   # (loc, C, k) -> values at mirrored points
        for C in self.cells:
            center = basis.center(C)
            for loc, pts in enumerate(locations):
                self.phi[(loc, C)] = monomial_values(exps, center, h, pts)
            for (Cc, k) in combos:
                if Cc != C:
                    continue
                for loc, pts in enumerate(locations):
                    self.phi_perp[(loc, C, k)] = monomial_values(exps, center, h, foot(pts, k))

        self.cell_loc = len(self.face_pts)
        self.grad = {}
        self.grad_perp = {}
        for C in self.cells:
            center = basis.center(C)
            self.grad[C] = monomial_gradients(exps, center, h, self.cell_pts)
        for (C, k) in combos:
            self.grad_perp[(C, k)] = monomial_gradients(
                exps, basis.center(C), h, foot(self.cell_pts, k)
            )

        # test tensors per source spec: ('plain', C) or ('mirror', C, k)
        self.T_face = {}
        self.T_cell = {}
        self.G_cell = {}
        self.D_cell = {}     # A-contracted gradients for the divergence form
        sources = [("plain", C) for C in self.cells] + [
            ("mirror", C, k) for (C, k) in combos
        ]
        for src in sources:
            if src[0] == "plain":
                _, C = src
                for loc in range(len(locations)):
                    if loc != self.cell_loc:
                        self.T_face.setdefault(src, {})[loc] = _value_tensor(self.phi[(loc, C)])
                self.T_cell[src] = _value_tensor(self.phi[(self.cell_loc, C)])
                G = _gradient_tensor(self.grad[C])
            else:
                _, C, k = src
                face = mesh.faces[self.face_ids[k]]
                n = face.normal
                for loc in range(len(locations)):
                    if loc != self.cell_loc:
                        self.T_face.setdefault(src, {})[loc] = _value_tensor(
                            self.phi[(loc, C)], self.phi_perp[(loc, C, k)], n
                        )
                self.T_cell[src] = _value_tensor(
                    self.phi[(self.cell_loc, C)], self.phi_perp[(self.cell_loc, C, k)], n
                )
                G = _gradient_tensor(self.grad[C], self.grad_perp[(C, k)], n)
            self.G_cell[src] = G
            self.D_cell[src] = np.einsum("me,qkse->qksm", spec.A1, G[..., 0]) + np.einsum(
                "me,qkse->qksm", spec.A2, G[..., 1]
            )

    # -- extension sources -------------------------------------------------
    def pair_sources(self, i, j):
        """Unified extension sources for slots E_i and E_j of the pair (i, j)."""
        bi, bj = self.boundary[i], self.boundary[j]
        if bi and bj:
            raise UnsupportedConfigurationError(
                f"cell {self.cell_id}: faces {self.face_ids[i]} and {self.face_ids[j]} "
                "are both boundary faces"
            )
        src_i = ("mirror", self.nb[j], i) if bi else ("plain", self.nb[i])
        src_j = ("mirror", self.nb[i], j) if bj else ("plain", self.nb[j])
        return src_i, src_j

    def source_block(self, src):
        """Coefficient block cell of a source."""
        return src[1]

    def source_values(self, src, u, loc):
        """State values of an extension source at one quadrature location."""
        C = src[1]
        vals = self.phi[(loc, C)] @ u.coeffs[C]
        if src[0] == "mirror":
            k = src[2]
            n = self.space.mesh.faces[self.face_ids[k]].normal
            vperp = (self.phi_perp[(loc, C, k)] @ u.coeffs[C])[..., 1:]
            vn = vperp @ n
            vals = vals.copy()
            vals[..., 1] -= 2.0 * vn * n[0]
            vals[..., 2] -= 2.0 * vn * n[1]
        return vals

    # -- pair assembly -----------------------------------------------------
    def pair_residual(self, u, out):
        """Accumulate all pairwise penalty terms (unscaled) into ``out``."""
        K = self.K
        e_src = ("plain", self.cell_id)
        for i in range(K):
            for j in range(i + 1, K):
                src_i, src_j = self.pair_sources(i, j)
                Ui_face = [self.source_values(src_i, u, l) for l in range(K)]
                Uj_face = [self.source_values(src_j, u, l) for l in range(K)]
                wF = [
                    self.face_w[l][:, None]
                    * (0.5 * (Ui_face[l] + Uj_face[l]) @ self.An_out[l].T)
                    for l in range(K)
                ]

                # flux redistribution between the two faces
                for (a, b) in ((i, j), (j, i)):
                    c = surface_weights(K, a, b)
                    # test argument: extension from E minus (for an internal
                    # face b) the extension from its neighbor
                    slots = [(e_src, 1.0)]
                    if not self.boundary[b]:
                        slots.append((("plain", self.nb[b]), -1.0))
                    for src_t, sign in slots:
                        block = np.zeros_like(out[self.source_block(src_t)])
                        for l in range(K):
                            block += c[l] * np.einsum(
                                "...qm,qksm->...ks", wF[l], self.T_face[src_t][l]
                            )
                        out[self.source_block(src_t)] += sign * block

                # volume redistribution with weights -1 (E) and 1/2 (each neighbor)
                Ui_cell = self.source_values(src_i, u, self.cell_loc)
                Uj_cell = self.source_values(src_j, u, self.cell_loc)
                ubar = 0.5 * (Ui_cell + Uj_cell)
                wq = self.cell_w
                fbar = (ubar @ self.spec.A1.T, ubar @ self.spec.A2.T)
                slots_e = [(e_src, -1.0), (src_i, 0.5), (src_j, 0.5)]
                for src_e, omega in slots_e:
                    G = self.G_cell[src_e]
                    Ue = self.source_values(src_e, u, self.cell_loc)
                    fe = (Ue @ self.spec.A1.T, Ue @ self.spec.A2.T)
                    block = self.kappa * (
                        np.einsum("q,...qm,qksm->...ks", wq, fbar[0] - fe[0], G[..., 0])
                        + np.einsum("q,...qm,qksm->...ks", wq, fbar[1] - fe[1], G[..., 1])
                    )
                    out[self.source_block(src_e)] += omega * block
                    # divergence form, linear in the test slots i and j
                    for src_t in (src_i, src_j):
                        val = self.kappa * 0.5 * np.einsum(
                            "q,qksm,...qm->...ks", wq, self.D_cell[src_t], Ue
                        )
                        out[self.source_block(src_t)] += omega * val

                # dissipative coupling of the two extensions over all faces;
                # the two written lines are equal (the jump flips sign twice)
                for l in range(K):
                    Sv = self.s_out[l] * (Ui_face[l] - Uj_face[l])
                    wS = self.face_w[l][:, None] * Sv
                    for src_t, sign in ((src_i, 1.0), (src_j, -1.0)):
                        val = np.einsum("...qm,qksm->...ks", wS, self.T_face[src_t][l])
                        out[self.source_block(src_t)] += sign * val / 3.0


class _AdvectionCellContext:
    def __init__(self, space, spec, cell_id):
        mesh = space.mesh
        basis = space.basis
        self.cell_id = cell_id
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
        self.upstream = mesh.neighbor(cell_id, inflow[0])

        self.faces = []
        for fid in cell.face_ids:
            n_out = mesh.outward_normal(cell_id, fid)
            bn_plus = max(float(beta @ n_out), 0.0)
            nb = mesh.neighbor(cell_id, fid)
            pts = space.face_pts[fid]
            phi_nb = None
            if nb is not None:
                phi_nb = monomial_values(basis.exps, basis.center(nb), basis.h, pts)
            self.faces.append({
                "w": space.face_w[fid],
                "bn_plus": bn_plus,
                "nb": nb,
                "phi_E": monomial_values(basis.exps, basis.center(cell_id), basis.h, pts),
                "phi_up": monomial_values(basis.exps, basis.center(self.upstream), basis.h, pts),
                "phi_nb": phi_nb,
                "boundary": nb is None,
            })
        pts = space.cell_pts[cell_id]
        self.cell_w = space.cell_w[cell_id]
        self.phi_E = space.cell_phi[cell_id]
        self.phi_up = monomial_values(basis.exps, basis.center(self.upstream), basis.h, pts)
        gE = space.cell_grad[cell_id]
        gU = monomial_gradients(basis.exps, basis.center(self.upstream), basis.h, pts)
        self.bgrad_E = gE[:, :, 0] * beta[0] + gE[:, :, 1] * beta[1]
        self.bgrad_up = gU[:, :, 0] * beta[0] + gU[:, :, 1] * beta[1]
        self.cells = sorted(
            {cell_id, self.upstream} | {f["nb"] for f in self.faces if f["nb"] is not None}
        )


class ProbedPenalty:
    """The probed penalty over the stabilized cells and strengths of ``stab``."""

    def __init__(self, stab):
        self.plan = stab.plan
        self.space = stab.space
        self.cell_ids = list(stab.cell_ids)
        self.eta = stab.eta
        spec = self.plan.spec
        if spec.kind == "advection":
            self._ctx = {cid: _AdvectionCellContext(self.space, spec, cid) for cid in self.cell_ids}
        else:
            self._ctx = {
                cid: _WaveCellContext(self.space, spec, self.plan.diss, cid)
                for cid in self.cell_ids
            }

    def neighborhood(self, cid):
        return self._ctx[cid].cells

    def cell_residual(self, cid, u):
        if self.plan.spec.kind == "advection":
            return self._advection_cell_residual(cid, u)
        return self._wave_cell_residual(cid, u)

    def _wave_cell_residual(self, cid, u):
        """Full penalty of one cell: pair terms minus base-kernel face terms."""
        ctx = self._ctx[cid]
        eta = self.eta[cid]
        out = {C: np.zeros_like(u.coeffs[C]) for C in ctx.cells}
        ctx.pair_residual(u, out)
        for C in out:
            out[C] *= eta
        for fid in self.space.mesh.cells[cid].face_ids:
            for part in (
                face_terms(self.plan, fid, u, central=True, dissipative=False),
                face_terms(self.plan, fid, u, central=False, dissipative=True),
            ):
                for C, block in part:
                    out[C] += -eta * block
        return out

    def _advection_cell_residual(self, cid, u):
        ctx = self._ctx[cid]
        eta = self.eta[cid]
        out = {C: np.zeros_like(u.coeffs[C]) for C in ctx.cells}
        cE = u.coeffs[cid]
        cU = u.coeffs[ctx.upstream]
        # outflow flux correction against the jump of the test function
        for f in ctx.faces:
            if f["bn_plus"] == 0.0:
                continue
            d = f["phi_up"] @ cU - f["phi_E"] @ cE
            g = (f["w"] * f["bn_plus"])[:, None] * d
            out[cid] += eta * (f["phi_E"].T @ g)
            if not f["boundary"]:
                out[f["nb"]] -= eta * (f["phi_nb"].T @ g)
        # volume coupling of the upstream-extension defect
        d = (ctx.phi_up @ cU - ctx.phi_E @ cE)[..., 0]
        wd = ctx.cell_w * d
        out[ctx.upstream][..., 0] += eta * (wd @ ctx.bgrad_up)
        out[cid][..., 0] -= eta * (wd @ ctx.bgrad_E)
        return out

    def pair_residual(self, cid, u):
        """Unscaled pair terms of one acoustic cell, without the cancellation."""
        out = {C: np.zeros_like(u.coeffs[C]) for C in self.neighborhood(cid)}
        self._ctx[cid].pair_residual(u, out)
        return out

    def residual(self, u):
        res = np.zeros_like(u.coeffs)
        for cid in self.cell_ids:
            for C, block in self.cell_residual(cid, u).items():
                res[C] += block
        return res

    def local_matrix(self, cid, kernel=None):
        """Probed local matrix of ``kernel(cid, u)`` (the cell residual by default)."""
        kernel = kernel or self.cell_residual
        return local_matrix(lambda u: kernel(cid, u).items(), self.neighborhood(cid), self.plan.shape)

    def matrix(self):
        entries = [(self.neighborhood(cid), self.local_matrix(cid)) for cid in self.cell_ids]
        return block_csr(entries, self.space.mesh.num_cells, self.plan.shape)
