"""Reference oracle: the acoustic DoD penalty built one stabilized cell at a time.

``_WaveCellContext`` is the per-cell construction the package used before it
built the pair matrices of all stabilized cells at once; :func:`local_matrix`
adds the cancellation of the base face kernels the way that construction did,
probed over the whole neighborhood.  The tests compare the batched build of
``cutdg.stabilization.WaveStabilization`` against it.
"""

import numpy as np

from cutdg.errors import UnsupportedConfigurationError
from cutdg.quadrature import monomial_gradients, monomial_values
from cutdg.stabilization import (
    DISSIPATIVE_WEIGHT,
    SPLIT,
    VOLUME_WEIGHT_EXTENSION,
    VOLUME_WEIGHT_OWN,
    kappa,
    surface_weights,
)
from probed_kernels import face_terms, local_matrix as probe_matrix

_I3 = np.eye(3)


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

    def __init__(self, space, spec, cell_id):
        mesh = space.mesh
        basis = space.basis
        cell = mesh.cells[cell_id]
        K = cell.num_faces
        face_ids = list(cell.face_ids)
        boundary = [mesh.face_right[fid] < 0 for fid in face_ids]
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
            n = mesh.face_normal[face_ids[wall]]
            feet = pts - (pts @ n - float(n @ mesh.face_p[face_ids[wall]]))[:, None] * n
            e_n = np.concatenate([[0.0], n])
            N = e_n[:, None] * e_n[None, :]
            n_mirror = S - n_plain
            phi_perp = monomial_values(
                exps, centers[n_plain * len(pts):], h, np.tile(feet, (n_mirror, 1))
            )
            V[n_plain:] -= 2.0 * phi_perp.reshape(n_mirror, len(pts), -1)[..., None, None] * N
            grad_perp = monomial_gradients(
                exps, cell_centers[n_plain * nc:], h, np.tile(feet[-nc:], (n_mirror, 1))
            )
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
        s = spec.dissipation(np.stack([mesh.outward_normal(cell_id, fid) for fid in face_ids]))
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
        volume_scale = kappa(K)
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
                    c = SPLIT * surface_weights(K, a, b)
                    tests = [(e, 1.0)]
                    if not boundary[b]:
                        tests.append((index[(nb[b], None)], -1.0))
                    for t, sign in tests:
                        flux_w[:, t, si] += sign * c
                        flux_w[:, t, sj] += sign * c
                # volume split over E and the two extensions: the averaged
                # flux minus the flux of the tested source, and the
                # divergence form, linear in the test slots i and j
                for t, omega in ((e, VOLUME_WEIGHT_OWN), (si, VOLUME_WEIGHT_EXTENSION),
                                 (sj, VOLUME_WEIGHT_EXTENSION)):
                    v = omega * volume_scale
                    volume_w[0, t, si] += SPLIT * v
                    volume_w[0, t, sj] += SPLIT * v
                    volume_w[0, t, t] -= v
                    volume_w[1, si, t] += SPLIT * v
                    volume_w[1, sj, t] += SPLIT * v
                # dissipative coupling of the jump of the two extensions
                for t, sign in ((si, 1.0), (sj, -1.0)):
                    diss_w[0, t, si] += sign * DISSIPATIVE_WEIGHT
                    diss_w[0, t, sj] -= sign * DISSIPATIVE_WEIGHT

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


def local_matrix(plan, eta, ctx, cid):
    """eta (surface + volume + dissipative) minus eta times the base face
    kernels of the cell's faces, central part then dissipative part, each
    probed over the whole neighborhood."""
    A = eta * (ctx.surface + ctx.volume + ctx.dissipative)
    for fid in plan.space.mesh.cells[cid].face_ids:
        for central in (True, False):
            A -= eta * probe_matrix(
                lambda u: face_terms(plan, fid, u, central, not central), ctx.cells, plan.shape
            )
    return A
