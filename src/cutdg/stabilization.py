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

Every term is bilinear, so each penalty is one local matrix per stabilized
cell over the cell's neighborhood.  The cells are built and held in groups
of one pattern (:class:`PenaltyGroup`): each group stacks its cells' ids,
strengths, neighborhoods, named matrices and local matrices as (B, ...)
arrays.  Both penalties take their tables from one builder,
:func:`source_tables` (a), which evaluates the extension sources' scalar
tables and Gram products.  For acoustics, :func:`_pair_matrices` contracts
them with the pair weights and the sources' vector parts into ``surface``,
``volume`` and ``dissipative``; the local matrix is eta times their sum
minus eta times the face matrices of the cell's faces, built by
:func:`~cutdg.dg.face_matrices` as the base form's are.  For advection,
:func:`_upstream_matrices` contracts them with the upstream extension's
defect into ``outflow`` and ``volume``, and the local matrix is eta times
their sum.  The axiom check evaluates the propagation forms
(:func:`face_forms`, :func:`surface_forms`, :func:`volume_forms`) from
(a)'s Gram products of a cell's own source.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, CornerCellError
from .dg import face_matrices, local_blocks
from .geometry import upstream_cells
from .quadrature import monomial_tables

_I3 = np.eye(3)


def eta_values(mesh, small, alpha0, scale=1.0):
    """Per-cell stabilization strength: scale * (1 - min(1, alpha/alpha0))."""
    if not 0.0 <= scale <= 1.0:
        raise ConfigurationError("eta scale must lie in [0, 1]")
    small = np.asarray(small, dtype=np.int64)
    eta = np.zeros(mesh.num_cells)
    eta[small] = scale * (1.0 - np.minimum(1.0, mesh.cell_volume_fraction[small] / alpha0))
    return eta


def surface_weights(K, i, j):
    """Face weights c_k with p_ij = sum_k c_k A_k."""
    c = np.full(K, 1.0 / (K * (K - 1)))
    c[j] += 1.0 / K
    c[i] -= 1.0 / K
    return c


def kappa(K):
    """The volume forms' weight on a cell of K faces, 2 / (K (K - 1))."""
    return 2.0 / (K * (K - 1))


# The other weights of the pair construction.  SPLIT is each extension's
# share in the average avg(U, V) of two extensions, the flux argument of the
# face and volume forms.  In a pair's volume term the flux of the cell's own
# extension E has weight VOLUME_WEIGHT_OWN and the flux of each of the pair's
# two extensions VOLUME_WEIGHT_EXTENSION; the jump of the two extensions is
# coupled with weight DISSIPATIVE_WEIGHT.
SPLIT = 0.5
VOLUME_WEIGHT_OWN = -1.0
VOLUME_WEIGHT_EXTENSION = 0.5
DISSIPATIVE_WEIGHT = 1.0 / 3.0


# ---------------------------------------------------------------------------
# acoustics: pairwise cell stabilization, all stabilized cells at once
# ---------------------------------------------------------------------------

# a batch holds at most as many cells of one group as keep one matrix's
# table-pair blocks ((S R)^2 entries per cell) within this many entries,
# 1 MB: the batch's arrays then add little to the peak memory of a setup
_BATCH_ENTRIES = 2 ** 17


def _neighborhood(mesh, cell_id):
    """A cell's neighbor per face (None on the boundary), its sorted
    neighborhood, and each neighbor's position in it (-1 on the boundary)."""
    nb = [mesh.neighbor(cell_id, fid) for fid in mesh.cell_faces(cell_id).tolist()]
    cells = sorted({cell_id} | {C for C in nb if C is not None})
    return nb, cells, tuple(-1 if C is None else cells.index(C) for C in nb)


def _cell_faces(mesh, cell_ids):
    """The face ids (B, K) of cells with one face count, in polygon order."""
    lo = mesh.cell_offsets[cell_ids]
    return mesh.cell_face_ids[lo[:, None] + np.arange(mesh.cell_offsets[cell_ids[0] + 1] - lo[0])]


def _wave_layout(mesh, cell_id):
    """Neighborhood, extension sources and pair pattern of one small cell.

    An extension source is a cell C of the neighborhood, extended as is, or
    C's extension with its velocity mirrored across the wall face.  The
    plain sources come first, one per neighborhood cell in the
    neighborhood's (sorted) order, then the mirrored ones in face order.
    Returns (cells, source cells, pattern); the pattern ``(K, wall, e, plain,
    mirror)`` is what the pair weights depend on: the wall face's position
    (-1 without a wall), the cell's own source, and per face the source of
    the neighbor's plain and of its mirrored extension (-1 where there is
    none).
    """
    nb, cells, plain = _neighborhood(mesh, cell_id)
    K = len(nb)
    walls = [k for k in range(K) if nb[k] is None]
    if len(walls) >= 2:
        face_ids = mesh.cell_faces(cell_id)
        raise CornerCellError(
            f"cell {cell_id}: faces {face_ids[walls[0]]} and {face_ids[walls[1]]} are both "
            "boundary faces; the pairwise stabilization does not define this configuration"
        )
    wall = walls[0] if walls else -1
    mirrored = list(dict.fromkeys(nb[k] for k in range(K) if k != wall)) if wall >= 0 else []
    mirror = tuple(
        len(cells) + mirrored.index(nb[k]) if wall >= 0 and k != wall else -1 for k in range(K)
    )
    return cells, cells + mirrored, (K, wall, cells.index(cell_id), plain, mirror)


def _pair_weights(K, wall, e, plain, mirror):
    """Scalar weights of each (test source, trial source) pair of one pattern:
    per face for the flux, (split, divergence) for the volume, and one for
    the dissipation."""
    S = 1 + max((e,) + plain + mirror)
    volume_scale = kappa(K)
    flux_w = np.zeros((K, S, S))
    volume_w = np.zeros((2, S, S))
    diss_w = np.zeros((1, S, S))
    for i in range(K):
        for j in range(i + 1, K):
            # a pair (i, j) with wall i uses the extension of face j's
            # neighbor, mirrored across the wall
            si = mirror[j] if i == wall else plain[i]
            sj = mirror[i] if j == wall else plain[j]
            # flux redistribution between the two faces, averaged over the
            # two extensions; test argument: the extension from E minus
            # (for an internal face b) the extension from its neighbor
            for a, b in ((i, j), (j, i)):
                c = SPLIT * surface_weights(K, a, b)
                tests = [(e, 1.0)]
                if b != wall:
                    tests.append((plain[b], -1.0))
                for t, sign in tests:
                    flux_w[:, t, si] += sign * c
                    flux_w[:, t, sj] += sign * c
            # volume split over E and the two extensions: the averaged flux
            # minus the flux of the tested source, and the divergence form,
            # linear in the test slots i and j
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
    return flux_w, volume_w, diss_w


def _table_weights(pattern):
    """The pattern's pair weights moved from sources onto tables, and the
    neighborhood slot of each table.

    A source's vector basis is its cell's scalar values times the identity,
    minus, if it is mirrored, twice its values at the wall feet times the
    normal projector.  So there are as many tables as sources: table x < n
    holds the values of neighborhood cell x, and table x >= n the mirrored
    source x's values at the feet.  With E (source, table) the 0/1 map of
    which tables make up each source, a weight matrix W over source pairs is
    E^T W E over table pairs.
    """
    K, _, _, plain, mirror = pattern
    weights = _pair_weights(*pattern)
    S = weights[0].shape[-1]
    slot = np.arange(S)
    for k in range(K):
        if mirror[k] >= 0:
            slot[mirror[k]] = plain[k]
    E = np.zeros((S, S))
    E[np.arange(S), slot] = 1.0
    n = 1 + slot.max()
    E[np.arange(n, S), np.arange(n, S)] = 1.0
    return [E.T @ W @ E for W in weights], slot


@dataclass
class SourceTables:
    """The extension-source tables of a batch of B cells and their scalar
    Gram products, as :func:`source_tables` builds them (k = n_modes, S
    sources, K faces of nq points, nc cell points).

    ``face_phi`` (B, K, S, nq, k) and ``cell_phi`` (B, S, nc, k) hold each
    source's basis values at the face points and the cell points, and
    ``cell_grad`` (B, S, nc, k, 2) its gradients at the cell points; a
    mirrored source's at the feet of the points on the wall line, with the
    gradients' normal part dropped, and ``face_w`` (B, K, nq) the face
    rules' weights.  ``face_gram`` (B, K, S k, S k) pairs
    the values on each face, ``phi_x^T W_face phi_y``, and ``cell_gram``
    (B, 2, S k, S k) the gradients by direction with the values in the
    cell, ``(d_d phi_x)^T W_cell phi_y``; rows are (source, test mode),
    columns (source, trial mode).
    """

    outward: np.ndarray       # (B, K, 2) the faces' outward unit normals
    wall_normal: np.ndarray   # (B, 2) the wall face's normal, None without a wall
    face_phi: np.ndarray
    face_w: np.ndarray
    cell_phi: np.ndarray
    cell_grad: np.ndarray
    face_gram: np.ndarray
    cell_gram: np.ndarray


def source_tables(space, cell_ids, sources, wall=-1, n=None):
    """(a) The tables of the extension sources ``sources`` (B, S) of a batch
    of cells with one face count and one cell-rule size.

    Sources before ``n`` (default: all) are plain: the cell's polynomial
    evaluated as is.  The others are mirrored across the face at position
    ``wall`` of each cell: their table holds the values at each point's foot
    on the wall line, which the vector part of :func:`vector_parts` turns
    into the reflected velocity.
    """
    mesh = space.mesh
    sources = np.asarray(sources)
    B, S = sources.shape
    n = S if n is None else n

    # all tables' values at the face points, then the cell points, and their
    # gradients at the cell points: the plain tables at the points
    # themselves, the mirrored ones at their feet on the wall line, with the
    # gradient's normal part dropped
    fids = _cell_faces(mesh, cell_ids)
    K = fids.shape[1]
    nq = space.face_npts
    cell_pts, cell_w, _, _ = space.cell_rules(cell_ids)
    face_pts, face_w = space.face_rule(fids)
    nc = cell_pts.shape[1]
    pts = np.concatenate([face_pts.reshape(B, K * nq, 2), cell_pts], axis=1)
    at = np.repeat(pts[:, None], S, axis=1)
    wall_normal = None
    if wall >= 0:
        wall_normal = mesh.face_normal[fids[:, wall]]
        # each wall line's offset d in {x . normal = d}, as normal . p
        offset = np.array([nrm @ p for nrm, p in zip(wall_normal, mesh.face_p[fids[:, wall]])])
        normal = wall_normal[:, None, None]
        offset = offset[:, None, None, None]
        at[:, n:] -= ((at[:, n:] * normal).sum(axis=-1, keepdims=True) - offset) * normal
    P = at.shape[2]
    centers = np.repeat(space.centers[sources], P, axis=1).reshape(-1, 2)
    k = space.n_modes
    at_cells = np.arange(B * S * P) % P >= P - nc   # the cell points, for the gradients
    phi, grad = monomial_tables(space.exps, centers, space.h, at.reshape(-1, 2), at_cells)
    phi = phi.reshape(B, S, -1, k)
    grad = grad.reshape(B, S, nc, k, 2)
    if wall >= 0:
        g = grad[:, n:]
        g -= (g * normal[:, None]).sum(axis=-1, keepdims=True) * normal[:, None]

    # scalar Gram products, rows (table, test mode), columns (table, trial mode)
    def rows(T):
        """(..., table, point, mode) -> (..., table * mode, point)."""
        return np.swapaxes(T, -1, -2).reshape(T.shape[:-3] + (-1, T.shape[-2]))

    faces_phi = np.moveaxis(phi[:, :, :K * nq].reshape(B, S, K, nq, k), 2, 1)
    wphi = face_w[:, :, None, :, None] * faces_phi
    face_gram = rows(faces_phi) @ np.swapaxes(rows(wphi), -1, -2)
    cell_phi = phi[:, :, K * nq:]
    grads = np.moveaxis(grad, -1, 1)
    wphi = cell_w[:, None, :, None] * cell_phi
    cell_gram = rows(grads) @ np.swapaxes(rows(wphi), -1, -2)[:, None]
    outward = mesh.face_normal[fids] * np.where(
        mesh.face_left[fids] == np.asarray(cell_ids)[:, None], 1.0, -1.0
    )[..., None]
    return SourceTables(outward, wall_normal, faces_phi, face_w, cell_phi, grad, face_gram,
                        cell_gram)


def vector_parts(tables):
    """The 3 x 3 vector part of each batch cell's plain tables (I) and of its
    mirrored ones (-2 N, with N the projector onto the wall-normal
    velocity), (B, 2, 3, 3): a source's vector basis is the sum of its
    tables' scalar values times their parts."""
    B = len(tables.outward)
    parts = np.broadcast_to(_I3, (B, 2, 3, 3)).copy()
    if tables.wall_normal is not None:
        e_n = np.concatenate([np.zeros((B, 1)), tables.wall_normal], axis=1)
        parts[:, 1] = -2.0 * (e_n[:, :, None] * e_n[:, None, :])
    return parts


def _pair_matrices(space, spec, cell_ids, sources, pattern):
    """(b) The unscaled pair matrices (surface, volume, dissipative) of a
    batch of B cells with one pattern and one cell-rule size, each (B, n R,
    n R) over the cells' neighborhoods (n cells, R = 3 n_modes test modes
    per cell).

    ``sources`` holds each cell's source cells, (B, S), and the pair weights
    come from :func:`_table_weights`.  Each Gram product of
    :func:`source_tables` times a table pair's weight and the 3 x 3
    coupling of its two vector parts, M_x Z M_y^T with M = I or -2 N and
    Z = A_n, I or A_d, is the pair's block.  The table blocks are then
    added into their cells'.
    """
    weights, slot = _table_weights(pattern)
    B, S = sources.shape
    n = 1 + slot.max()
    tables = source_tables(space, cell_ids, sources, pattern[1], n)
    parts = vector_parts(tables)
    k = space.n_modes

    # the 3 x 3 coupling of every table pair in each of the three matrices,
    # per Gram term: for surface and dissipative the faces, for volume the
    # two gradient directions
    An = spec.A_n(tables.outward)
    s = spec.dissipation(tables.outward)
    Ad = np.stack([spec.A1, spec.A2])[None]
    mirrored = (np.arange(S) >= n).astype(int)

    def couple(Z):
        """M_x Z M_y^T for every table pair, Z (B or 1, L, 3, 3)."""
        c = parts[:, None, :, None] @ Z[:, :, None, None]
        c = c @ np.swapaxes(parts, -1, -2)[:, None, None]
        return c[:, :, mirrored][:, :, :, mirrored]

    R = 3 * k

    def to_cells(gram, coupling):
        """Sum a matrix's Gram terms times their couplings per table pair,
        add each table's blocks into its cell's, and order the dofs."""
        L = gram.shape[1]
        # per table pair, (test mode, trial mode) by term times term by
        # (test component, trial component)
        gram = gram.reshape(B, L, S, k, S, k).transpose(0, 2, 4, 3, 5, 1)
        gram = gram.reshape(B, S, S, k * k, L)
        blocks = gram @ coupling.transpose(0, 2, 3, 1, 4, 5).reshape(B, S, S, L, 9)
        for x in range(n, S):
            blocks[:, slot[x]] += blocks[:, x]
        for y in range(n, S):
            blocks[:, :, slot[y]] += blocks[:, :, y]
        out = np.empty((B, n * R, n * R))
        out.reshape(B, n, k, 3, n, k, 3)[...] = (
            blocks[:, :n, :n].reshape(B, n, n, k, k, 3, 3).transpose(0, 1, 3, 5, 2, 4, 6))
        return out

    flux_w, volume_w, diss_w = (W[..., None, None] for W in weights)
    return (
        to_cells(tables.face_gram, flux_w * couple(An)),
        to_cells(tables.cell_gram,
                 volume_w[0] * couple(Ad) + volume_w[1] * couple(Ad.swapaxes(-1, -2))),
        to_cells(tables.face_gram,
                 s[:, :, None, None, None, None] * diss_w * couple(_I3[None, None])),
    )


# ---------------------------------------------------------------------------
# propagation forms of one cell from its own source's Gram products (axiom
# checks)
# ---------------------------------------------------------------------------
#
# ``tables`` is source_tables(space, [cid], [[cid]]): the cell's own
# extension is its only source.  U, V, W are blocks of the cell's basis,
# (n_modes, m), or stacks of them, (..., n_modes, m); each form returns one
# value per stacked triple.


def face_forms(tables, spec, U, V, W):
    """A_k(U, V, W) = int_{face k} < A_n avg(U, V), W > for every face k,
    shape (..., K)."""
    AnT = np.swapaxes(spec.A_n(tables.outward[0]), -1, -2)
    flux = tables.face_gram[0] @ (SPLIT * (U + V))[..., None, :, :] @ AnT
    return np.sum(flux * W[..., None, :, :], axis=(-2, -1))


def surface_forms(A):
    """p_ij = sum_k c_k A_k (:func:`surface_weights`) for every ordered pair
    of faces, from the face forms A (..., K); shape (..., K, K), zero for
    i = j."""
    K = A.shape[-1]
    c = np.zeros((K, K, K))
    for i in range(K):
        for j in range(K):
            if i != j:
                c[i, j] = surface_weights(K, i, j)
    return np.einsum("...k,ijk->...ij", A, c)


def volume_forms(tables, spec, U, V, W):
    """(p_V, p_V*): kappa times the averaged flux against grad W, and kappa
    times its divergence against W (:func:`kappa`)."""
    scale = kappa(tables.outward.shape[1])
    gram = tables.cell_gram[0]
    AdT = np.stack([spec.A1.T, spec.A2.T])
    ubar = (SPLIT * (U + V))[..., None, :, :]
    W = W[..., None, :, :]
    p_v = scale * np.sum((gram @ ubar @ AdT) * W, axis=(-3, -2, -1))
    p_vs = scale * np.sum((np.swapaxes(gram, -1, -2) @ ubar @ AdT) * W, axis=(-3, -2, -1))
    return p_v, p_vs


@dataclass
class PenaltyGroup:
    """B stabilized cells of one pattern and cell-rule size: their ids and
    strengths (B,), sorted neighborhoods ``cells`` (B, n), unscaled matrices
    ``parts`` by name and local matrices ``local`` (B, n R, n R), each array
    stacked over the cells and owning its memory."""

    cell_ids: np.ndarray
    eta: np.ndarray
    cells: np.ndarray
    parts: dict
    local: np.ndarray = None


class _Penalty:
    """What both penalties share: the stabilized cells in ``groups``, one
    :class:`PenaltyGroup` per batch of one pattern and cell-rule size.
    Subclasses provide ``_layouts(mesh, cell_ids)``, which yields each
    cell's (neighborhood, sources, pattern); ``_contract(space, spec,
    cell_ids, sources, pattern)``, a batch's matrices named in ``_names``; and
    ``_local(group)``.  A local matrix maps the neighborhood's coefficients,
    in the order of ``u.coeffs[cells].ravel()``, to the penalty's test
    modes."""

    def __init__(self, space, spec, small, eta):
        self.space, self.spec = space, spec
        batches = {}
        for cid, layout in zip(small, self._layouts(space.mesh, small)):
            key = layout[2], int(space.rule_size[cid])
            batches.setdefault(key, []).append((cid,) + layout[:2])
        R = space.n_modes * spec.m
        self.groups = []
        for (pattern, _), members in batches.items():
            step = max(1, _BATCH_ENTRIES // (len(members[0][2]) * R) ** 2)
            for lo in range(0, len(members), step):
                ids, cells, sources = (np.array(a) for a in zip(*members[lo:lo + step]))
                parts = self._contract(space, spec, ids, sources, pattern)
                group = PenaltyGroup(ids, eta[ids], cells, dict(zip(self._names, parts)))
                group.local = self._local(group)
                self.groups.append(group)

    def _by_cell(self, per_group):
        """The groups' arrays, rows grouped by cell, as one array stably
        sorted by the rows' cell."""
        owner = np.concatenate([np.repeat(g.cell_ids, len(a) // len(g.cell_ids))
                                for g, a in zip(self.groups, per_group)])
        return np.concatenate(per_group)[np.argsort(owner, kind="stable")]

    def blocks(self):
        """The local matrices as one (row cells, column cells, blocks)
        triplet, in ascending cell order: the order block_matrix sums in."""
        triplets = [local_blocks(g.cells, g.local) for g in self.groups]
        return [tuple(self._by_cell(part) for part in zip(*triplets))]


class WaveStabilization(_Penalty):
    """Penalty assembly for acoustics over a fixed stabilized-cell set.

    A group's parts ``surface``, ``volume`` and ``dissipative`` are its
    cells' unscaled pair matrices over their neighborhoods.  A cell's
    pattern is its face count, wall face, and the face-to-source map of the
    pair weights.
    """

    _names = ("surface", "volume", "dissipative")
    _contract = staticmethod(_pair_matrices)

    def _layouts(self, mesh, cell_ids):
        return (_wave_layout(mesh, cid) for cid in cell_ids)

    def _local(self, group):
        space, spec, mesh = self.space, self.spec, self.space.mesh
        R = space.n_modes * spec.m
        # eta (surface + volume + dissipative) minus eta times each face's
        # matrix, in face order.  face_matrices builds the base form's too, so
        # at eta = 1 they cancel bit for bit; a face matrix's central and
        # dissipative parts share no nonzero entry, so one subtraction is two.
        fids = _cell_faces(mesh, group.cell_ids)
        B, K = fids.shape
        faces = face_matrices(space, spec, fids.ravel()).reshape(B, K, 2 * R, 2 * R)
        # the dofs of each face's left and right cell in the sorted neighborhood
        ends = np.stack([mesh.face_left[fids], mesh.face_right[fids]], axis=-1)
        dofs = (group.cells[:, None, None] < ends[..., None]).sum(axis=-1) * R
        dofs = (dofs[..., None] + np.arange(R)).reshape(B, K, 2 * R)
        eta, parts, b = group.eta[:, None, None], group.parts, np.arange(B)[:, None, None]
        A = eta * (parts["surface"] + parts["volume"] + parts["dissipative"])
        for k in range(K):
            n = R * (1 + (mesh.face_right[fids[0, k]] >= 0))   # a wall face has one cell
            idx = dofs[:, k, :n]
            A[b, idx[:, :, None], idx[:, None]] -= eta * faces[:, k, :n, :n]
        return A


# ---------------------------------------------------------------------------
# advection: upstream-extension stabilization
# ---------------------------------------------------------------------------


def _upstream_matrices(space, spec, cell_ids, sources, pattern):
    """The unscaled ``outflow`` and ``volume`` matrices (B, S k, S k) and
    the ``boundary_outflow`` rows (B, S, k) of a batch of B cells with one
    pattern and one cell-rule size, over their S-cell neighborhoods.

    The pattern ``(K, e, u, plain)`` holds the neighborhood positions of the
    cell E, its upstream neighbor U and each face's neighbor C_k (-1 on the
    boundary).  With (a)'s Gram products G, ``outflow`` is (beta.n_k)^+
    (G_k[E,U] - G_k[E,E] - G_k[C_k,U] + G_k[C_k,E]) summed over the faces:
    the defect phi_U - phi_E against the test function's jump.  ``volume``
    is sum_d beta_d (G_d[U,U] - G_d[U,E] - G_d[E,U] + G_d[E,E]), and
    ``boundary_outflow`` the outflow rate (beta.n)^+ int (phi_U - phi_E) on
    the physical boundary faces.
    """
    K, e, u, plain = pattern
    S = sources.shape[1]
    beta, k = spec.beta, space.n_modes
    tables = source_tables(space, cell_ids, sources)
    bn = np.maximum(tables.outward @ beta, 0.0)
    defect = np.zeros(S)
    defect[[u, e]] = 1.0, -1.0
    jump = np.zeros((K, S + 1))   # the extra column answers plain = -1
    jump[:, e] = 1.0
    jump[np.arange(K), plain] = -1.0
    face_w = bn[:, :, None, None] * (jump[:, :S, None] * defect)
    cell_w = beta[:, None, None] * np.outer(defect, defect)

    def contract(gram, w):
        """sum_l w[l, x, y] gram[l, (x, i), (y, j)] per cell, w ([B,] L, S, S)."""
        return np.sum(w.repeat(k, axis=-2).repeat(k, axis=-1) * gram, axis=1)

    wall = bn * (np.array(plain) < 0)
    integrals = np.einsum("bk,bkq,bksqj->bsj", wall, tables.face_w, tables.face_phi)
    return (contract(tables.face_gram, face_w), contract(tables.cell_gram, cell_w),
            defect[:, None] * integrals)


class AdvectionStabilization(_Penalty):
    """Penalty assembly for advection over a fixed stabilized-cell set: a
    group's parts ``outflow`` and ``volume`` are its cells' unscaled
    matrices over their neighborhoods, which are also their lists of
    (plain) sources."""

    _names = ("outflow", "volume", "boundary_outflow")
    _contract = staticmethod(_upstream_matrices)

    def _layouts(self, mesh, cell_ids):
        if self.spec.kind != "advection":
            raise ConfigurationError("advection stabilization requires an advection system")
        for cid, up in zip(cell_ids, upstream_cells(mesh, cell_ids, self.spec.beta).tolist()):
            nb, cells, plain = _neighborhood(mesh, cid)
            yield cells, cells, (len(nb), cells.index(cid), cells.index(up), plain)

    def _local(self, group):
        return group.eta[:, None, None] * (group.parts["outflow"] + group.parts["volume"])

    def boundary_outflow_weights(self):
        """Weights g with g . u the penalty's outflow-rate correction on
        physical boundary faces."""
        k = self.space.n_modes
        g = np.zeros((self.space.mesh.num_cells, k, 1))
        rates = [(grp.eta[:, None, None] * grp.parts["boundary_outflow"]).reshape(-1, k)
                 for grp in self.groups]
        np.add.at(g[:, :, 0], self._by_cell([grp.cells.ravel() for grp in self.groups]),
                  self._by_cell(rates))
        return g
