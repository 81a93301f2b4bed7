"""Assembly of the semi-discrete operator for both systems.

The residual array holds the bilinear form paired against every test mode,
shape (num_cells, n_modes, m).  Time stepping uses du/dt = -M^{-1} residual.

The form is linear and constant in time, so it is assembled once, from local
matrices built in closed form from ``Space``'s tables: each face
term is a trace Gram matrix phi_x^T W phi_y Kronecker an m x m flux matrix
(:func:`~cutdg.systems.flux_matrices`), built for any set of faces by
:func:`face_matrices`, and each cell's volume term is
-sum_d (d_d phi)^T W phi Kronecker A_d (:func:`volume_matrices`).  The
small-cell stabilization subtracts :func:`face_matrices` of its cells'
faces as its cancellation blocks.

* Full background cells share one set of trace and volume tables: every
  face between two of them in one direction, every outer-box wall of one on
  one side and every such cell's volume term has one local matrix, built
  on a representative.  So every full cell with four full grid neighbours
  (a stencil cell) has the same row: (k m, k m) blocks on itself and those
  of its west, east, south and north neighbours that the flux couples, d
  blocks in all (five under a Rusanov flux; an upwind flux leaves out the
  outflow neighbours, whose blocks are exactly zero).
* Every other row (cut cells, full cells on a wall or next to a cut cell)
  is kept as (k m, k m) cell blocks, which :func:`assemble` sums with the
  small-cell penalty's blocks, on any row, into one block-sparse matrix.

:func:`assemble` returns B + S as a :class:`SemiDiscreteOperator`, whose
:meth:`~SemiDiscreteOperator.folded` folds the mass inverse into both parts
once, by Cholesky solves on their row blocks, into K = -M^{-1} (B + S); an
apply is then one matmul, one 0/1 sparse shift and one block-sparse
product, and no mass solve.  :meth:`~SemiDiscreteOperator.matrix` returns
either map as one block-sparse matrix.

Dofs are numbered cell by cell, each (n_modes, m) block flattened row-major,
i.e. in the order of ``coeffs.ravel()``.
"""

import numpy as np
from scipy import sparse

from .systems import flux_matrices


def local_blocks(cells, A):
    """(row cells, column cells, (k m, k m) blocks) triplets of the local
    matrices ``A`` (n, s k m, s k m) over the cells ``cells`` (n, s)."""
    n, s = cells.shape
    km = A.shape[-1] // s
    blocks = A.reshape(n, s, km, s, km).swapaxes(2, 3).reshape(-1, km, km)
    return np.repeat(cells, s, axis=1).ravel(), np.tile(cells, (1, s)).ravel(), blocks


def block_matrix(triplets, num_cells):
    """BSR matrix summing ``(rows, cols, blocks)`` triplets over the global dofs.

    Blocks at one (row cell, column cell) position are summed in the order
    given; a sum that is exactly zero (a component or upwind coupling the
    system does not have) is left out.
    """
    rows, cols, blocks = (np.concatenate(part) for part in zip(*triplets))
    km = blocks.shape[-1]
    key, slot = np.unique(rows * num_cells + cols, return_inverse=True)
    # the 0/1 matrix that sums each position's blocks, in the order given
    adder = sparse.csr_matrix((np.ones(len(slot)), (slot, np.arange(len(slot)))),
                              shape=(len(key), len(slot)))
    blocks = (adder @ blocks.reshape(-1, km * km)).reshape(-1, km, km)
    kept = blocks.any(axis=(1, 2))
    rows, cols = np.divmod(key[kept], num_cells)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=num_cells))])
    return sparse.bsr_matrix((blocks[kept], cols, indptr), shape=(num_cells * km,) * 2)


def face_matrices(space, spec, fids, central=True, dissipative=True):
    """The face terms' local matrices of faces ``fids``, (F, 2 k m, 2 k m).

    Rows are the test modes and columns the dofs of the face's left cell,
    then its right cell.  The block of test cell x and trial cell y is
    +-(phi_x^T W phi_y) Kronecker the flux matrix of y (minus for the right
    cell, whose outward normal is reversed); ``central`` and ``dissipative``
    select the flux's parts as in :func:`~cutdg.systems.flux_matrices`.  On
    a wall face only the left cell's (k m, k m) block is nonzero.
    """
    mesh = space.mesh
    fids = np.asarray(fids, dtype=np.int64)
    flux = np.stack(flux_matrices(
        spec, mesh.face_normal[fids], mesh.face_right[fids] < 0, central, dissipative
    ), axis=1)
    phi_left, phi_right, w = space.face_traces(fids)
    phi = np.stack([phi_left, phi_right], axis=1)
    wphi = w[:, None, :, None] * phi
    gram = np.swapaxes(phi, -1, -2)[:, :, None] @ wphi[:, None]
    gram[:, 1] *= -1.0
    # (face, x, test mode, test component, y, trial mode, trial component)
    blocks = (gram.transpose(0, 1, 3, 2, 4)[:, :, :, None, :, :, None]
              * flux.transpose(0, 2, 1, 3)[:, None, None, :, :, None, :])
    n = 2 * space.n_modes * spec.m
    return blocks.reshape(len(fids), n, n)


def volume_matrices(space, spec, cids):
    """The volume terms' local matrices of cells ``cids``, (C, k m, k m):
    -sum_d (d_d phi)^T W phi Kronecker A_d.

    The Gram products are taken per group of cells with one rule size, on
    their tables stacked (:meth:`~cutdg.quadrature.Space.cell_rules`)."""
    cids = np.asarray(cids, dtype=np.int64)
    gram = np.empty((len(cids), 2, space.n_modes, space.n_modes))
    sizes = space.rule_size[cids]
    for size in np.unique(sizes).tolist():
        g = np.flatnonzero(sizes == size)
        _, w, phi, grad = space.cell_rules(cids[g])
        gram[g] = np.moveaxis(grad, -1, 1).swapaxes(-1, -2) @ (w[..., None] * phi)[:, None]
    blocks = -(gram[:, 0, :, None, :, None] * spec.A1[:, None, :]
               + gram[:, 1, :, None, :, None] * spec.A2[:, None, :])
    n = space.n_modes * spec.m
    return blocks.reshape(len(cids), n, n)


def assemble(space, spec, stab=None):
    """B + S: the base form of ``spec`` on ``space`` plus the penalty
    ``stab`` (if any), as one :class:`SemiDiscreteOperator`.

    A stencil cell is an uncut cell whose four grid neighbours exist and are
    uncut.  All their rows share one set of blocks: the volume term plus the
    four faces' own blocks, then the west, east, south and north
    neighbours' couplings.  The stencil keeps the own block and, in that
    order, the neighbours' blocks that are nonzero (all four under a Rusanov
    flux, the inflow neighbours' under an upwind one).  Every other row's
    couplings, and the penalty's, are summed into the coupling.
    """
    mesh, uncut = space.mesh, space.uncut
    km = space.n_modes * spec.m
    cut_ids = space.cut_ids

    # each cell with its west, east, south and north neighbours (-1: none)
    grid = np.pad(mesh._cell_grid, 1, constant_values=-1)
    i, j = mesh.cell_ij.T + 1
    around = grid[[j, j, j, j - 1, j + 1], [i, i - 1, i + 1, i, i]].T
    stencil = np.all((around >= 0) & uncut[around], axis=1)

    # a full face (between two uncut cells, or a wall of one) has the local
    # matrix of the first such face of its kind: internal or wall, and
    # normal.  Only the full faces with a row outside the stencil are kept.
    left, right = mesh.face_left, mesh.face_right
    internal = right >= 0
    cells = np.column_stack([left, right])
    full = uncut[left] & np.where(internal, uncut[np.maximum(right, 0)], True)
    fids = np.flatnonzero(full & ~(stencil[left] & stencil[right]))
    normal = np.rint(mesh.face_normal[fids])
    code = 4 * internal[fids] + 2 * (normal[:, 1] != 0) + (normal.sum(axis=1) > 0)
    codes, first, kind = np.unique(code, return_index=True, return_inverse=True)
    # kind q's block of test cell x and trial cell y is A[4 q + 2 x + y]
    A = local_blocks(cells[fids[first]], face_matrices(space, spec, fids[first]))[2]
    uncut_ids = np.flatnonzero(uncut)
    V = volume_matrices(space, spec, uncut_ids[:1])
    shared = np.zeros((5, km, km))
    if stencil.any():
        x, y = (4 * np.searchsorted(codes, c) for c in (5, 7))   # internal, normal +x, +y
        shared[:] = [V[0] + A[x] + A[x + 3] + A[y] + A[y + 3],
                     A[x + 2], A[x + 1], A[y + 2], A[y + 1]]
    # the own block and each neighbour's that the flux couples (an upwind
    # flux has no outflow neighbour's block)
    coupled = np.flatnonzero(np.r_[True, shared[1:].any(axis=(1, 2))])

    # every other row: the cut cells' volume terms and faces (internal,
    # then walls), and the volume terms and full faces of the other uncut cells
    blocks = [local_blocks(cut_ids[:, None], volume_matrices(space, spec, cut_ids))]
    other = np.flatnonzero(~full)
    for f, s in ((other[internal[other]], 2), (other[~internal[other]], 1)):
        if len(f):
            A_f = face_matrices(space, spec, f)[:, :s * km, :s * km]
            blocks.append(local_blocks(cells[f, :s], A_f))
    rest = uncut_ids[~stencil[uncut_ids]]
    blocks.append((rest, rest, np.broadcast_to(V, (len(rest), km, km))))
    rows, cols = np.repeat(cells[fids], 2, axis=1).ravel(), np.tile(cells[fids], 2).ravel()
    keep = (np.minimum(rows, cols) >= 0) & ~stencil[rows]
    slots = (4 * kind[:, None] + np.arange(4)).ravel()
    blocks.append((rows[keep], cols[keep], A[slots[keep]]))
    if stab is not None:
        blocks += stab.blocks()
    return SemiDiscreteOperator(shared[coupled], around[stencil][:, coupled],
                                block_matrix(blocks, mesh.num_cells))


class SemiDiscreteOperator:
    """A linear map of the cell coefficients in two parts: the blocks
    ``stencil`` (d, k m, k m) shared by the rows of ``stencil_cells`` (n, d),
    each a stencil cell followed by the d - 1 neighbours its row couples,
    and the BSR matrix ``coupling`` of (k m, k m) cell blocks on any row.

    :func:`assemble` builds B + S, and :meth:`folded` du/dt = K u with
    K = -M^{-1} (B + S).  A call multiplies every cell by all d stencil
    blocks in one matmul, sums each stencil row's d products with the 0/1
    matrix ``shift``, and adds the block-sparse product; ``shift`` and the
    products' buffer are built on the first call.
    """

    def __init__(self, stencil, stencil_cells, coupling):
        self.stencil = stencil
        self.stencil_cells = stencil_cells
        self.coupling = coupling
        self.shift = None
        # the d blocks side by side, (k m, d k m), C-ordered for the apply's matmul
        km = stencil.shape[-1]
        self._operand = np.ascontiguousarray(stencil.reshape(-1, km).T)

    def __call__(self, coeffs):
        x = coeffs.reshape(coeffs.shape[0], -1)
        if self.shift is None:
            # row c sums c's own product and its neighbours', in stencil order
            sc, num_cells = self.stencil_cells, x.shape[0]
            d = sc.shape[1]
            indptr = np.zeros(num_cells + 1, dtype=np.int64)
            indptr[sc[:, 0] + 1] = d
            self.shift = sparse.csr_matrix((np.ones(sc.size), (d * sc + np.arange(d)).ravel(),
                                            np.cumsum(indptr)), shape=(num_cells, d * num_cells))
            self._products = np.empty((num_cells, d * x.shape[1]))
        np.matmul(x, self._operand, out=self._products)
        res = self.shift @ self._products.reshape(-1, x.shape[1])
        res += (self.coupling @ x.ravel()).reshape(res.shape)
        return res.reshape(coeffs.shape)

    def matrix(self):
        """The whole map as one BSR matrix: each stencil cell's d blocks plus
        the coupling's."""
        cells, coupling = self.stencil_cells, self.coupling
        num_cells = len(coupling.indptr) - 1
        rows = np.repeat(np.arange(num_cells), np.diff(coupling.indptr))
        return block_matrix([(np.repeat(cells[:, 0], cells.shape[1]), cells.ravel(),
                              np.tile(self.stencil, (len(cells), 1, 1))),
                             (rows, coupling.indices, coupling.data)], num_cells)

    def folded(self, space):
        """-M^{-1} times this map, with ``space``'s mass matrices.

        The mass inverse is applied block row by block row
        (:meth:`Space.mass_solve`): uncut rows, the stencil's among them,
        by one product with the reference mass's inverse, cut rows by
        Cholesky solves with their own factors (a cut-cell mass is never
        inverted).  Every cut-cell mass matrix is factored, so a singular
        one is reported before the first step.
        """
        k = space.n_modes

        def fold(blocks, cells):
            """-M^{-1} applied to stacked rows: row block i (k m rows) is cells[i]'s."""
            rhs = blocks.reshape(len(cells), k, -1)
            return -space.mass_solve(rhs, cells).reshape(blocks.shape)

        # stencil cells are uncut: one fold with the reference mass serves them all
        stencil = fold(self.stencil, np.full(len(self.stencil), np.argmax(space.uncut)))
        c = self.coupling
        block_rows = np.repeat(np.arange(len(c.indptr) - 1), np.diff(c.indptr))
        coupling = sparse.bsr_matrix((fold(c.data, block_rows), c.indices, c.indptr), shape=c.shape)
        space.cut_mass_factors()
        return SemiDiscreteOperator(stencil, self.stencil_cells, coupling)


def outflow_weights(space, spec, stab=None):
    """Weights g with g . u the outflow rate of the first state component,
    penalty included: advection's u, or acoustics' pressure, which never
    leaves (every boundary is a reflecting wall, v.n = 0), so g is zero."""
    if spec.kind != "advection":
        return np.zeros((space.mesh.num_cells, space.n_modes, spec.m))
    g = boundary_outflow_weights(space, spec)
    if stab is not None:
        g += stab.boundary_outflow_weights()
    return g


def boundary_outflow_weights(space, spec):
    """Weights g with g . u the advection outflow, integral of (beta.n)^+ u
    over the physical boundary."""
    mesh = space.mesh
    wall = np.flatnonzero(mesh.face_right < 0)
    n = mesh.face_normal[wall]
    bn = np.maximum(spec.beta[0] * n[:, 0] + spec.beta[1] * n[:, 1], 0.0)
    phi, _, w = space.face_traces(wall)
    face_g = bn[:, None] * np.einsum("fq,fqk->fk", w, phi)
    g = np.zeros((mesh.num_cells, space.n_modes, 1))
    np.add.at(g[:, :, 0], mesh.face_left[wall], face_g)
    return g
