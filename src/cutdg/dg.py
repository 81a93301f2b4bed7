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

* Full background cells share one set of trace and volume tables.  Every
  face between two of them in one direction, every outer-box wall of one on
  one side, and every such cell's volume term therefore has the same local
  matrix; it is built once on a representative and applied to all of them
  by one gather, one matmul per group and one scatter (a 0/1 sparse
  matrix), through work buffers allocated once.
* Everything touching a cut cell (its volume term, each of its faces) is
  kept as (k m, k m) cell blocks, which :class:`SemiDiscreteOperator` sums
  with the small-cell penalty's blocks into one block-sparse matrix.

:class:`SemiDiscreteOperator` folds the mass inverse into both parts once,
by Cholesky solves on their row blocks, so applying it runs the same
gather/matmul/scatter loop (:meth:`AssemblyPlan.apply`) on the folded
matrices and one block-sparse product, and no mass solve.

Dofs are numbered cell by cell, each (n_modes, m) block flattened row-major,
i.e. in the order of ``coeffs.ravel()``.
"""

import numpy as np
from scipy import sparse

from .errors import ConfigurationError
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
    phi = np.stack(space.face_traces(fids), axis=1)
    wphi = space.face_w[fids][:, None, :, None] * phi
    gram = np.swapaxes(phi, -1, -2)[:, :, None] @ wphi[:, None]
    gram[:, 1] *= -1.0
    # (face, x, test mode, test component, y, trial mode, trial component)
    blocks = (gram.transpose(0, 1, 3, 2, 4)[:, :, :, None, :, :, None]
              * flux.transpose(0, 2, 1, 3)[:, None, None, :, :, None, :])
    n = 2 * space.n_modes * spec.m
    return blocks.reshape(len(fids), n, n)


def volume_matrices(space, spec, cids):
    """The volume terms' local matrices of cells ``cids``, (C, k m, k m):
    -sum_d (d_d phi)^T W phi Kronecker A_d."""
    gram = np.empty((len(cids), 2, space.n_modes, space.n_modes))
    for i, c in enumerate(cids):
        wphi = space.cell_w[c][:, None] * space.cell_phi[c]
        gram[i] = np.moveaxis(space.cell_grad[c], -1, 0).swapaxes(-1, -2) @ wphi
    blocks = -(gram[:, 0, :, None, :, None] * spec.A1[:, None, :]
               + gram[:, 1, :, None, :, None] * spec.A2[:, None, :])
    n = space.n_modes * spec.m
    return blocks.reshape(len(cids), n, n)


class AssemblyPlan:
    """The base form's local matrices for one (space, system) pair.

    ``shared`` holds the full-cell couplings as (cells, A) pairs: ``cells``
    is an (n, s) array, one row per face or cell, and ``A`` the local matrix
    common to all rows.  ``blocks`` holds every coupling that touches a cut
    cell as (row cells, column cells, blocks) triplets
    (:func:`local_blocks`); ``coupling`` is their sum as a sparse matrix.
    """

    def __init__(self, space, spec):
        self.space = space
        self.spec = spec
        self.shape = (space.n_modes, spec.m)
        mesh = space.mesh
        uncut = space.uncut

        uncut_ids = np.flatnonzero(uncut)
        self.cut_ids = space.cut_ids

        # faces of full cells, grouped by kind and axis-aligned normal; groups
        # are ordered as the keys (kind, normal) sort, boundary before internal
        left, right = mesh.face_left, mesh.face_right
        internal = right >= 0
        normal = np.rint(mesh.face_normal).astype(np.int64)
        aligned = np.all(np.abs(mesh.face_normal - normal) < 1e-14, axis=1)
        full = uncut[left] & np.where(internal, uncut[np.maximum(right, 0)], True)
        grouped = aligned & full
        # one integer per (kind, normal) key, ordered as the keys sort
        keys = 9 * internal + 3 * (normal[:, 0] + 1) + (normal[:, 1] + 1)
        groups = [np.flatnonzero(grouped & (keys == key)) for key in np.unique(keys[grouped])]

        cells = np.column_stack([left, right])
        km = space.n_modes * spec.m

        def face_entry(fids):
            """(cells, local matrices) of faces of one kind: left, then right if internal."""
            s = 1 + int(internal[fids[0]])
            return cells[fids, :s], face_matrices(space, spec, fids)[:, :s * km, :s * km]

        self.shared = []
        if len(uncut_ids):
            self.shared.append((uncut_ids[:, None], volume_matrices(space, spec, uncut_ids[:1])[0]))
        for fids in groups:
            A = face_entry(fids[:1])[1][0]
            self.shared.append((cells[fids, :len(A) // km], A))
        # the rows every group reads, in group order, and their scatter back
        rows = np.concatenate([np.zeros(0, dtype=np.int64)] + [c.ravel() for c, _ in self.shared])
        self._rows = rows
        self._scatter = sparse.csr_matrix(
            (np.ones(len(rows)), (rows, np.arange(len(rows)))), shape=(mesh.num_cells, len(rows))
        )
        self._work = np.empty((2, len(rows), km))

        ungrouped = np.flatnonzero(~grouped)
        self.blocks = [local_blocks(self.cut_ids[:, None], volume_matrices(space, spec, self.cut_ids))]
        self.blocks += [local_blocks(*face_entry(fids)) for fids in (
            ungrouped[internal[ungrouped]], ungrouped[~internal[ungrouped]]) if len(fids)]

    @property
    def coupling(self):
        return block_matrix(self.blocks, self.space.mesh.num_cells)

    # ------------------------------------------------------------------
    def apply(self, coeffs, shared, coupling):
        """Apply local matrices on the plan's groups plus a sparse matrix.

        ``shared`` holds one matrix per group of ``self.shared``, in order
        (same cells, any matrices of the same shape); ``coupling`` is any
        sparse matrix on the global dofs.
        """
        x = coeffs.reshape(coeffs.shape[0], -1)
        gathered, product = self._work
        np.take(x, self._rows, axis=0, out=gathered, mode="clip")
        start = 0
        for cells, A in shared:
            stop = start + cells.size
            np.matmul(gathered[start:stop].reshape(len(cells), -1), A.T,
                      out=product[start:stop].reshape(len(cells), -1))
            start = stop
        res = self._scatter @ product
        res += (coupling @ x.ravel()).reshape(res.shape)
        return res.reshape(coeffs.shape)

    def residual(self, coeffs, coupling=None):
        """Form applied to a coefficient array; ``coupling`` replaces the sparse part."""
        space = self.space
        expected = (space.mesh.num_cells, space.n_modes, self.spec.m)
        if coeffs.shape != expected:
            raise ConfigurationError(
                f"coefficient blocks {coeffs.shape} do not match the space {expected}"
            )
        return self.apply(coeffs, self.shared, self.coupling if coupling is None else coupling)


class SemiDiscreteOperator:
    """du/dt = K u with K = -M^{-1} (B + S), assembled once before stepping.

    The mass inverse is applied to the matrices at construction, block row
    by block row, with Cholesky solves (never an explicit inverse): each
    shared full-cell local matrix with the reference factor, and the sum of
    B's cut-cell couplings and the penalty S, summed from their block
    triplets (``plan.blocks``, ``stab.blocks()``) into a BSR matrix of
    (k m, k m) cell blocks, with each block row's own factor.  A call is
    then one apply of the plan's groups and one block-sparse product.
    Construction factors every cut-cell mass matrix, so a singular one is
    reported before the first step.
    """

    def __init__(self, plan, stab=None):
        self.plan = plan
        self.stab = stab
        k, m = plan.shape

        def fold(blocks, cells):
            """-M^{-1} applied to stacked rows: row block i (k m rows) is cells[i]'s."""
            rhs = blocks.reshape(len(cells), k, m * blocks.shape[-1])
            return -plan.space.mass_solve(rhs, cells).reshape(blocks.shape)

        # every cell of a group is uncut (reference mass), so folding the
        # representative row serves the whole group
        self.shared = [(cells, fold(A, cells[0])) for cells, A in plan.shared]
        num_cells = plan.space.mesh.num_cells
        self.coupling = block_matrix(plan.blocks + ([] if stab is None else stab.blocks()), num_cells)
        block_rows = np.repeat(np.arange(num_cells), np.diff(self.coupling.indptr))
        self.coupling.data = fold(self.coupling.data, block_rows)
        plan.space.cut_mass_factors()

    def __call__(self, coeffs):
        return self.plan.apply(coeffs, self.shared, self.coupling)

    def outflow_weights(self):
        """Weights g with g . u the advection outflow rate, penalty included."""
        g = boundary_outflow_weights(self.plan.space, self.plan.spec)
        if self.stab is not None:
            g += self.stab.boundary_outflow_weights()
        return g


def boundary_outflow_weights(space, spec):
    """Weights g with g . u the advection outflow, integral of (beta.n)^+ u
    over the physical boundary."""
    mesh = space.mesh
    wall = np.flatnonzero(mesh.face_right < 0)
    n = mesh.face_normal[wall]
    bn = np.maximum(spec.beta[0] * n[:, 0] + spec.beta[1] * n[:, 1], 0.0)
    face_g = bn[:, None] * np.einsum("fq,fqk->fk", space.face_w[wall], space.face_traces(wall)[0])
    g = np.zeros((mesh.num_cells, space.n_modes, 1))
    np.add.at(g[:, :, 0], mesh.face_left[wall], face_g)
    return g
