"""Assembly of the semi-discrete operator for both systems.

The residual array holds the bilinear form paired against every test mode,
shape (num_cells, n_modes, m).  Time stepping uses du/dt = -M^{-1} residual.

The form is linear and constant in time, so it is assembled once, from local
matrices built in closed form from ``Space``'s stacked tables: each face
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
* Everything touching a cut cell (its volume term, each of its faces) goes
  into one CSR matrix, to which :class:`SemiDiscreteOperator` adds the
  small-cell penalty.

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


def block_csr(entries, num_cells, shape):
    """CSR matrix summing local matrices ``(cells, A)`` into the global dofs.

    ``cells`` lists s cells and ``A`` is their (s k m, s k m) matrix, or both
    carry a leading stack axis, (n, s) and (n, s k m, s k m).  Exact zeros
    (component couplings the system matrices do not have) are left out.
    """
    km = shape[0] * shape[1]
    rows, cols, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for cells, A in entries:
        cells = np.asarray(cells)
        flat = cells.shape[:-1] + (cells.shape[-1] * km,)
        dofs = (cells[..., None] * km + np.arange(km)).reshape(flat)
        *stack, r, c = np.nonzero(A)
        rows.append(dofs[(*stack, r)])
        cols.append(dofs[(*stack, c)])
        vals.append(A[(*stack, r, c)])
    n = num_cells * km
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )


def face_matrices(space, spec, diss, fids, central=True, dissipative=True):
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
        spec, diss, mesh.face_normal[fids], mesh.face_right[fids] < 0, central, dissipative
    ), axis=1)
    phi = np.stack([space.face_phi_left[fids], space.face_phi_right[fids]], axis=1)
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
    common to all rows.  ``coupling`` is the CSR matrix of every coupling
    that touches a cut cell.
    """

    def __init__(self, space, spec, diss):
        if spec.kind == "advection" and diss.kind != "upwind":
            raise ConfigurationError("advection uses the upwind dissipative flux")
        self.space = space
        self.spec = spec
        self.diss = diss
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
            return cells[fids, :s], face_matrices(space, spec, diss, fids)[:, :s * km, :s * km]

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
        entries = [(self.cut_ids[:, None], volume_matrices(space, spec, self.cut_ids))]
        entries += [face_entry(fids) for fids in (ungrouped[internal[ungrouped]],
                                                  ungrouped[~internal[ungrouped]]) if len(fids)]
        self.coupling = block_csr(entries, mesh.num_cells, self.shape)

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
        """Form applied to a coefficient array; ``coupling`` replaces the CSR part."""
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
    B's cut-cell couplings and the penalty S (``stab.matrix()``), as a BSR
    matrix of (k m, k m) cell blocks, with each block row's own factor.  A
    call is then one apply of the plan's groups and one block-sparse product.
    Construction factors every cut-cell mass matrix, so a singular one is
    reported before the first step.
    """

    def __init__(self, plan, stab=None):
        self.plan = plan
        self.stab = stab
        k, m = plan.shape
        km = k * m

        def fold(blocks, cells):
            """-M^{-1} applied to stacked rows: row block i (k m rows) is cells[i]'s."""
            rhs = blocks.reshape(len(cells), k, m * blocks.shape[-1])
            return -plan.space.mass_solve(rhs, cells).reshape(blocks.shape)

        # every cell of a group is uncut (reference mass), so folding the
        # representative row serves the whole group
        self.shared = [(cells, fold(A, cells[0])) for cells, A in plan.shared]
        coupling = plan.coupling if stab is None else plan.coupling + stab.matrix()
        coupling = coupling.tobsr(blocksize=(km, km))
        block_rows = np.repeat(np.arange(plan.space.mesh.num_cells), np.diff(coupling.indptr))
        self.coupling = sparse.bsr_matrix(
            (fold(coupling.data, block_rows), coupling.indices, coupling.indptr),
            shape=coupling.shape,
        )
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
    face_g = bn[:, None] * np.einsum("fq,fqk->fk", space.face_w[wall], space.face_phi_left[wall])
    g = np.zeros((mesh.num_cells, space.n_modes, 1))
    np.add.at(g[:, :, 0], mesh.face_left[wall], face_g)
    return g
