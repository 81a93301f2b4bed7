"""Reference oracle: the whole folded operator, assembled through CSR.

The package built the coupling part of the folded operator this way before
it kept the local matrices as cell blocks: :func:`block_csr` gathers the
nonzero entries of local matrices into a CSR matrix, which is converted
back into (k m, k m) BSR blocks, and each block row is solved with its
cell's mass matrix.  Here the local matrices are those of every face and
every cell, each built on its own (:func:`operator_entries`), plus the
penalty's.  The tests compare ``cutdg.dg.assemble(...).matrix()``, B + S,
against :func:`csr_operator`, and the matrix of its ``folded`` operator
against :func:`folded_operator`.
"""

import numpy as np
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve

from cutdg.dg import face_matrices, volume_matrices


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


def operator_entries(space, spec):
    """The whole base form as (cells, A) pairs, with no grouping: every
    cell's volume term, then every internal face, then every wall, each
    through :func:`volume_matrices` or :func:`face_matrices` of its own."""
    mesh = space.mesh
    internal = mesh.face_right >= 0
    cells = np.column_stack([mesh.face_left, mesh.face_right])
    km = space.n_modes * spec.m
    every = np.arange(mesh.num_cells)
    entries = [(every[:, None], volume_matrices(space, spec, every))]
    for fids, s in ((np.flatnonzero(internal), 2), (np.flatnonzero(~internal), 1)):
        if len(fids):
            A = face_matrices(space, spec, fids)[:, :s * km, :s * km]
            entries.append((cells[fids, :s], A))
    return entries


def csr_operator(space, spec, stab=None, magnitude=None):
    """B + S as a BSR matrix of (k m, k m) blocks, by way of CSR, with
    each block row's blocks in column order.

    ``magnitude`` (e.g. ``np.abs``) is applied to every local matrix
    before summing, which gives the size of each entry's terms."""
    num_cells = space.mesh.num_cells
    shape = (space.n_modes, spec.m)
    km = shape[0] * shape[1]
    entries = operator_entries(space, spec)
    if stab is not None:
        entries += [(g.cells, g.local) for g in stab.groups]
    if magnitude is not None:
        entries = [(cells, magnitude(A)) for cells, A in entries]
    # the conversion leaves a block row's blocks in the order their entries first appear
    operator = block_csr(entries, num_cells, shape).tobsr(blocksize=(km, km))
    operator.sort_indices()
    return operator


def folded_operator(space, spec, stab=None):
    """-M^{-1} (B + S): each block row of :func:`csr_operator` solved with
    its cell's mass matrix, factored here on its own, not through
    ``Space.mass_solve``.  A singular cut-cell mass raises as the package
    does (``Space.cut_mass_factors``)."""
    space.cut_mass_factors()
    k, m = space.n_modes, spec.m
    operator = csr_operator(space, spec, stab)
    nblocks = len(operator.data)
    # a block's rows are (mode, component) pairs; the mass acts on the mode
    rhs = operator.data.reshape(nblocks, k, m * k * m)
    data = np.empty_like(rhs)
    for c in range(space.mesh.num_cells):
        rows = slice(operator.indptr[c], operator.indptr[c + 1])
        n = rows.stop - rows.start
        cols = rhs[rows].transpose(1, 0, 2).reshape(k, -1)
        data[rows] = -cho_solve(cho_factor(space.mass[c]), cols).reshape(k, n, -1).transpose(1, 0, 2)
    return sparse.bsr_matrix((data.reshape(operator.data.shape), operator.indices, operator.indptr),
                             shape=operator.shape)
