"""Reference oracle: the folded cut-cell couplings, assembled through CSR.

The package built the coupling part of the folded operator this way before
it kept the local matrices as cell blocks: :func:`block_csr` gathers the
nonzero entries of the base form's cut-cell couplings and of the penalty's
local matrices into two CSR matrices, their sum is converted back into
(k m, k m) BSR blocks, and each block row is solved with its cell's mass
matrix.  The tests compare ``cutdg.dg.SemiDiscreteOperator.coupling``
against :func:`folded_coupling`, and the block sums it folds against
:func:`csr_coupling`.
"""

import numpy as np
from scipy import sparse

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


def plan_entries(plan):
    """The base form's couplings that touch a cut cell, as (cells, A) pairs:
    every cut cell's volume term, then every face outside the shared
    full-cell groups (a face of a cut cell, or a slanted one), internal
    faces before walls."""
    space, spec = plan.space, plan.spec
    mesh = space.mesh
    left, right = mesh.face_left, mesh.face_right
    internal = right >= 0
    aligned = np.all(np.abs(mesh.face_normal - np.rint(mesh.face_normal)) < 1e-14, axis=1)
    full = space.uncut[left] & np.where(internal, space.uncut[np.maximum(right, 0)], True)
    ungrouped = np.flatnonzero(~(aligned & full))
    cells = np.column_stack([left, right])
    km = space.n_modes * spec.m
    entries = [(space.cut_ids[:, None], volume_matrices(space, spec, space.cut_ids))]
    for fids, s in ((ungrouped[internal[ungrouped]], 2), (ungrouped[~internal[ungrouped]], 1)):
        if len(fids):
            A = face_matrices(space, spec, fids)[:, :s * km, :s * km]
            entries.append((cells[fids, :s], A))
    return entries


def csr_coupling(plan, stab=None):
    """B_cut + S as a BSR matrix of (k m, k m) blocks, by way of CSR."""
    num_cells = plan.space.mesh.num_cells
    km = plan.shape[0] * plan.shape[1]
    coupling = block_csr(plan_entries(plan), num_cells, plan.shape)
    if stab is not None:
        entries = [(stab.neighborhood(cid), stab.local[cid]) for cid in stab.cell_ids]
        coupling = coupling + block_csr(entries, num_cells, plan.shape)
    return coupling.tobsr(blocksize=(km, km))


def folded_coupling(plan, stab=None):
    """-M^{-1} (B_cut + S): each block row of :func:`csr_coupling` solved
    with its cell's mass matrix."""
    space = plan.space
    k, m = plan.shape
    coupling = csr_coupling(plan, stab)
    block_rows = np.repeat(np.arange(space.mesh.num_cells), np.diff(coupling.indptr))
    rhs = coupling.data.reshape(len(block_rows), k, m * k * m)
    data = -space.mass_solve(rhs, block_rows).reshape(coupling.data.shape)
    space.cut_mass_factors()
    return sparse.bsr_matrix((data, coupling.indices, coupling.indptr), shape=coupling.shape)
