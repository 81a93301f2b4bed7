"""Reference oracle: the base form's probed kernels.

:func:`face_terms` (one face) and :func:`volume_terms` (one cell) evaluate
the form's terms on a function's coefficients, and :func:`local_matrix`
reads a kernel's matrix off by probing it with unit coefficient blocks.  The
package built its local matrices this way before it built them in closed
form; the tests compare ``cutdg.dg.face_matrices`` and
``cutdg.dg.volume_matrices`` against them.
"""

import numpy as np

from cutdg.quadrature import DGFunction
from cutdg.systems import mirror_state


def probe(cells, shape):
    """Unit coefficient blocks on every dof of ``cells`` at once: each cell's
    block carries a leading probe axis, and ``u.coeffs`` maps the probed cells
    to their blocks (the kernels only index coefficients by cell)."""
    k, m = shape
    size = len(cells) * k * m
    eye = np.eye(size).reshape(size, len(cells), k, m)
    return DGFunction({C: eye[:, i] for i, C in enumerate(cells)}, None)


def probed_matrix(pairs, cells, shape):
    """Dense matrix of a linear kernel's output on :func:`probe`: (cell,
    block) pairs for cells among ``cells``.  Rows and columns both run over
    the dofs of ``cells``, in order."""
    km = shape[0] * shape[1]
    size = len(cells) * km
    slot = {C: i for i, C in enumerate(cells)}
    A = np.zeros((size, size))
    for C, block in pairs:
        i = slot[C]
        A[i * km:(i + 1) * km] += block.reshape(size, km).T
    return A


def local_matrix(kernel, cells, shape):
    """Dense matrix of a linear kernel on the dofs of ``cells``: ``kernel(u)``
    returns (cell, block) pairs for cells among ``cells``."""
    return probed_matrix(kernel(probe(cells, shape)), cells, shape)


def face_terms(space, spec, fid, u, central=True, dissipative=True):
    """Residual contributions of one face: list of (cell_id, block).

    This is the shared face kernel: the small-cell stabilization evaluates the
    same function (with one of the flags cleared) for its cancellation terms,
    so those terms match the base contributions bit for bit.
    """
    left, right = int(space.mesh.face_left[fid]), int(space.mesh.face_right[fid])
    (phiL,), (phiR,), (w,) = space.face_traces([fid])
    uL = phiL @ u.coeffs[left]
    n = space.mesh.face_normal[fid]

    if right >= 0:
        uR = phiR @ u.coeffs[right]
        blockL = np.zeros_like(u.coeffs[left])
        blockR = np.zeros_like(blockL)
        if central:
            Fc = (0.5 * (uL + uR)) @ spec.A_n(n).T
            wF = w[:, None] * Fc
            blockL = blockL + phiL.T @ wF
            blockR = blockR + phiR.T @ wF
        if dissipative:
            s = spec.dissipation(n)
            Fs = s * (uL - uR)
            wF = w[:, None] * Fs
            blockL = blockL + phiL.T @ wF
            blockR = blockR + phiR.T @ wF
        return [(left, blockL), (right, -blockR)]

    if spec.kind == "advection":
        # upwind outflow flux; the zero-inflow data has no contribution
        F = max(float(spec.beta @ n), 0.0) * uL
        return [(left, phiL.T @ (w[:, None] * F))]

    uM = mirror_state(uL, n)
    block = np.zeros_like(u.coeffs[left])
    if central:
        Fc = (0.5 * (uL + uM)) @ spec.A_n(n).T
        block = block + phiL.T @ (w[:, None] * Fc)
    if dissipative:
        s = spec.dissipation(n)
        Fs = s * (uL - uM)
        block = block + phiL.T @ (w[:, None] * Fs)
    return [(left, block)]


def volume_terms(space, spec, cid, u):
    """Volume contribution of one cell, -int f(u) . grad w: [(cell_id, block)]."""
    _, w, phi, grad = (table[0] for table in space.cell_rules([cid]))
    w = w[:, None]
    vals = phi @ u.coeffs[cid]
    f1 = vals @ spec.A1.T
    f2 = vals @ spec.A2.T
    return [(cid, -(grad[:, :, 0].T @ (w * f1) + grad[:, :, 1].T @ (w * f2)))]
