"""Assembly of the semi-discrete operator for both systems.

The residual array holds the bilinear form paired against every test mode,
shape (num_cells, n_modes, m).  Time stepping uses du/dt = -M^{-1} residual.

The form is linear and constant in time, so it is assembled once, from two
kernels: :func:`face_terms` (one face) and :func:`volume_terms` (one cell).
Both are linear in the coefficients and accept coefficient blocks with a
leading probe axis, so :func:`local_matrix` reads off a kernel's matrix in a
single call.  The small-cell stabilization reads its cancellation blocks off
:func:`face_terms` the same way, and builds its pair terms as matrices
directly.

* Full background cells share one set of trace and volume tables.  Every
  face between two of them in one direction, every outer-box wall of one on
  one side, and every such cell's volume term therefore has the same local
  matrix; it is probed once on a representative and applied to all of them
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
from .operators import mirror_state
from .quadrature import DGFunction


def local_matrix(kernel, cells, shape):
    """Dense matrix of a linear kernel on the dofs of ``cells``.

    ``kernel(u)`` returns (cell, block) pairs for cells among ``cells``.  All
    dofs are probed at once: each unit coefficient block carries a leading
    probe axis, and ``u.coeffs`` maps the probed cells to their blocks (the
    kernels only index coefficients by cell).  Rows and columns both run
    over the dofs of ``cells``, in order.
    """
    k, m = shape
    km = k * m
    size = len(cells) * km
    eye = np.eye(size).reshape(size, len(cells), k, m)
    probe = DGFunction({C: eye[:, i] for i, C in enumerate(cells)}, None)
    slot = {C: i for i, C in enumerate(cells)}
    A = np.zeros((size, size))
    for C, block in kernel(probe):
        i = slot[C]
        A[i * km:(i + 1) * km] += block.reshape(size, km).T
    return A


def block_csr(entries, num_cells, shape):
    """CSR matrix summing local matrices ``(cells, A)`` into the global dofs.

    Exact zeros (component couplings the system matrices do not have) are
    left out.
    """
    km = shape[0] * shape[1]
    rows, cols, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for cells, A in entries:
        dofs = (np.asarray(cells)[:, None] * km + np.arange(km)).ravel()
        r, c = np.nonzero(A)
        rows.append(dofs[r])
        cols.append(dofs[c])
        vals.append(A[r, c])
    n = num_cells * km
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )


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

        def face_cells(fids):
            """(n, s) cells of faces of one kind: left, then right if internal."""
            if internal[fids[0]]:
                return np.column_stack([left[fids], right[fids]])
            return left[fids, None]

        self.shared = []
        if len(uncut_ids):
            cid = int(uncut_ids[0])
            A = local_matrix(lambda u: volume_terms(self, cid, u), [cid], self.shape)
            self.shared.append((uncut_ids[:, None], A))
        for fids in groups:
            fid = int(fids[0])
            cells = face_cells(fids)
            A = local_matrix(lambda u: face_terms(self, fid, u), cells[0].tolist(), self.shape)
            self.shared.append((cells, A))
        # the rows every group reads, in group order, and their scatter back
        rows = np.concatenate([np.zeros(0, dtype=np.int64)] + [c.ravel() for c, _ in self.shared])
        self._rows = rows
        self._scatter = sparse.csr_matrix(
            (np.ones(len(rows)), (rows, np.arange(len(rows)))), shape=(mesh.num_cells, len(rows))
        )
        self._work = np.empty((2, len(rows), space.n_modes * spec.m))

        entries = [
            ([cid], local_matrix(lambda u: volume_terms(self, cid, u), [cid], self.shape))
            for cid in self.cut_ids
        ]
        for fid in np.flatnonzero(~grouped).tolist():
            cells = face_cells([fid])[0].tolist()
            entries.append((cells, local_matrix(lambda u: face_terms(self, fid, u), cells, self.shape)))
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
        return self.apply(coeffs, self.shared, self.coupling if coupling is None else coupling)

    def base_residual(self, u):
        space = self.space
        expected = (space.mesh.num_cells, space.n_modes, self.spec.m)
        if u.coeffs.shape != expected:
            raise ConfigurationError(
                f"function blocks {u.coeffs.shape} do not match the space {expected}"
            )
        return self.residual(u.coeffs)


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


def face_terms(plan, fid, u, central=True, dissipative=True):
    """Residual contributions of one face: list of (cell_id, block).

    This is the shared face kernel: the small-cell stabilization evaluates the
    same function (with one of the flags cleared) for its cancellation terms,
    so those terms match the base contributions bit for bit.
    """
    space = plan.space
    spec = plan.spec
    face = space.mesh.faces[fid]
    w = space.face_w[fid]
    phiL = space.face_phi_left[fid]
    uL = phiL @ u.coeffs[face.left_cell]
    n = face.normal

    if face.kind == "internal":
        phiR = space.face_phi_right[fid]
        uR = phiR @ u.coeffs[face.right_cell]
        blockL = np.zeros_like(u.coeffs[face.left_cell])
        blockR = np.zeros_like(blockL)
        if central:
            Fc = (0.5 * (uL + uR)) @ spec.A_n(n).T
            wF = w[:, None] * Fc
            blockL = blockL + phiL.T @ wF
            blockR = blockR + phiR.T @ wF
        if dissipative:
            s = plan.diss.coefficient(spec, n)
            Fs = s * (uL - uR)
            wF = w[:, None] * Fs
            blockL = blockL + phiL.T @ wF
            blockR = blockR + phiR.T @ wF
        return [(face.left_cell, blockL), (face.right_cell, -blockR)]

    if spec.kind == "advection":
        # upwind outflow flux; the zero-inflow data has no contribution
        F = max(float(spec.beta @ n), 0.0) * uL
        return [(face.left_cell, phiL.T @ (w[:, None] * F))]

    uM = mirror_state(uL, n)
    block = np.zeros_like(u.coeffs[face.left_cell])
    if central:
        Fc = (0.5 * (uL + uM)) @ spec.A_n(n).T
        block = block + phiL.T @ (w[:, None] * Fc)
    if dissipative:
        s = plan.diss.coefficient(spec, n)
        Fs = s * (uL - uM)
        block = block + phiL.T @ (w[:, None] * Fs)
    return [(face.left_cell, block)]


def volume_terms(plan, cid, u):
    """Volume contribution of one cell, -int f(u) . grad w: [(cell_id, block)]."""
    space = plan.space
    spec = plan.spec
    w = space.cell_w[cid][:, None]
    grad = space.cell_grad[cid]
    vals = space.cell_phi[cid] @ u.coeffs[cid]
    f1 = vals @ spec.A1.T
    f2 = vals @ spec.A2.T
    return [(cid, -(grad[:, :, 0].T @ (w * f1) + grad[:, :, 1].T @ (w * f2)))]


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
