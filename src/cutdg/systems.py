"""The two linear hyperbolic systems, numerical fluxes and wall operators."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UnsupportedOperationError


def mirror_state(u, n):
    """Reflect the velocity of acoustic states (p, v1, v2) across a wall normal.

    Tangential velocity and pressure are untouched; works on single states or
    arrays of states along the leading axes, with one normal or normals
    (..., 2) that broadcast against those axes.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[-1] != 3:
        raise UnsupportedOperationError("mirroring is defined for 3-component acoustic states")
    n = np.asarray(n, dtype=float)
    out = u.copy()
    vn = u[..., 1] * n[..., 0] + u[..., 2] * n[..., 1]
    out[..., 1] -= 2.0 * vn * n[..., 0]
    out[..., 2] -= 2.0 * vn * n[..., 1]
    return out


@dataclass(frozen=True)
class SystemSpec:
    """Linear system u_t + A1 u_x + A2 u_y = 0."""

    kind: str                # "advection" | "acoustics"
    m: int
    A1: np.ndarray
    A2: np.ndarray
    lambda_max: float
    beta: np.ndarray = None  # advection velocity (advection only)
    sound_speed: float = None

    @staticmethod
    def advection(beta):
        beta = np.asarray(beta, dtype=float)
        speed = float(np.hypot(*beta))
        if not speed > 0.0:   # NaN fails too
            raise ConfigurationError("advection velocity must be nonzero")
        return SystemSpec(
            "advection", 1,
            np.array([[beta[0]]]), np.array([[beta[1]]]),
            speed, beta=beta,
        )

    @staticmethod
    def acoustics(c):
        c = float(c)
        if not c > 0.0:   # NaN fails too
            raise ConfigurationError("sound speed must be positive")
        A1 = np.array([[0.0, c, 0.0], [c, 0.0, 0.0], [0.0, 0.0, 0.0]])
        A2 = np.array([[0.0, 0.0, c], [0.0, 0.0, 0.0], [c, 0.0, 0.0]])
        return SystemSpec("acoustics", 3, A1, A2, c, sound_speed=c)

    def A_n(self, n):
        """n1 A1 + n2 A2, for one normal or stacked normals (..., 2)."""
        n = np.asarray(n, dtype=float)
        return n[..., 0, None, None] * self.A1 + n[..., 1, None, None] * self.A2

    def dissipation(self, n):
        """The dissipative flux's s, half the spectral radius of A_n, for each
        of stacked unit normals (..., 2): |beta . n| / 2 (upwind) for
        advection, c / 2 (Rusanov) for acoustics."""
        n = np.asarray(n, dtype=float)
        if self.kind == "advection":
            return 0.5 * np.abs(n @ self.beta)
        return np.full(n.shape[:-1], 0.5 * self.lambda_max)


def flux_matrices(spec, normals, wall, central=True, dissipative=True):
    """Flux matrices (own, other) of faces with unit normals ``normals`` (F, 2).

    The numerical flux along a face's normal is own u_left + other u_right,
    with own = A_n/2 + s I and other = A_n/2 - s I, s from
    :meth:`SystemSpec.dissipation`: ``central`` keeps the A_n/2 parts,
    ``dissipative`` the s I parts.  On the faces flagged in
    ``wall`` (F,) the exterior state is folded into own and other is zero:
    for acoustics the velocity-mirrored state, own + other (I - 2 e_n e_n^T);
    for advection the upwind outflow (beta.n)^+ against zero inflow data,
    which has no split and ignores the flags.
    """
    normals = np.asarray(normals, dtype=float)
    own = np.zeros(normals.shape[:-1] + (spec.m, spec.m))
    other = np.zeros_like(own)
    if central:
        half = 0.5 * spec.A_n(normals)
        own += half
        other += half
    if dissipative:
        sI = spec.dissipation(normals)[..., None, None] * np.eye(spec.m)
        own += sI
        other -= sI
    wall = np.asarray(wall, dtype=bool)
    if spec.kind == "advection":
        own[wall] = np.maximum(normals[wall] @ spec.beta, 0.0)[:, None, None]
    else:
        # other (I - 2 e_n e_n^T) mirrors each row of other
        own[wall] += mirror_state(other[wall], normals[wall, None, :])
    other[wall] = 0.0
    return own, other
