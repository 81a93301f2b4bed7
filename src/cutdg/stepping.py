"""Method-of-lines integration with strong-stability-preserving Runge-Kutta.

The step size is tied to the background mesh only: dt = cfl * h / (lambda *
(2r + 1)).  Cut-cell volume fractions never enter the formula; that is the
point of the small-cell stabilization.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, IntegrationFailureError
from .quadrature import DGFunction

_STAGE_WEIGHTS = {2: (0.5, 0.5), 3: (1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0)}


@dataclass(frozen=True)
class TimeControls:
    t_final: float
    cfl: float = 0.3
    rk_order: int = 3

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ConfigurationError("cfl must lie in (0, 1]")
        if self.rk_order not in (2, 3):
            raise ConfigurationError("rk_order must be 2 or 3")
        if self.t_final < 0.0:
            raise ConfigurationError("t_final must be nonnegative")

    def dt(self, h, lambda_max, degree):
        return self.cfl * h / (lambda_max * (2 * degree + 1))


def rk_step(coeffs, dt, rhs, order):
    """One SSP-RK step; returns (new coeffs, list of stage rhs results).

    The stages are computed in two buffers with ``out=`` arithmetic, by the
    operations of these formulas in their order, so the result is
    bit-identical to them: u1 = u + dt f(u), then
    RK2: 0.5 u + 0.5 (u1 + dt f(u1));
    RK3: u2 = 0.75 u + 0.25 (u1 + dt f(u1)), u / 3 + 2/3 (u2 + dt f(u2)).
    """
    results = []
    stage, tmp = np.empty_like(coeffs), np.empty_like(coeffs)

    def euler(c, out):
        """out = c + dt * f(c)."""
        r = rhs(c)
        results.append(r)
        np.multiply(dt, r[0], out=out)
        return np.add(c, out, out=out)

    euler(coeffs, stage)
    euler(stage, tmp)
    if order == 3:
        np.multiply(0.25, tmp, out=tmp)
        np.multiply(0.75, coeffs, out=stage)
        np.add(stage, tmp, out=stage)
        euler(stage, tmp)
        new = np.divide(coeffs, 3.0)
        np.multiply(2.0 / 3.0, tmp, out=tmp)
    else:
        new = np.multiply(0.5, coeffs)
        np.multiply(0.5, tmp, out=tmp)
    return np.add(new, tmp, out=new), results


@dataclass
class EvolveResult:
    final: DGFunction
    times: np.ndarray
    l2_trace: np.ndarray
    mass_trace: np.ndarray
    outflow_integral: float
    steps: int
    dt: float

    @property
    def max_growth(self):
        base = self.l2_trace[0]
        if base == 0.0:
            return 1.0
        return float(np.max(self.l2_trace) / base)


def evolve(space, u0, rhs, controls, lambda_max, track_mass=False):
    """Integrate du/dt = rhs to t_final, recording L2 norm and mass traces.

    ``rhs(coeffs)`` returns (dudt, outflow_rate); the outflow integral is
    accumulated with the scheme's own stage weights, so for a conservative
    assembly it matches the change of total mass to round-off.
    """
    dt = controls.dt(space.mesh.bg.h, lambda_max, space.degree)
    n_steps = int(np.ceil(controls.t_final / dt - 1e-12)) if controls.t_final > 0 else 0
    weights = _STAGE_WEIGHTS[controls.rk_order]

    u = u0.copy()
    l2 = [space.l2_norm(u)]
    mass = [float(space.total_mass(u)[0])] if track_mass else [0.0]
    times = [0.0]
    outflow = 0.0
    for step in range(n_steps):
        # overflow inside a diverging run is the detection mechanism, not a
        # bug; finite coefficients whose norm overflows have diverged too.
        # A non-finite coefficient makes the norm non-finite, so the norm
        # alone is checked.
        with np.errstate(over="ignore", invalid="ignore"):
            u.coeffs, stage_results = rk_step(u.coeffs, dt, rhs, controls.rk_order)
            norm = space.l2_norm(u)
        if not np.isfinite(norm):
            raise IntegrationFailureError(step)
        outflow += dt * sum(w * r[1] for w, r in zip(weights, stage_results))
        times.append((step + 1) * dt)
        l2.append(norm)
        mass.append(float(space.total_mass(u)[0]) if track_mass else 0.0)
    return EvolveResult(
        final=u,
        times=np.array(times),
        l2_trace=np.array(l2),
        mass_trace=np.array(mass),
        outflow_integral=outflow,
        steps=n_steps,
        dt=dt,
    )
