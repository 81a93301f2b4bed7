"""Method-of-lines integration with strong-stability-preserving Runge-Kutta.

The step size is tied to the background mesh only: :func:`time_step` gives
dt = cfl * h / (lambda * (2r + 1)).  Cut-cell volume fractions never enter
the formula; that is the point of the small-cell stabilization.  A run is a
number of steps of that size; :func:`steps_to` gives the count that reaches
a final time.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, IntegrationFailureError
from .quadrature import DGFunction

_STAGE_WEIGHTS = {2: (0.5, 0.5), 3: (1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0)}


def time_step(cfl, h, lambda_max, degree):
    """The background-mesh step cfl * h / (lambda_max * (2 degree + 1))."""
    if not 0.0 < cfl <= 1.0:
        raise ConfigurationError("cfl must lie in (0, 1]")
    return cfl * h / (lambda_max * (2 * degree + 1))


def steps_to(t_final, dt):
    """The number of steps of size dt that reaches t_final."""
    if t_final < 0.0:
        raise ConfigurationError("t_final must be nonnegative")
    return int(np.ceil(t_final / dt - 1e-12)) if t_final > 0 else 0


def _stage_weights(order):
    if order not in _STAGE_WEIGHTS:
        raise ConfigurationError("rk_order must be 2 or 3")
    return _STAGE_WEIGHTS[order]


def rk_step(coeffs, dt, rhs, order, outflow=None):
    """One SSP-RK step; returns (new coeffs, outflow . c of each stage input c),
    the list empty without ``outflow`` weights.

    The stages are computed in two buffers with ``out=`` arithmetic, by the
    operations of these formulas in their order, so the result is
    bit-identical to them: u1 = u + dt f(u), then
    RK2: 0.5 u + 0.5 (u1 + dt f(u1));
    RK3: u2 = 0.75 u + 0.25 (u1 + dt f(u1)), u / 3 + 2/3 (u2 + dt f(u2)).
    """
    _stage_weights(order)
    rates = []
    stage, tmp = np.empty_like(coeffs), np.empty_like(coeffs)

    def euler(c, out):
        """out = c + dt * f(c)."""
        if outflow is not None:
            rates.append(float(np.vdot(outflow, c)))
        np.multiply(dt, rhs(c), out=out)
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
    return np.add(new, tmp, out=new), rates


@dataclass
class EvolveResult:
    final: DGFunction
    times: np.ndarray
    l2_trace: np.ndarray
    mass_trace: np.ndarray
    outflow_integral: float
    steps: int

    @property
    def max_growth(self):
        base = self.l2_trace[0]
        if base == 0.0:
            return 1.0
        return float(np.max(self.l2_trace) / base)

    @property
    def mass_change(self):
        """Total mass at the end less at the start (0.0 without outflow weights)."""
        return self.mass_trace[-1] - self.mass_trace[0]


def evolve(space, u0, rhs, dt, steps, rk_order, outflow=None):
    """Take ``steps`` steps of size ``dt`` of du/dt = rhs(u), recording the L2
    norm after each; with ``outflow`` weights g also the total mass and the
    outflow integral (both 0.0 without).

    ``rhs(coeffs)`` returns du/dt.  The outflow integral sums dt g . c over
    the stage inputs c with the scheme's own stage weights, so for a
    conservative assembly it matches the change of total mass to round-off.
    """
    weights = _stage_weights(rk_order)
    u = u0.copy()
    l2 = [space.l2_norm(u)]
    mass = [float(space.total_mass(u)[0]) if outflow is not None else 0.0]
    outflow_integral = 0.0
    for step in range(steps):
        # overflow inside a diverging run is the detection mechanism, not a
        # bug; finite coefficients whose norm overflows have diverged too.
        # A non-finite coefficient makes the norm non-finite, so the norm
        # alone is checked.
        with np.errstate(over="ignore", invalid="ignore"):
            u.coeffs, rates = rk_step(u.coeffs, dt, rhs, rk_order, outflow)
            norm = space.l2_norm(u)
        if not np.isfinite(norm):
            raise IntegrationFailureError(step)
        outflow_integral += dt * sum(w * r for w, r in zip(weights, rates))
        l2.append(norm)
        mass.append(float(space.total_mass(u)[0]) if outflow is not None else 0.0)
    return EvolveResult(
        final=u,
        times=dt * np.arange(steps + 1),
        l2_trace=np.array(l2),
        mass_trace=np.array(mass),
        outflow_integral=outflow_integral,
        steps=steps,
    )
