import numpy as np
import pytest

from cutdg.errors import ConfigurationError
from cutdg.systems import SystemSpec, flux_matrices


def _flux(spec, u, v, n, central=True, dissipative=True, wall=False):
    """Numerical flux own u + other v of one face with unit normal n, from
    the face's flux matrices."""
    own, other = flux_matrices(spec, np.asarray(n, dtype=float)[None], [wall],
                               central, dissipative)
    return own[0] @ np.asarray(u, dtype=float) + other[0] @ np.asarray(v, dtype=float)


def flux_normal(spec, u, n):
    """A_n u: the central flux of u against itself."""
    return _flux(spec, u, u, n, dissipative=False)


def central_flux(spec, u, v, n):
    return _flux(spec, u, v, n, dissipative=False)


def dissipation(spec, u, v, n):
    return _flux(spec, u, v, n, central=False)


def boundary_flux(spec, u, n):
    """Wall flux: the exterior state is folded into own, and other is zero."""
    own, other = flux_matrices(spec, np.asarray(n, dtype=float)[None], [True])
    assert np.all(other == 0.0)
    return own[0] @ np.asarray(u, dtype=float)


def test_acoustics_flux_normal_example():
    spec = SystemSpec.acoustics(1.0)
    got = flux_normal(spec, np.array([2.0, 3.0, 4.0]), np.array([1.0, 0.0]))
    assert np.allclose(got, [3.0, 2.0, 0.0])


def test_advection_flux_normal_example():
    spec = SystemSpec.advection((1.0, 2.0))
    got = flux_normal(spec, np.array([5.0]), np.array([0.0, 1.0]))
    assert np.allclose(got, [10.0])


def test_flux_linearity():
    rng = np.random.default_rng(0)
    for spec in (SystemSpec.advection((0.7, -0.3)), SystemSpec.acoustics(2.0)):
        for _ in range(20):
            u = rng.normal(size=spec.m)
            w = rng.normal(size=spec.m)
            a, b = rng.normal(size=2)
            angle = rng.uniform(0, 2 * np.pi)
            n = np.array([np.cos(angle), np.sin(angle)])
            lhs = flux_normal(spec, a * u + b * w, n)
            rhs = a * flux_normal(spec, u, n) + b * flux_normal(spec, w, n)
            assert np.allclose(lhs, rhs, atol=1e-13)


def test_flux_decomposition_identity():
    rng = np.random.default_rng(1)
    for spec in (SystemSpec.advection((0.7, -0.3)), SystemSpec.acoustics(1.3)):
        for _ in range(20):
            u = rng.normal(size=spec.m)
            angle = rng.uniform(0, 2 * np.pi)
            n = np.array([np.cos(angle), np.sin(angle)])
            direct = flux_normal(spec, u, n)
            split = n[0] * (u @ spec.A1.T) + n[1] * (u @ spec.A2.T)
            assert np.allclose(direct, split, atol=1e-14)


def test_central_flux_examples():
    adv = SystemSpec.advection((1.0, 0.0))
    n = np.array([1.0, 0.0])
    assert np.allclose(central_flux(adv, np.array([2.0]), np.array([4.0]), n), [3.0])
    assert np.allclose(central_flux(adv, np.array([5.0]), np.array([5.0]), n),
                       flux_normal(adv, np.array([5.0]), n))
    ac = SystemSpec.acoustics(1.7)
    rng = np.random.default_rng(2)
    u, v = rng.normal(size=(2, 3))
    got = central_flux(ac, u, v, n)
    expected = 0.5 * (ac.A_n(n) @ u + ac.A_n(n) @ v)
    assert np.allclose(got, expected, atol=1e-14)


def test_dissipation_examples():
    adv = SystemSpec.advection((1.0, 0.0))
    n = np.array([1.0, 0.0])
    got = dissipation(adv, np.array([2.0]), np.array([4.0]), n)
    assert np.allclose(got, [-1.0])
    # central + dissipation equals the upwind value
    total = central_flux(adv, np.array([2.0]), np.array([4.0]), n) + got
    assert np.allclose(total, [2.0])
    assert np.allclose(dissipation(adv, np.array([3.0]), np.array([3.0]), n), [0.0])

    ac = SystemSpec.acoustics(2.0)
    d = dissipation(ac, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0]), n)
    assert np.allclose(d, [1.0, 0.0, 0.0])


def test_dissipation_antisymmetric():
    rng = np.random.default_rng(3)
    ac = SystemSpec.acoustics(1.0)
    n = np.array([0.6, 0.8])
    u, v = rng.normal(size=(2, 3))
    assert np.allclose(
        dissipation(ac, u, v, n), -dissipation(ac, v, u, n), atol=1e-15
    )


def test_boundary_flux_advection():
    spec = SystemSpec.advection((1.0, 0.0))
    inflow_n = np.array([-1.0, 0.0])
    assert np.allclose(boundary_flux(spec, np.array([3.0]), inflow_n), [0.0])
    outflow_n = np.array([1.0, 0.0])
    assert np.allclose(boundary_flux(spec, np.array([3.0]), outflow_n), [3.0])


def test_boundary_flux_acoustics_wall_compatible():
    spec = SystemSpec.acoustics(1.0)
    n = np.array([0.0, 1.0])
    u = np.array([2.0, 5.0, 0.0])   # v.n = 0: the mirror fixes the state
    assert np.allclose(boundary_flux(spec, u, n), flux_normal(spec, u, n), atol=1e-15)


def test_wall_energy_flux_nonnegative():
    # net wall energy flux: <bf(u), u> - <A_n u, u>/2 = c (v.n)^2 >= 0;
    # the raw pairing <bf(u), u> alone is sign-indefinite
    rng = np.random.default_rng(4)
    spec = SystemSpec.acoustics(1.4)
    for _ in range(100):
        u = rng.normal(size=3)
        angle = rng.uniform(0, 2 * np.pi)
        n = np.array([np.cos(angle), np.sin(angle)])
        bf = boundary_flux(spec, u, n)
        net = float(bf @ u) - 0.5 * float(flux_normal(spec, u, n) @ u)
        vn = u[1] * n[0] + u[2] * n[1]
        assert net >= -1e-13
        assert abs(net - spec.sound_speed * vn * vn) < 1e-12


def test_dissipation_is_half_the_spectral_radius():
    # s = max |eigenvalue of A_n| / 2 on random unit normals, stacked (..., 2)
    rng = np.random.default_rng(5)
    angle = rng.uniform(0, 2 * np.pi, size=(4, 5))
    n = np.stack([np.cos(angle), np.sin(angle)], axis=-1)
    for spec in (SystemSpec.advection((1.0, -0.7)), SystemSpec.acoustics(1.3)):
        expected = 0.5 * np.abs(np.linalg.eigvalsh(spec.A_n(n))).max(axis=-1)
        got = spec.dissipation(n)
        assert got.shape == n.shape[:-1]
        assert np.allclose(got, expected, rtol=1e-14, atol=0.0)


def test_nan_coefficients_rejected():
    with pytest.raises(ConfigurationError):
        SystemSpec.acoustics(float("nan"))
    with pytest.raises(ConfigurationError):
        SystemSpec.advection((float("nan"), 0.2))
