from dataclasses import fields

import numpy as np
import pytest

from conftest import evaluate, ramp_mesh
from cutdg.config import RunConfig, parse_config, serialize_config
from cutdg.errors import ConfigurationError
from cutdg.quadrature import Space, monomial_values
from cutdg.solutions import (
    BumpAdvect,
    PolynomialField,
    SineAdvect,
    lookup_field,
    random_polynomial,
)
from cutdg.systems import SystemSpec


def test_polynomial_field_evaluation():
    fld = PolynomialField([[1.0, 2.0, 0.0, 0.0, 0.0, 3.0]], 2)   # 1 + 2x + 3y^2
    pts = np.array([[0.5, 2.0]])
    assert np.allclose(fld(pts), [[1 + 1 + 12.0]])


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_polynomial_field_matches_independent_evaluation(degree):
    # against numpy's Horner evaluation, within a few ulp of the terms' sum
    # of magnitudes; then its exact representation on a cut mesh, evaluated
    # at every quadrature point, against the field there
    rng = np.random.default_rng(20 + degree)
    fld = random_polynomial(rng, degree, 2)
    pts = rng.uniform(-1.0, 2.0, size=(50, 2))
    got = fld(pts)
    for c in range(fld.m):
        grid = np.zeros((degree + 1, degree + 1))
        grid[fld.exps[:, 0], fld.exps[:, 1]] = fld.coeffs[:, c]
        want = np.polynomial.polynomial.polyval2d(pts[:, 0], pts[:, 1], grid)
        terms = np.polynomial.polynomial.polyval2d(np.abs(pts[:, 0]), np.abs(pts[:, 1]),
                                                   np.abs(grid))
        assert np.all(np.abs(got[:, c] - want) <= 8 * np.finfo(float).eps * terms)
    space = Space(ramp_mesh(nx=16, ny=16), degree)
    u = fld.to_dg(space)
    cells = space.quad_cells
    phi = monomial_values(space.exps, space.centers[cells], space.h, space.quad_pts)
    assert np.allclose(np.einsum("qk,qkm->qm", phi, u.coeffs[cells]), fld(space.quad_pts),
                       rtol=0.0, atol=1e-12)


def test_to_dg_is_exact_representation():
    rng = np.random.default_rng(0)
    mesh = ramp_mesh(nx=16, ny=16)
    for degree in (0, 1, 2, 3):
        space = Space(mesh, degree)
        fld = random_polynomial(rng, degree, 1)
        u = fld.to_dg(space)
        pts = rng.uniform(0, 1, size=(30, 2))
        exact = fld(pts)
        for cid in (0, mesh.num_cells // 3, mesh.num_cells - 1):
            assert np.allclose(evaluate(space, u, cid, pts), exact, atol=1e-12)


def test_to_dg_exact_even_on_extreme_slivers():
    # re-centering has no mass solve: sliver conditioning cannot pollute it
    from cutdg.geometry import BackgroundMesh, build_mesh, halfplane_from_line

    delta = np.sqrt(2 * 0.75 * 1e-8)
    bg = BackgroundMesh(0, 0, 1, 1, 1, 1)
    mesh = build_mesh(bg, [halfplane_from_line(0.75, 1.0 - delta)])
    space = Space(mesh, 3)
    fld = random_polynomial(np.random.default_rng(1), 3, 1)
    u = fld.to_dg(space)
    pts = np.random.default_rng(2).uniform(0, 1, size=(20, 2))
    assert np.allclose(evaluate(space, u, 0, pts), fld(pts), atol=1e-12)


def test_sine_advect_translation():
    fld = SineAdvect(np.array([1.0, 0.5]))
    pts = np.array([[0.3, 0.4]])
    a = fld(pts, t=0.2)
    b = fld(pts - 0.2 * np.array([1.0, 0.5]), t=0.0)
    assert np.allclose(a, b)


def test_bump_compact_support():
    fld = BumpAdvect(np.array([1.0, 0.0]), (0.5, 0.5), 0.2)
    inside = fld(np.array([[0.5, 0.5]]))[0, 0]
    outside = fld(np.array([[0.9, 0.5]]))[0, 0]
    assert inside == 1.0
    assert outside == 0.0


def test_lookup_field_variants():
    adv = SystemSpec.advection((1.0, 0.2))
    ac = SystemSpec.acoustics(1.0)
    assert lookup_field("sine-advect", adv).m == 1
    fld = lookup_field("poly:1,2,3", adv)
    assert fld.degree == 1
    fld3 = lookup_field("poly:1;0,1;0,0,2", ac)
    assert fld3.m == 3 and fld3.degree == 1
    p = lookup_field("pressure-poly:1,0,0,1,0,1", ac)
    assert p.m == 3
    pts = np.array([[0.3, 0.7]])
    assert np.allclose(p(pts)[0, 1:], 0.0)
    with pytest.raises(ConfigurationError):
        lookup_field("poly:1,2", adv)      # not a full degree block
    with pytest.raises(ConfigurationError):
        lookup_field("mystery", adv)
    with pytest.raises(ConfigurationError):
        lookup_field("pressure-poly:1", adv)


# ------------------------------------------------------------------- config


GOOD = """
# sample configuration
equation = advection
degree = 2
nx = 16
box = 0,0,1,1
geometry.constraint = -0.6,0.8,0.1
beta = 1,0.2
alpha0 = 0.25
cfl = 0.3
t_final = 0.5
rk_order = 3
seed = 7
"""


def test_parse_and_roundtrip():
    cfg = parse_config(GOOD)
    assert cfg.degree == 2
    assert cfg.seed == 7
    assert len(cfg.constraints) == 1
    text = serialize_config(cfg)
    again = parse_config(text)
    assert serialize_config(again) == text


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigurationError) as err:
        parse_config("equation = advection\nwibble = 3\n")
    assert "wibble" in str(err.value)


@pytest.mark.parametrize("key, value", [
    *((key, value) for key in ("sound_speed", "alpha0", "eta_scale", "cfl", "t_final",
                               "growth_tol")
      for value in ("nan", "inf", "-inf")),
    ("box", "0,0,inf,1"),
    ("beta", "nan,0.2"),
    ("geometry.constraint", "nan,0.8,0.1"),
    ("geometry.constraint", "0.6,0.8,inf"),
])
def test_non_finite_values_rejected_by_name(key, value):
    with pytest.raises(ConfigurationError, match=f"key '{key}'"):
        parse_config(f"equation = acoustics\n{key} = {value}\n")


def test_roundtrip_covers_every_field():
    # every field set away from its default survives the canonical text form,
    # and the text names each field's key exactly once
    cfg = RunConfig(
        equation="acoustics", degree=2, nx=6, box=(-1.0, -0.5, 2.0, 1.5),
        constraints=[(0.6, 0.8, 0.3)], beta=(0.3, -0.7), sound_speed=1.7, alpha0=0.3,
        eta_scale=0.5, cfl=0.45, t_final=0.123, rk_order=2, seed=9, out="results",
        initial="sine-advect", n_polynomials=3, n_triples=4, refinements=(12, 24),
        projection_only=True, steps=17, growth_tol=2e-3, dod=False,
    ).validate()
    default = RunConfig()
    names = [f.name for f in fields(RunConfig)]
    assert all(getattr(cfg, name) != getattr(default, name) for name in names)
    text = serialize_config(cfg)
    again = parse_config(text)
    for name in names:
        assert getattr(again, name) == getattr(cfg, name), name
    keys = [line.split(" = ", 1)[0] for line in text.splitlines()]
    key_of = {"constraints": "geometry.constraint"}
    assert sorted(keys) == sorted(key_of.get(name, name) for name in names)


def test_bad_values_rejected():
    with pytest.raises(ConfigurationError):
        parse_config("degree = two\n")
    with pytest.raises(ConfigurationError):
        parse_config("equation = heat\n")
    with pytest.raises(ConfigurationError):
        parse_config("alpha0 = 1.5\n")
    with pytest.raises(ConfigurationError):
        parse_config("geometry.constraint = 1,1,0\n")   # normal not unit length


@pytest.mark.parametrize("key", ["n_polynomials", "n_triples"])
@pytest.mark.parametrize("value", [0, -1])
def test_check_counts_below_one_rejected_by_name(key, value):
    # a check over no fields or triples would pass without checking anything
    with pytest.raises(ConfigurationError) as err:
        parse_config(f"equation = acoustics\n{key} = {value}\n")
    assert key in str(err.value)


@pytest.mark.parametrize("line, key", [
    ("growth_tol = -1", "growth_tol"), ("growth_tol = -1e-12", "growth_tol"),
    ("refinements = 0,4", "refinements"), ("refinements = 4,-2", "refinements"),
    ("refinements = 0", "refinements"),
])
def test_negative_tolerance_and_levels_below_one_rejected_by_name(line, key):
    with pytest.raises(ConfigurationError, match=f"key '{key}'"):
        parse_config(f"equation = advection\n{line}\n")


def test_zero_tolerance_and_level_one_accepted():
    cfg = parse_config("growth_tol = 0\nrefinements = 1,2\n")
    assert cfg.growth_tol == 0.0 and cfg.refinements == (1, 2)


def test_defaults_validate():
    cfg = parse_config("equation = acoustics\n")
    assert cfg.system().m == 3
