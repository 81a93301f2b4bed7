"""Flat ``key = value`` run configuration.

One assignment per line, ``#`` comments, repeated ``geometry.constraint``
lines accumulate.  Unknown keys are rejected by name; parsing then
serializing yields a canonical form byte-identical across runs.
"""

import math
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .geometry import BackgroundMesh, Geometry, HalfPlane
from .systems import SystemSpec

_FLOAT = "{:.17g}".format


@dataclass
class RunConfig:
    equation: str = "advection"
    degree: int = 1
    nx: int = 16
    ny: int = 16
    box: tuple = (0.0, 0.0, 1.0, 1.0)
    constraints: list = field(default_factory=list)   # (a, b, c) triples
    beta: tuple = (1.0, 0.0)
    sound_speed: float = 1.0
    alpha0: float = 0.4
    eta_scale: float = 1.0
    cfl: float = 0.3
    t_final: float = 1.0
    rk_order: int = 3
    seed: int = 42
    out: str = "."
    initial: str = ""
    n_polynomials: int = 20
    n_triples: int = 50
    refinements: tuple = (16, 32, 64)
    projection_only: bool = False
    steps: int = 1000
    growth_tol: float = 1e-3
    dod: bool = True
    threads: int = 1

    # ------------------------------------------------------------------
    def validate(self):
        finite = [(key, (getattr(self, key),)) for key in _KEY_ORDER if key in _FLOAT_KEYS]
        finite += [("box", self.box), ("beta", self.beta)]
        finite += [("geometry.constraint", abc) for abc in self.constraints]
        for key, values in finite:
            if not all(math.isfinite(v) for v in values):
                raise ConfigurationError(
                    f"key {key!r}: values must be finite, got {','.join(map(str, values))}"
                )
        if self.equation not in ("advection", "acoustics"):
            raise ConfigurationError(f"unknown equation {self.equation!r}")
        if self.degree < 0:
            raise ConfigurationError("degree must be >= 0")
        if self.nx < 1 or self.ny < 1:
            raise ConfigurationError("nx and ny must be >= 1")
        if not 0.0 < self.alpha0 < 1.0:
            raise ConfigurationError("alpha0 must lie in (0, 1)")
        if not 0.0 <= self.eta_scale <= 1.0:
            raise ConfigurationError("eta_scale must lie in [0, 1]")
        if self.rk_order not in (2, 3):
            raise ConfigurationError("rk_order must be 2 or 3")
        if not 0.0 < self.cfl <= 1.0:
            raise ConfigurationError("cfl must lie in (0, 1]")
        if self.t_final < 0.0:
            raise ConfigurationError("t_final must be >= 0")
        if self.threads < 1:
            raise ConfigurationError("threads must be >= 1")
        if self.steps < 1:
            raise ConfigurationError("steps must be >= 1")
        # a check over no polynomials or no triples would pass vacuously
        if self.n_polynomials < 1:
            raise ConfigurationError("n_polynomials must be >= 1")
        if self.n_triples < 1:
            raise ConfigurationError("n_triples must be >= 1")
        # a negative tolerance fails a conserving run; a level below one
        # would run at the config's nx (see background)
        if self.growth_tol < 0.0:
            raise ConfigurationError(f"key 'growth_tol': must be >= 0, got {self.growth_tol}")
        if any(n < 1 for n in self.refinements):
            levels = ",".join(map(str, self.refinements))
            raise ConfigurationError(f"key 'refinements': every level must be >= 1, got {levels}")
        if self.equation == "acoustics" and self.sound_speed <= 0:
            raise ConfigurationError("sound_speed must be positive")
        for abc in self.constraints:
            HalfPlane(*abc)   # raises on non-unit normals
        return self

    # ------------------------------------------------------------------
    def system(self):
        if self.equation == "advection":
            return SystemSpec.advection(self.beta)
        return SystemSpec.acoustics(self.sound_speed)

    def background(self, nx=None, ny=None):
        x0, y0, x1, y1 = self.box
        return BackgroundMesh(x0, y0, x1, y1, nx or self.nx, ny or self.ny)

    def geometry(self):
        return Geometry(tuple(HalfPlane(*abc) for abc in self.constraints))


_KEY_ORDER = [
    "equation", "degree", "nx", "ny", "box", "geometry.constraint", "beta",
    "sound_speed", "alpha0", "eta_scale", "cfl", "t_final", "rk_order", "seed",
    "out", "initial", "n_polynomials", "n_triples", "refinements",
    "projection_only", "steps", "growth_tol", "dod", "threads",
]

_INT_KEYS = {"degree", "nx", "ny", "rk_order", "seed", "n_polynomials",
             "n_triples", "steps", "threads"}
_FLOAT_KEYS = {"sound_speed", "alpha0", "eta_scale", "cfl", "t_final", "growth_tol"}
_BOOL_KEYS = {"projection_only", "dod"}
_STR_KEYS = {"equation", "out", "initial"}


def _parse_floats(value, key, count=None):
    try:
        vals = tuple(float(v) for v in value.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"key {key!r}: cannot parse {value!r}") from exc
    if count is not None and len(vals) != count:
        raise ConfigurationError(f"key {key!r}: expected {count} comma-separated values")
    return vals


def parse_config(text):
    cfg = RunConfig()
    seen_constraints = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "geometry.constraint":
            seen_constraints.append(_parse_floats(value, key, 3))
        elif key == "box":
            cfg.box = _parse_floats(value, key, 4)
        elif key == "beta":
            cfg.beta = _parse_floats(value, key, 2)
        elif key == "refinements":
            try:
                cfg.refinements = tuple(int(v) for v in value.split(","))
            except ValueError as exc:
                raise ConfigurationError(f"key {key!r}: cannot parse {value!r}") from exc
        elif key in _INT_KEYS:
            try:
                setattr(cfg, key, int(value))
            except ValueError as exc:
                raise ConfigurationError(f"key {key!r}: cannot parse {value!r}") from exc
        elif key in _FLOAT_KEYS:
            try:
                setattr(cfg, key, float(value))
            except ValueError as exc:
                raise ConfigurationError(f"key {key!r}: cannot parse {value!r}") from exc
        elif key in _BOOL_KEYS:
            if value not in ("true", "false"):
                raise ConfigurationError(f"key {key!r}: expected true or false")
            setattr(cfg, key, value == "true")
        elif key in _STR_KEYS:
            setattr(cfg, key, value)
        else:
            raise ConfigurationError(f"unknown config key {key!r}")
    cfg.constraints = seen_constraints
    return cfg.validate()


def serialize_config(cfg):
    """Canonical text form: fixed key order, 17 significant digits."""
    lines = []
    for key in _KEY_ORDER:
        if key == "geometry.constraint":
            for abc in cfg.constraints:
                lines.append(f"geometry.constraint = {','.join(_FLOAT(v) for v in abc)}")
        elif key == "box":
            lines.append(f"box = {','.join(_FLOAT(v) for v in cfg.box)}")
        elif key == "beta":
            lines.append(f"beta = {','.join(_FLOAT(v) for v in cfg.beta)}")
        elif key == "refinements":
            lines.append(f"refinements = {','.join(str(v) for v in cfg.refinements)}")
        elif key in _BOOL_KEYS:
            lines.append(f"{key} = {'true' if getattr(cfg, key) else 'false'}")
        elif key in _FLOAT_KEYS:
            lines.append(f"{key} = {_FLOAT(getattr(cfg, key))}")
        else:
            lines.append(f"{key} = {getattr(cfg, key)}")
    return "\n".join(lines) + "\n"


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
