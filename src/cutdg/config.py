"""Flat ``key = value`` run configuration.

One assignment per line, ``#`` comments, repeated ``geometry.constraint``
lines accumulate.  Unknown keys are rejected by name; parsing then
serializing yields a canonical form byte-identical across runs.
"""

import math
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigurationError
from .geometry import BackgroundMesh, HalfPlane
from .systems import SystemSpec

_FLOAT = "{:.17g}".format


def _values(kind, count=None, **metadata):
    """Field metadata of a comma-separated key: its values' type, and a
    parser that checks their count."""
    def parse(value, key):
        try:
            vals = tuple(kind(v) for v in value.split(","))
        except ValueError as exc:
            raise ConfigurationError(f"key {key!r}: cannot parse {value!r}") from exc
        if count is not None and len(vals) != count:
            raise ConfigurationError(f"key {key!r}: expected {count} comma-separated values")
        return vals

    return dict(metadata, kind=kind, parse=parse)


@dataclass
class RunConfig:
    """One run's settings.  The fields are the config keys, in their
    canonical order; a repeated key (``geometry.constraint``, one line per
    (a, b, c) triple) gathers its values in a list."""

    equation: str = "advection"
    degree: int = 1
    nx: int = 16
    box: tuple = field(default=(0.0, 0.0, 1.0, 1.0), metadata=_values(float, 4))
    constraints: list = field(default_factory=list, metadata=_values(
        float, 3, key="geometry.constraint", repeated=True))
    beta: tuple = field(default=(1.0, 0.0), metadata=_values(float, 2))
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
    refinements: tuple = field(default=(16, 32, 64), metadata=_values(int))
    projection_only: bool = False
    steps: int = 1000
    growth_tol: float = 1e-3
    dod: bool = True

    # ------------------------------------------------------------------
    def validate(self):
        for key, f, value in _entries(self):
            values = value if "kind" in f.metadata else (value,)
            if f.metadata.get("kind", f.type) is float and not all(map(math.isfinite, values)):
                raise ConfigurationError(
                    f"key {key!r}: values must be finite, got {','.join(map(str, values))}"
                )
        if self.equation not in ("advection", "acoustics"):
            raise ConfigurationError(f"unknown equation {self.equation!r}")
        if self.degree < 0:
            raise ConfigurationError("degree must be >= 0")
        if self.nx < 1:
            raise ConfigurationError("nx must be >= 1")
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
        if self.seed < 0:
            raise ConfigurationError(f"key 'seed': must be >= 0, got {self.seed}")
        if self.steps < 1:
            raise ConfigurationError("steps must be >= 1")
        # a check over no polynomials or no triples would pass vacuously
        if self.n_polynomials < 1:
            raise ConfigurationError("n_polynomials must be >= 1")
        if self.n_triples < 1:
            raise ConfigurationError("n_triples must be >= 1")
        # a negative tolerance fails a conserving run
        if self.growth_tol < 0.0:
            raise ConfigurationError(f"key 'growth_tol': must be >= 0, got {self.growth_tol}")
        if any(n < 1 for n in self.refinements):
            levels = ",".join(map(str, self.refinements))
            raise ConfigurationError(f"key 'refinements': every level must be >= 1, got {levels}")
        # the observed order compares each level with the coarser one before it
        if any(a >= b for a, b in zip(self.refinements, self.refinements[1:])):
            levels = ",".join(map(str, self.refinements))
            raise ConfigurationError(f"key 'refinements': levels must increase, got {levels}")
        x0, y0, x1, y1 = self.box
        if not (x1 > x0 and y1 > y0):
            raise ConfigurationError("box corners must satisfy x1 > x0 and y1 > y0")
        # every level's cells must be square before any level runs
        for key, levels in (("nx", (self.nx,)), ("refinements", self.refinements)):
            for n in levels:
                try:
                    replace(self, nx=n).background()
                except ConfigurationError as exc:
                    raise ConfigurationError(f"key {key!r}: at nx = {n}, {exc}") from exc
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

    def background(self):
        """The box in square cells: ``nx`` across, and the rows that fit."""
        x0, y0, x1, y1 = self.box
        return BackgroundMesh(x0, y0, x1, y1, self.nx, round((y1 - y0) * self.nx / (x1 - x0)))


_FIELDS = {f.metadata.get("key", f.name): f for f in fields(RunConfig)}


def _entries(cfg):
    """(key, field, value) of every line of ``cfg``, in key order."""
    for key, f in _FIELDS.items():
        value = getattr(cfg, f.name)
        for v in value if f.metadata.get("repeated") else (value,):
            yield key, f, v


def _parse(f, key, value):
    if "parse" in f.metadata:
        return f.metadata["parse"](value, key)
    if f.type is bool:
        if value not in ("true", "false"):
            raise ConfigurationError(f"key {key!r}: expected true or false")
        return value == "true"
    try:
        return f.type(value)
    except ValueError as exc:
        raise ConfigurationError(f"key {key!r}: cannot parse {value!r}") from exc


def _format(f, value):
    if "kind" in f.metadata:
        return ",".join(_FLOAT(v) if f.metadata["kind"] is float else str(v) for v in value)
    if f.type is bool:
        return "true" if value else "false"
    return _FLOAT(value) if f.type is float else str(value)


def parse_config(text):
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        f = _FIELDS.get(key)
        if f is None:
            raise ConfigurationError(f"unknown config key {key!r}")
        value = _parse(f, key, value)
        if f.metadata.get("repeated"):
            getattr(cfg, f.name).append(value)
        else:
            setattr(cfg, f.name, value)
    return cfg.validate()


def serialize_config(cfg):
    """Canonical text form: fixed key order, 17 significant digits."""
    return "".join(f"{key} = {_format(f, value)}\n" for key, f, value in _entries(cfg))


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
