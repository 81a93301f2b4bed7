"""Cut-cell discontinuous Galerkin solver with small-cell stabilization."""

from .geometry import (
    BackgroundMesh,
    HalfPlane,
    build_mesh,
    classify_small_cells,
    halfplane_from_line,
)
from .quadrature import DGFunction, Space
from .systems import SystemSpec

__version__ = "0.1.0"

__all__ = [
    "BackgroundMesh",
    "DGFunction",
    "HalfPlane",
    "Space",
    "SystemSpec",
    "build_mesh",
    "classify_small_cells",
    "halfplane_from_line",
    "__version__",
]
