"""Grids, volumes and deformation fields.

Conventions used everywhere in this package:

* Grids are axis-aligned and cell-centered: the world position of cell
  (i, j, k) is ``origin + (i*hx, j*hy, k*hz)``, in millimeters.
* Scalar volumes are C-ordered numpy arrays of shape (nz, ny, nx), so the
  flat index is ``i + nx*(j + ny*k)`` -- x runs fastest.
* Vector quantities carry a leading axis of length 3 ordered (x, y, z).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

_EXTENT_TOL = 1e-9  # mm of world-coordinate slack in Grid3.same_extent


class GridError(ValueError):
    """Invalid grid definition or mismatched grids."""


@dataclass(frozen=True)
class Grid3:
    """Axis-aligned cell-centered 3D grid."""

    dims: tuple[int, int, int]        # (nx, ny, nz)
    spacing: tuple[float, float, float]  # (hx, hy, hz), mm
    origin: tuple[float, float, float]   # world position of cell (0,0,0), mm

    def __post_init__(self):
        if len(self.dims) != 3 or len(self.spacing) != 3 or len(self.origin) != 3:
            raise GridError("dims, spacing and origin must each have 3 entries")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "spacing", tuple(float(h) for h in self.spacing))
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))
        if any(d < 1 for d in self.dims):
            raise GridError(f"all dims must be >= 1, got {self.dims}")
        if any(not (h > 0 and math.isfinite(h)) for h in self.spacing):
            raise GridError(f"all spacings must be positive and finite, got {self.spacing}")
        if any(not math.isfinite(o) for o in self.origin):
            raise GridError(f"origin must be finite, got {self.origin}")

    @property
    def shape(self) -> tuple[int, int, int]:
        """Array shape (nz, ny, nx) for volumes on this grid."""
        return (self.dims[2], self.dims[1], self.dims[0])

    @property
    def num_points(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    @property
    def cell_volume(self) -> float:
        return self.spacing[0] * self.spacing[1] * self.spacing[2]

    @property
    def domain_min(self) -> tuple[float, float, float]:
        """Lower corner of the covered world domain (cell edges, not centers)."""
        return tuple(o - h / 2 for o, h in zip(self.origin, self.spacing))

    @property
    def extent(self) -> tuple[float, float, float]:
        """Full world extent per axis (dims * spacing)."""
        return tuple(n * h for n, h in zip(self.dims, self.spacing))

    def with_dims(self, dims) -> "Grid3":
        """The grid of `dims` (m per axis) cells over this grid's world domain:
        spacing n * h / m, origin (o - h / 2) + spacing / 2."""
        spacing = tuple(n * h / m for n, h, m in zip(self.dims, self.spacing, dims))
        return Grid3(dims, spacing, tuple(lo + s / 2 for lo, s in zip(self.domain_min, spacing)))

    def axis_centers(self, axis: int) -> np.ndarray:
        """World coordinates of the cell centers along one axis (0=x,1=y,2=z)."""
        return self.origin[axis] + self.spacing[axis] * np.arange(self.dims[axis], dtype=np.float64)

    def same_extent(self, other: "Grid3") -> bool:
        """True if both grids cover the same world domain (cell-edge to cell-edge)."""
        for lo_s, lo_o, ext_s, ext_o in zip(self.domain_min, other.domain_min,
                                            self.extent, other.extent):
            if abs(lo_s - lo_o) > _EXTENT_TOL or abs(lo_s + ext_s - (lo_o + ext_o)) > _EXTENT_TOL:
                return False
        return True


def _check_values(grid: Grid3, values: np.ndarray, name: str) -> np.ndarray:
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise GridError(f"{name} shape {values.shape} does not match grid shape {grid.shape}")
    if not np.all(np.isfinite(values)):
        raise GridError(f"{name} contains non-finite values")
    return values


@dataclass
class Image3:
    """Scalar intensity volume bound to a grid."""

    grid: Grid3
    values: np.ndarray  # shape grid.shape

    def __post_init__(self):
        self.values = _check_values(self.grid, self.values, "values")

    def astype(self, dtype) -> "Image3":
        """The image itself if its values have dtype, else a checked copy in dtype."""
        if self.values.dtype == dtype:
            return self
        with np.errstate(over="ignore"):  # an overflow is non-finite: Image3 rejects it
            return Image3(self.grid, self.values.astype(dtype))


@dataclass
class VectorField3:
    """Three-component field on grid points; components stacked in axis 0 as (x, y, z)."""

    grid: Grid3
    field: np.ndarray  # shape (3,) + grid.shape

    def __post_init__(self):
        self.field = np.asarray(self.field)
        if self.field.shape != (3,) + self.grid.shape:
            raise GridError(
                f"field shape {self.field.shape} does not match (3,)+{self.grid.shape}"
            )
        if not np.all(np.isfinite(self.field)):
            raise GridError("field contains non-finite values")


def identity_field_array(grid: Grid3, dtype=np.float64) -> np.ndarray:
    """(3, nz, ny, nx) array of cell-center world coordinates."""
    nz, ny, nx = grid.shape
    out = np.empty((3, nz, ny, nx), dtype=dtype)
    out[0] = grid.axis_centers(0).astype(dtype)[None, None, :]
    out[1] = grid.axis_centers(1).astype(dtype)[None, :, None]
    out[2] = grid.axis_centers(2).astype(dtype)[:, None, None]
    return out


@dataclass
class DeformationField(VectorField3):
    """World-coordinate map y on the deformation grid; identity means no motion."""

    def displacement(self) -> np.ndarray:
        return self.field - identity_field_array(self.grid, self.field.dtype)


def make_identity(grid: Grid3, dtype=np.float64) -> DeformationField:
    return DeformationField(grid, identity_field_array(grid, dtype))


def check_kind(name: str, value, kind=numbers.Real, what: str = "a real number") -> None:
    """Raise ValueError naming the setting `name` unless value is an instance
    of `kind` (by default a Python or numpy real number), not a bool."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {what}, got {value!r}")


def check_integer(name: str, value, minimum: int) -> None:
    """check_kind for a Python or numpy integer of at least `minimum`."""
    check_kind(name, value, numbers.Integral, "an integer")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


PRECISIONS = {"f32": np.float32, "f64": np.float64}


def precision_dtype(name: str):
    """Map a precision name (a key of PRECISIONS) to a numpy dtype."""
    try:
        return PRECISIONS[name]
    except KeyError:
        raise ValueError(f"unknown precision {name!r}, expected {tuple(PRECISIONS)}") from None
