"""Curvature regularizer: squared Laplacian of the displacement components.

The 7-point Laplacian uses linear extrapolation at the boundary
(u[-1] := 2u[0] - u[1]), which makes the stencil output exactly zero on
affine inputs everywhere, boundaries included. The value and the
gradient share one application of the stencil per component; the gradient
adds its exact transpose, no biharmonic matrix is assembled.
"""

from __future__ import annotations

import numpy as np

from .geometry import DeformationField, Grid3

__all__ = ["apply_laplacian", "apply_laplacian_transpose", "curvature_value_and_gradient"]

_NP_AXIS = (2, 1, 0)  # geometric x,y,z -> numpy axes


def _second_diff(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """1D second difference with zero rows at the faces (linear extrapolation)."""
    out = np.zeros_like(values)
    n = values.shape[axis]
    if n < 3:
        return out
    v = np.moveaxis(values, axis, 0)
    o = np.moveaxis(out, axis, 0)
    h2 = values.dtype.type(h) ** 2
    o[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / h2
    return out


def _second_diff_transpose(w: np.ndarray, h: float, axis: int) -> np.ndarray:
    out = np.zeros_like(w)
    n = w.shape[axis]
    if n < 3:
        return out
    ww = np.moveaxis(w, axis, 0)
    o = np.moveaxis(out, axis, 0)
    h2 = w.dtype.type(h) ** 2
    interior = ww[1:-1] / h2
    o[:-2] += interior
    o[1:-1] -= 2 * interior
    o[2:] += interior
    return out


def apply_laplacian(u: np.ndarray, grid: Grid3) -> np.ndarray:
    """7-point Laplacian of one scalar component on the deformation grid."""
    out = np.zeros_like(u)
    for a in range(3):
        out += _second_diff(u, grid.spacing[a], _NP_AXIS[a])
    return out


def apply_laplacian_transpose(w: np.ndarray, grid: Grid3) -> np.ndarray:
    out = np.zeros_like(w)
    for a in range(3):
        out += _second_diff_transpose(w, grid.spacing[a], _NP_AXIS[a])
    return out


def curvature_value_and_gradient(y: DeformationField) -> tuple[float, np.ndarray]:
    """S = (cell_volume/2) * sum over components and points of (L u)^2, where u
    is the displacement y - identity, and its gradient cell_volume * L^T (L u)
    per component."""
    u = y.displacement()
    grad = np.empty_like(u)
    vol = u.dtype.type(y.grid.cell_volume)
    total = u.dtype.type(0)
    for c in range(3):
        lap = apply_laplacian(u[c], y.grid)
        total = total + np.sum(lap * lap, dtype=lap.dtype)
        grad[c] = vol * apply_laplacian_transpose(lap, y.grid)
    return float(y.grid.cell_volume / 2 * total), grad
