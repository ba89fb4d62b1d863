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
from .parallel import Workspace, workspace

__all__ = ["apply_laplacian", "apply_laplacian_transpose", "curvature_value_and_gradient"]

_NP_AXIS = (2, 1, 0)  # geometric x,y,z -> numpy axes of a 3-D array

# per numpy axis of a 3-D array, counted from the end of a stack of them: the
# index of its points 0:n-2, 1:n-1 and 2:n
_SLICES = tuple(tuple((Ellipsis, s) + (slice(None),) * (2 - ax) for s in
                      (slice(None, -2), slice(1, -1), slice(2, None))) for ax in range(3))


def _laplacian(u: np.ndarray, spacing, out: np.ndarray, ws: Workspace) -> np.ndarray:
    """L u into out for u (..., nz, ny, nx), scratch from ws: per axis of 3
    points or more the second difference on its interior points,
    ((u[2:] - 2 u[1:-1]) + u[:-2]) / h^2, added to out in the order x, y, z.
    The faces of an axis get nothing from it (linear extrapolation); a sum
    that starts from +0 never holds -0, so adding +0 there would change no bit."""
    out.fill(0)
    for a, ax in enumerate(_NP_AXIS):
        if u.shape[ax - 3] < 3:
            continue
        lo, mid, hi = _SLICES[ax]
        with ws.frame():
            t = np.multiply(u[mid], 2, out=ws.array(u[mid].shape, u.dtype))
            np.subtract(u[hi], t, out=t)
            t += u[lo]
            t /= u.dtype.type(spacing[a]) ** 2
            out[mid] += t
    return out


def _laplacian_transpose(w: np.ndarray, spacing, out: np.ndarray, ws: Workspace) -> np.ndarray:
    """L^T w into out for w (..., nz, ny, nx), scratch from ws: per axis of 3
    points or more the transpose of its second difference, formed on its own
    from zero, then added to out in the order x, y, z."""
    out.fill(0)
    for a, ax in enumerate(_NP_AXIS):
        if w.shape[ax - 3] < 3:
            continue
        lo, mid, hi = _SLICES[ax]
        with ws.frame():
            part = ws.array(w.shape, w.dtype)
            part.fill(0)
            i = np.divide(w[mid], w.dtype.type(spacing[a]) ** 2,
                          out=ws.array(w[mid].shape, w.dtype))
            part[lo] += i
            part[mid] -= np.multiply(i, 2, out=ws.array(i.shape, w.dtype))
            part[hi] += i
            out += part
    return out


def apply_laplacian(u: np.ndarray, grid: Grid3) -> np.ndarray:
    """7-point Laplacian of one scalar component on the deformation grid."""
    with workspace().frame() as ws:
        return _laplacian(u, grid.spacing, np.empty_like(u), ws)


def apply_laplacian_transpose(w: np.ndarray, grid: Grid3) -> np.ndarray:
    with workspace().frame() as ws:
        return _laplacian_transpose(w, grid.spacing, np.empty_like(w), ws)


def curvature_value_and_gradient(y: DeformationField) -> tuple[float, np.ndarray]:
    """S = (cell_volume/2) * sum over components and points of (L u)^2, where u
    is the displacement y - identity, and its gradient cell_volume * L^T (L u)
    per component. The stencils run on all three components at once; the
    squares are summed per component, then over the components in order."""
    u = y.displacement()
    grad = np.empty_like(u)
    total = u.dtype.type(0)
    with workspace().frame() as ws:
        lap = _laplacian(u, y.grid.spacing, ws.array(u.shape, u.dtype), ws)
        with ws.frame():
            sq = np.multiply(lap, lap, out=ws.array(u.shape, u.dtype))
            for c in range(3):
                total = total + np.sum(sq[c], dtype=u.dtype)
        _laplacian_transpose(lap, y.grid.spacing, grad, ws)
    grad *= u.dtype.type(y.grid.cell_volume)
    return float(y.grid.cell_volume / 2 * total), grad
