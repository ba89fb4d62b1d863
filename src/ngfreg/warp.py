"""Template sampling at deformed positions and image-grid finite differences.

One trilinear kernel serves every interpolation of grid samples at world
positions: the warp, its derivative with respect to the positions (kept
by the forward pass, so the backward pass is one multiply) and the
evaluation of deformation fields at landmarks. The gradient stencil comes
with its exact transpose, so the distance gradient is assembled by the
chain rule without materializing any operator matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Grid3, Image3, VectorField3
from .parallel import run_slabs

__all__ = [
    "WarpResult",
    "image_gradient",
    "image_gradient_apply_transpose",
    "warp_image",
]

# Voxels per kernel call. The warp walks each slab in chunks of whole
# z-planes of about this size, so the kernel's temporaries stay small and
# cache-resident instead of slab-sized.
_CHUNK_VOXELS = 1 << 16


@dataclass
class WarpResult:
    warped: Image3
    inside_mask: np.ndarray  # True where the sample fell inside the template hull
    # (3, nz, ny, nx) world-space partial derivatives of the interpolant at
    # each sample; zero outside the hull and along degenerate axes. Only
    # filled when warp_image is asked for them.
    partials: np.ndarray | None = None


def _trilinear(flat: np.ndarray, grid: Grid3, pos: np.ndarray, partials: bool = False):
    """Trilinear interpolation of grid samples at world positions.

    flat holds the samples of `grid` x-fastest in its last axis, (..., N);
    pos is (3, *shape). Returns (value (..., *shape), inside (*shape),
    partials (3, ..., *shape) or None). inside flags positions in the
    cell-center hull. Outside it the value is the clamp-to-edge
    extrapolation and the partials are zero.
    """
    dtype = pos.dtype
    inside = np.ones(pos.shape[1:], dtype=bool)
    base = np.zeros(pos.shape[1:], dtype=np.intp)
    f, steps, stride = [], [], 1
    for a in range(3):
        n = grid.dims[a]
        t = (pos[a] - grid.origin[a]) / dtype.type(grid.spacing[a])
        inside &= (t >= 0) & (t <= n - 1)
        lo = np.clip(np.floor(t).astype(np.intp), 0, max(n - 2, 0))
        f.append(np.clip(t - lo, 0.0, 1.0).astype(dtype, copy=False))
        base += lo * stride
        steps.append(stride if n > 1 else 0)  # a degenerate axis has one corner
        stride *= n
    sx, sy, sz = steps
    fx, fy, fz = f
    gx, gy, gz = 1 - fx, 1 - fy, 1 - fz
    # the 8 corners as the 4 cell edges along x, at (y, z) = 00, 10, 01, 11
    edges = [(np.take(flat, base + off, axis=-1), np.take(flat, base + off + sx, axis=-1))
             for off in (0, sy, sz, sy + sz)]
    ex = [c0 * gx + c1 * fx for c0, c1 in edges]              # interpolated along x,
    ey = [ex[0] * gy + ex[1] * fy, ex[2] * gy + ex[3] * fy]   # then y,
    value = ey[0] * gz + ey[1] * fz                           # then z
    if not partials:
        return value, inside, None
    dx = [c1 - c0 for c0, c1 in edges]
    grads = np.stack([(dx[0] * gy + dx[1] * fy) * gz + (dx[2] * gy + dx[3] * fy) * fz,
                      (ex[1] - ex[0]) * gz + (ex[3] - ex[2]) * fz,
                      ey[1] - ey[0]])
    for a in range(3):
        grads[a] /= dtype.type(grid.spacing[a])
    np.copyto(grads, 0, where=~inside)
    return value, inside, grads


def warp_image(template: Image3, yhat: VectorField3, workers: int = 1, *,
               partials: bool = False) -> WarpResult:
    """Trilinear sampling of the template at world positions yhat.

    Positions outside the template cell-center hull produce value 0 with
    inside_mask False (Dirichlet-zero outside). With partials=True the
    result also carries the interpolant's world-space partial derivatives
    at every sample.
    """
    dtype = yhat.field.dtype
    flat = template.values.astype(dtype, copy=False).ravel()
    nz, ny, nx = yhat.grid.shape
    out = np.empty((nz, ny, nx), dtype=dtype)
    mask = np.empty((nz, ny, nx), dtype=bool)
    grads = np.empty((3, nz, ny, nx), dtype=dtype) if partials else None
    step = max(1, _CHUNK_VOXELS // (ny * nx))

    def do_slab(lo, hi):
        for k0 in range(lo, hi, step):
            k1 = min(k0 + step, hi)
            value, inside, d = _trilinear(flat, template.grid, yhat.field[:, k0:k1], partials)
            np.copyto(value, 0, where=~inside)
            out[k0:k1] = value
            mask[k0:k1] = inside
            if partials:
                grads[:, k0:k1] = d

    run_slabs(do_slab, nz, workers)
    return WarpResult(warped=Image3(yhat.grid, out), inside_mask=mask, partials=grads)


def _clamp_to_hull(grid: Grid3, pos: np.ndarray) -> np.ndarray:
    """Clip world positions (3, ...) into the cell-center hull of grid, in place."""
    for a in range(3):
        lo = grid.origin[a]
        np.clip(pos[a], lo, lo + (grid.dims[a] - 1) * grid.spacing[a], out=pos[a])
    return pos


def _diff_axis(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Central differences interior, one-sided first order at the two faces."""
    n = values.shape[axis]
    out = np.zeros_like(values)
    if n < 2:
        return out
    v = np.moveaxis(values, axis, 0)
    g = np.moveaxis(out, axis, 0)
    h = values.dtype.type(h)
    g[0] = (v[1] - v[0]) / h
    g[-1] = (v[-1] - v[-2]) / h
    if n > 2:
        g[1:-1] = (v[2:] - v[:-2]) / (2 * h)
    return out


def image_gradient(img: Image3, workers: int = 1) -> VectorField3:
    """Finite-difference spatial gradient on the image grid."""
    g = img.grid
    out = np.empty((3,) + g.shape, dtype=img.values.dtype)
    for a in range(3):
        out[a] = _diff_axis(img.values, g.spacing[a], _np_axis(a))
    return VectorField3(g, out)


def _np_axis(a: int) -> int:
    return 2 - a  # geometric x,y,z -> numpy axes 2,1,0


def _diff_axis_transpose(w: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Exact transpose of _diff_axis along one axis."""
    n = w.shape[axis]
    out = np.zeros_like(w)
    if n < 2:
        return out
    ww = np.moveaxis(w, axis, 0)
    o = np.moveaxis(out, axis, 0)
    h = w.dtype.type(h)
    o[0] += -ww[0] / h
    o[1] += ww[0] / h
    o[n - 2] += -ww[n - 1] / h
    o[n - 1] += ww[n - 1] / h
    if n > 2:
        half = ww[1:-1] / (2 * h)
        o[: n - 2] += -half
        o[2:] += half
    return out


def image_gradient_apply_transpose(w: VectorField3, grid: Grid3) -> np.ndarray:
    """Apply G^T where G is the exact linear operator of image_gradient."""
    out = np.zeros(grid.shape, dtype=w.field.dtype)
    for a in range(3):
        out += _diff_axis_transpose(w.field[a], grid.spacing[a], _np_axis(a))
    return out
