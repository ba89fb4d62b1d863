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
from .parallel import run_planes

__all__ = [
    "WarpResult",
    "image_gradient",
    "image_gradient_apply_transpose",
    "warp_image",
]


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

    def do_chunk(k0, k1):
        value, inside, d = _trilinear(flat, template.grid, yhat.field[:, k0:k1], partials)
        np.copyto(value, 0, where=~inside)
        out[k0:k1] = value
        mask[k0:k1] = inside
        if partials:
            grads[:, k0:k1] = d

    run_planes(do_chunk, nz, ny * nx, workers)
    return WarpResult(warped=Image3(yhat.grid, out), inside_mask=mask, partials=grads)


def _clamp_to_hull(grid: Grid3, pos: np.ndarray) -> np.ndarray:
    """Clip world positions (3, ...) into the cell-center hull of grid, in place."""
    for a in range(3):
        lo = grid.origin[a]
        np.clip(pos[a], lo, lo + (grid.dims[a] - 1) * grid.spacing[a], out=pos[a])
    return pos


def _diff_rows(v: np.ndarray, h: float, k0: int, k1: int, out: np.ndarray) -> None:
    """Rows k0:k1 of the derivative along axis 0 of v into out: central
    differences inside, one-sided first order at the two faces. Reads one
    row beyond the range on each side."""
    n = v.shape[0]
    if n < 2:
        out[...] = 0
        return
    h = v.dtype.type(h)
    lo, hi = max(k0, 1), min(k1, n - 1)
    if lo < hi:
        out[lo - k0:hi - k0] = (v[lo + 1:hi + 1] - v[lo - 1:hi - 1]) / (2 * h)
    if k0 == 0:
        out[0] = (v[1] - v[0]) / h
    if k1 == n:
        out[-1] = (v[n - 1] - v[n - 2]) / h


def _diff_transpose_rows(w: np.ndarray, h: float, k0: int, k1: int, o: np.ndarray) -> None:
    """Add rows k0:k1 of the exact transpose of _diff_rows along axis 0 of w
    into o. Each row sums its terms in one fixed order (boundary rows, then
    the -half band, then the +half band), whatever the range."""
    n = w.shape[0]
    if n < 2:
        return
    h = w.dtype.type(h)
    for row, src, sign in ((0, 0, -1), (1, 0, 1), (n - 2, n - 1, -1), (n - 1, n - 1, 1)):
        if k0 <= row < k1:
            o[row - k0] += sign * w[src] / h
    hi = min(k1, n - 2)  # row i gets -w[i+1] / 2h for i < n - 2
    if k0 < hi:
        o[:hi - k0] += -(w[k0 + 1:hi + 1] / (2 * h))
    lo = max(k0, 2)  # and +w[i-1] / 2h for i >= 2
    if lo < k1:
        o[lo - k0:] += w[lo - 1:k1 - 1] / (2 * h)


def _gradient_planes(values: np.ndarray, spacing, k0: int, k1: int, out: np.ndarray) -> None:
    """Gradient of z-planes k0:k1 of values (nz, ny, nx) into out (3, k1-k0, ny, nx);
    reads one halo plane on each side in z."""
    planes = values[k0:k1]
    for a in (0, 1):  # in-plane axes: whole rows of the chunk, numpy axes 2 and 1
        ax = 2 - a
        _diff_rows(np.moveaxis(planes, ax, 0), spacing[a], 0, planes.shape[ax],
                   np.moveaxis(out[a], ax, 0))
    _diff_rows(values, spacing[2], k0, k1, out[2])


def _gradient_transpose_planes(w, spacing, axes, k0: int, k1: int, out: np.ndarray) -> None:
    """Add the parts of G^T w along the geometric `axes` for z-planes k0:k1 into
    out (k1-k0, ny, nx), axis by axis in the order given. w[i] is component
    axes[i]: for x and y just the planes k0:k1, for z all nz planes (one halo
    plane is read on each side)."""
    for comp, a in zip(w, axes):
        o = np.zeros_like(out)
        if a == 2:
            _diff_transpose_rows(comp, spacing[2], k0, k1, o)
        else:
            ax = 2 - a
            _diff_transpose_rows(np.moveaxis(comp, ax, 0), spacing[a], 0, comp.shape[ax],
                                 np.moveaxis(o, ax, 0))
        out += o


def image_gradient(img: Image3, workers: int = 1) -> VectorField3:
    """Finite-difference spatial gradient on the image grid."""
    g = img.grid
    out = np.empty((3,) + g.shape, dtype=img.values.dtype)
    run_planes(lambda k0, k1: _gradient_planes(img.values, g.spacing, k0, k1, out[:, k0:k1]),
                g.shape[0], g.shape[1] * g.shape[2], workers)
    return VectorField3(g, out)


def image_gradient_apply_transpose(w: VectorField3, grid: Grid3) -> np.ndarray:
    """Apply G^T where G is the exact linear operator of image_gradient."""
    out = np.zeros(grid.shape, dtype=w.field.dtype)
    _gradient_transpose_planes(w.field, grid.spacing, (0, 1, 2), 0, grid.shape[0], out)
    return out
