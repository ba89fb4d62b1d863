"""Template sampling at deformed positions and image-grid finite differences.

One trilinear kernel serves every interpolation of grid samples at world
positions: the warp, its derivative with respect to the positions (the NGF
sweep takes both per chunk of z-planes, so the backward pass is one
multiply) and the evaluation of deformation fields at landmarks. The
gradient stencil comes with its exact transpose, so the distance gradient is
assembled by the chain rule without materializing any operator matrix; both
run on whole arrays or on windows of z-planes.
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
    # the 8 corners as the 4 cell edges along x, at (y, z) = 00, 10, 01, 11;
    # each edge is interpolated along x and, for the partials, differenced in
    # place as soon as it is read, so no more than one edge's corners are held
    ex, dx = [], []
    for off in (0, sy, sz, sy + sz):
        c0 = np.take(flat, base + off, axis=-1)
        c1 = np.take(flat, base + off + sx, axis=-1)
        ex.append(c0 * gx + c1 * fx)                          # interpolated along x,
        if partials:
            dx.append(np.subtract(c1, c0, out=c1))
    ey = [ex[0] * gy + ex[1] * fy, ex[2] * gy + ex[3] * fy]   # then y,
    value = ey[0] * gz + ey[1] * fz                           # then z
    if not partials:
        return value, inside, None
    grads = np.empty((3,) + value.shape, dtype=value.dtype)
    grads[0] = (dx[0] * gy + dx[1] * fy) * gz + (dx[2] * gy + dx[3] * fy) * fz
    grads[1] = (ex[1] - ex[0]) * gz + (ex[3] - ex[2]) * fz
    grads[2] = ey[1] - ey[0]
    for a in range(3):
        grads[a] /= dtype.type(grid.spacing[a])
    np.copyto(grads, 0, where=~inside)
    return value, inside, grads


def warp_image(template: Image3, yhat: VectorField3, workers: int = 1) -> WarpResult:
    """Trilinear sampling of the template at world positions yhat.

    Positions outside the template cell-center hull produce value 0 with
    inside_mask False (Dirichlet-zero outside).
    """
    dtype = yhat.field.dtype
    flat = template.values.astype(dtype, copy=False).ravel()
    nz, ny, nx = yhat.grid.shape
    out = np.empty((nz, ny, nx), dtype=dtype)
    mask = np.empty((nz, ny, nx), dtype=bool)

    def do_chunk(k0, k1):
        value, inside, _ = _trilinear(flat, template.grid, yhat.field[:, k0:k1])
        np.copyto(value, 0, where=~inside)
        out[k0:k1] = value
        mask[k0:k1] = inside

    run_planes(do_chunk, nz, ny * nx, workers)
    return WarpResult(warped=Image3(yhat.grid, out), inside_mask=mask)


def _clamp_to_hull(grid: Grid3, pos: np.ndarray) -> np.ndarray:
    """Clip world positions (3, ...) into the cell-center hull of grid, in place."""
    for a in range(3):
        lo = grid.origin[a]
        np.clip(pos[a], lo, lo + (grid.dims[a] - 1) * grid.spacing[a], out=pos[a])
    return pos


def _diff_rows(v: np.ndarray, h: float, k0: int, k1: int, out: np.ndarray,
               base: int = 0, n: int | None = None) -> None:
    """Rows k0:k1 of the derivative along axis 0 of an n-row array into out:
    central differences inside, one-sided first order at the two faces. v
    holds rows base:base + len(v) of that array (by default v is the whole
    array) and must include the row beyond the range on each side."""
    n = v.shape[0] if n is None else n
    if n < 2:
        out[...] = 0
        return
    if k0 >= k1:
        return
    h = v.dtype.type(h)
    lo, hi = max(k0, 1), min(k1, n - 1)
    if lo < hi:
        out[lo - k0:hi - k0] = (v[lo + 1 - base:hi + 1 - base]
                                - v[lo - 1 - base:hi - 1 - base]) / (2 * h)
    if k0 == 0:
        out[0] = (v[1 - base] - v[-base]) / h
    if k1 == n:
        out[-1] = (v[n - 1 - base] - v[n - 2 - base]) / h


def _diff_transpose_rows(w: np.ndarray, h: float, k0: int, k1: int, o: np.ndarray,
                         base: int = 0, n: int | None = None) -> None:
    """Add rows k0:k1 of the exact transpose of _diff_rows along axis 0 of an
    n-row array w into o; w holds rows base:base + len(w), as in _diff_rows.
    Each row sums its terms in one fixed order (boundary rows, then the -half
    band, then the +half band), whatever the range and the window."""
    n = w.shape[0] if n is None else n
    if n < 2:
        return
    h = w.dtype.type(h)
    for row, src, sign in ((0, 0, -1), (1, 0, 1), (n - 2, n - 1, -1), (n - 1, n - 1, 1)):
        if k0 <= row < k1:
            o[row - k0] += sign * w[src - base] / h
    hi = min(k1, n - 2)  # row i gets -w[i+1] / 2h for i < n - 2
    if k0 < hi:
        o[:hi - k0] += -(w[k0 + 1 - base:hi + 1 - base] / (2 * h))
    lo = max(k0, 2)  # and +w[i-1] / 2h for i >= 2
    if lo < k1:
        o[lo - k0:] += w[lo - 1 - base:k1 - 1 - base] / (2 * h)


def _gradient_planes(values: np.ndarray, spacing, k0: int, k1: int, out: np.ndarray,
                     base: int = 0, n: int | None = None) -> None:
    """Gradient of z-planes k0:k1 of an n-plane image into out (3, k1-k0, ny, nx).
    values holds planes base:base + len(values) (by default the whole image)
    and must include one halo plane on each side in z."""
    planes = values[k0 - base:k1 - base]
    for a in (0, 1):  # in-plane axes: whole rows of the chunk, numpy axes 2 and 1
        ax = 2 - a
        _diff_rows(np.moveaxis(planes, ax, 0), spacing[a], 0, planes.shape[ax],
                   np.moveaxis(out[a], ax, 0))
    _diff_rows(values, spacing[2], k0, k1, out[2], base, n)


def _gradient_transpose_planes(w, spacing, axes, k0: int, k1: int, out: np.ndarray,
                               base: int = 0, n: int | None = None) -> None:
    """Add the parts of G^T w along the geometric `axes` for z-planes k0:k1 into
    out (k1-k0, ny, nx), axis by axis in the order given. w[i] is component
    axes[i]: for x and y just the planes k0:k1, for z the planes
    base:base + len(w[i]) of n (by default all of them), with one halo plane
    on each side."""
    for comp, a in zip(w, axes):
        o = np.zeros_like(out)
        if a == 2:
            _diff_transpose_rows(comp, spacing[2], k0, k1, o, base, n)
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
