"""Template sampling at deformed positions and image-grid finite differences.

One trilinear kernel serves every interpolation of grid samples at world
positions: the warp at P y and its derivative, which one helper takes per
chunk of z-planes for the NGF sweep and for warp_image alike, resampling
and the evaluation of deformation fields at landmarks. The
gradient stencil comes with its exact transpose, so the distance gradient is
assembled by the chain rule without materializing any operator matrix; both
run on whole arrays or on windows of z-planes.
"""

from __future__ import annotations

import numpy as np

from .geometry import DeformationField, Grid3, Image3, VectorField3
from .parallel import run_planes
from .transfer import _interp_xy, _interp_z, _transfers, check_compatible

__all__ = [
    "image_gradient",
    "image_gradient_apply_transpose",
    "warp_image",
]


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


def _sample_planes(flat: np.ndarray, grid: Grid3, y_xy: np.ndarray, transfers,
                   k0: int, k1: int, partials: bool = False):
    """The template samples flat of `grid` at image z-planes k0:k1 of P y, from y
    interpolated along x and y (_interp_xy): the value, 0 outside the template's
    cell-center hull, and the partials when asked for (0 there too), else None."""
    value, inside, d = _trilinear(flat, grid, _interp_z(y_xy, transfers, k0, k1), partials)
    np.copyto(value, 0, where=~inside)
    return value, d


def warp_image(template: Image3, y: DeformationField, workers: int = 1) -> Image3:
    """The template sampled at P y on its own grid, 0 outside its cell-center hull;
    P y is formed per chunk of z-planes, as in the NGF sweep, never image-sized."""
    grid = template.grid
    check_compatible(y.grid, grid)
    transfers = _transfers(grid, y.grid)
    flat = template.values.astype(y.field.dtype, copy=False).ravel()
    y_xy = _interp_xy(y.field, transfers)
    out = np.empty(grid.shape, dtype=flat.dtype)

    def do_chunk(k0, k1):  # the samples are returned for run_planes to hold: freed at
        # once, glibc hands their pages back and they fault in again (64^3: 7x the faults)
        out[k0:k1] = value = _sample_planes(flat, grid, y_xy, transfers, k0, k1)[0]
        return value

    run_planes(do_chunk, grid.dims[2], grid.dims[0] * grid.dims[1], workers)
    return Image3(grid, out)


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
        inner = out[lo - k0:hi - k0]
        np.subtract(v[lo + 1 - base:hi + 1 - base], v[lo - 1 - base:hi - 1 - base], out=inner)
        inner /= 2 * h
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
