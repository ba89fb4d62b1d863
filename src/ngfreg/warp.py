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
from .parallel import Workspace, run_planes, workspace
from .transfer import _interp_weights, _interp_xy, _interp_z, _transfers, check_compatible

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
    value = np.empty(flat.shape[:-1] + pos.shape[1:], dtype=pos.dtype)
    grads = np.empty((3,) + value.shape, dtype=pos.dtype) if partials else None
    # a Workspace of its own: its temporaries are allocated, and freed, like any
    inside = ~_trilinear_into(flat, grid, pos, value, grads, Workspace())
    return value, inside, grads


def _trilinear_into(flat: np.ndarray, grid: Grid3, pos: np.ndarray, value: np.ndarray,
                    partials: np.ndarray | None, ws: Workspace) -> np.ndarray:
    """The kernel of _trilinear: writes value and, unless None, partials, and
    returns the positions outside the hull as a bool array of ws."""
    cells = _cell_arrays(pos.shape, pos.dtype, ws)
    with ws.frame():
        _cells(grid, pos, *cells, ws)
    _corners(flat, grid, *cells, value, partials, ws)
    return cells[2]


def _cell_arrays(pos_shape: tuple, dtype, ws: Workspace) -> tuple:
    """Arrays of ws for _cells: the fractions (3, *shape), the lower corner's
    flat index and the outside flags (*shape)."""
    return (ws.array(pos_shape, dtype), ws.array(pos_shape[1:], np.intp),
            ws.array(pos_shape[1:], bool))


def _cells(grid: Grid3, pos: np.ndarray, f: np.ndarray, base: np.ndarray,
           outside: np.ndarray, ws: Workspace) -> None:
    """The cells of world positions pos (3, *shape) on `grid`, into f, base and
    outside (_cell_arrays).

    Per axis the index coordinate t = (pos - origin) / spacing is clipped into
    [0, n - 1], which is the clamp-to-edge position, and a position is outside
    the cell-center hull where that changed t. The lower corner is the clipped
    t floored, at most n - 2, and its fraction f is what remains, in [0, 1].
    """
    dtype = f.dtype
    per_axis = (3,) + (1,) * (pos.ndim - 1)
    dims = grid.dims
    t = ws.array(pos.shape, dtype)
    np.subtract(pos, np.array(grid.origin, dtype).reshape(per_axis), out=t)
    np.divide(t, np.array(grid.spacing, dtype).reshape(per_axis), out=t)
    np.clip(t, 0, np.array([n - 1 for n in dims], dtype).reshape(per_axis), out=f)
    moved = ws.array(pos.shape, bool)
    np.not_equal(t, f, out=moved)
    np.logical_or.reduce(moved, axis=0, out=outside)
    np.minimum(f, np.array([max(n - 2, 0) for n in dims], dtype).reshape(per_axis), out=t)
    lo = ws.array(pos.shape, np.intp)
    np.copyto(lo, t, casting="unsafe")  # truncation is the floor of t >= 0
    np.subtract(f, lo, out=f, dtype=dtype)
    lo *= np.array([1, dims[0], dims[0] * dims[1]], np.intp).reshape(per_axis)
    np.add.reduce(lo, axis=0, out=base)


def _corners(flat: np.ndarray, grid: Grid3, f: np.ndarray, base: np.ndarray,
             outside: np.ndarray, value: np.ndarray, partials: np.ndarray | None,
             ws: Workspace) -> None:
    """The samples flat (..., N) of `grid` interpolated in the cells of _cells
    into value (..., *shape) and, unless None, the partials into partials
    (3, ..., *shape), 0 outside.

    The 8 corners are taken from views of flat shifted by each corner's
    offset, all at the lower corner's index, as the 4 cell edges along x, and
    combined by lerps lo + f (hi - lo) whose differences hi - lo are kept for
    the partials. Each face of the cell along z is done before the next.
    """
    dtype = value.dtype
    keep = partials is not None  # the partials need the differences
    dims = grid.dims
    sx, sy, sz = (s if n > 1 else 0  # a degenerate axis has one corner
                  for s, n in zip((1, dims[0], dims[0] * dims[1]), dims))
    fx, fy, fz = f

    def take(off, out):
        return np.take(flat[..., off:], base, axis=-1, out=out, mode="clip")

    def lerp(lo, hi, frac, tmp):  # lo + frac (hi - lo) into lo; hi keeps hi - lo
        hi -= lo                     # unless tmp is hi
        np.multiply(hi, frac, out=tmp)
        lo += tmp

    tmp = ws.array(value.shape, dtype)
    faces = []
    for z in (0, sz):
        e0 = take(z, ws.array(value.shape, dtype))
        d0 = take(z + sx, ws.array(value.shape, dtype) if keep else tmp)
        lerp(e0, d0, fx, tmp if keep else d0)
        e1 = take(z + sy, ws.array(value.shape, dtype))
        with ws.frame():
            d1 = take(z + sy + sx, ws.array(value.shape, dtype) if keep else tmp)
            lerp(e1, d1, fx, tmp if keep else d1)
            lerp(e0, e1, fy, tmp if keep else e1)  # along y; e1 keeps the y difference
            if keep:
                lerp(d0, d1, fy, d1)
        faces.append((e0, e1, d0))
    (e0, e1, d0), (e2, e3, d2) = faces
    dz = partials[2] if keep else e2  # then along z
    np.subtract(e2, e0, out=dz)
    np.multiply(dz, fz, out=tmp)
    np.add(e0, tmp, out=value)
    if not keep:
        return
    for lo, hi, out in ((e1, e3, partials[1]), (d0, d2, partials[0])):  # lerps along z
        hi -= lo
        hi *= fz
        np.add(lo, hi, out=out)
    partials *= (1 / np.array(grid.spacing, dtype)).reshape((3,) + (1,) * (partials.ndim - 1))
    np.copyto(partials, 0, where=outside)


def _sample_planes(flat: np.ndarray, grid: Grid3, y_xy: np.ndarray, weights,
                   k0: int, k1: int, value: np.ndarray, partials: np.ndarray | None,
                   ws: Workspace) -> None:
    """The template samples flat of `grid` at image z-planes k0:k1 of P y into
    value, 0 outside the template's cell-center hull, from y interpolated along
    x and y (_interp_xy, with P's _interp_weights); and the partials into
    partials unless it is None, 0 there too. P y is formed above the kernel's
    cell arrays, so its memory is free again when the corners are taken."""
    with ws.frame():
        cells = _cell_arrays((3, k1 - k0) + y_xy.shape[2:], value.dtype, ws)
        with ws.frame():
            _cells(grid, _interp_z(y_xy, weights, k0, k1, ws), *cells, ws)
        _corners(flat, grid, *cells, value, partials, ws)
        np.copyto(value, 0, where=cells[2])


def warp_image(template: Image3, y: DeformationField, workers: int = 1) -> Image3:
    """The template sampled at P y on its own grid, 0 outside its cell-center hull;
    P y is formed per chunk of z-planes, as in the NGF sweep, never image-sized."""
    grid = template.grid
    check_compatible(y.grid, grid)
    weights = _interp_weights(_transfers(grid, y.grid), y.field.dtype)
    flat = template.values.astype(y.field.dtype, copy=False).ravel()
    y_xy = _interp_xy(y.field, weights)
    out = np.empty(grid.shape, dtype=flat.dtype)

    def do_chunk(k0, k1):
        _sample_planes(flat, grid, y_xy, weights, k0, k1, out[k0:k1], None, workspace())

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
    inv_h = v.dtype.type(1 / h)
    lo, hi = max(k0, 1), min(k1, n - 1)
    if lo < hi:
        inner = out[lo - k0:hi - k0]
        np.subtract(v[lo + 1 - base:hi + 1 - base], v[lo - 1 - base:hi - 1 - base], out=inner)
        inner *= v.dtype.type(0.5 / h)
    if k0 == 0:
        np.subtract(v[1 - base], v[-base], out=out[0])
        out[0] *= inv_h
    if k1 == n:
        np.subtract(v[n - 1 - base], v[n - 2 - base], out=out[-1])
        out[-1] *= inv_h


def _face_rows(n: int) -> tuple:
    """The rows of the transpose of _diff_rows (n >= 2 rows) that are not
    interior, as (row, a, b, c, sign): row = sign * (w[a] + c * w[b]) / h."""
    if n == 2:
        return (0, 0, 1, 1.0, -1.0), (1, 0, 1, 1.0, 1.0)
    if n == 3:
        return (0, 0, 1, 0.5, -1.0), (1, 0, 2, -1.0, 1.0), (2, 2, 1, 0.5, 1.0)
    return ((0, 0, 1, 0.5, -1.0), (1, 0, 2, -0.5, 1.0),
            (n - 2, n - 1, n - 3, -0.5, -1.0), (n - 1, n - 1, n - 2, 0.5, 1.0))


def _diff_transpose_rows(w: np.ndarray, h: float, k0: int, k1: int, o: np.ndarray,
                         base: int = 0, n: int | None = None) -> None:
    """Rows k0:k1 of the exact transpose of _diff_rows along axis 0 of an
    n-row array w into o; w holds rows base:base + len(w), as in _diff_rows.
    Each row has one formula whatever the range and the window: the interior
    rows 2..n-3 (w[i-1] - w[i+1]) / 2h, the two rows at each face _face_rows."""
    n = w.shape[0] if n is None else n
    if n < 2:
        o[...] = 0
        return
    dtype = w.dtype.type
    lo, hi = max(k0, 2), min(k1, n - 2)
    if lo < hi:
        inner = o[lo - k0:hi - k0]
        np.subtract(w[lo - 1 - base:hi - 1 - base], w[lo + 1 - base:hi + 1 - base], out=inner)
        inner *= dtype(0.5 / h)
    for row, a, b, c, sign in _face_rows(n):
        if k0 <= row < k1:
            r = o[row - k0]
            np.multiply(w[b - base], dtype(c), out=r)
            r += w[a - base]
            r *= dtype(sign / h)


def _gradient_planes(values: np.ndarray, spacing, k0: int, k1: int, out: np.ndarray,
                     base: int = 0, n: int | None = None) -> np.ndarray:
    """Gradient of z-planes k0:k1 of an n-plane image into out (3, k1-k0, ny, nx),
    which it returns. values holds planes base:base + len(values) (by default
    the whole image) and must include one halo plane on each side in z."""
    planes = values[k0 - base:k1 - base]
    for a in (0, 1):  # in-plane axes: whole rows of the chunk, numpy axes 2 and 1
        ax = 2 - a
        _diff_rows(planes.swapaxes(0, ax), spacing[a], 0, planes.shape[ax],
                   out[a].swapaxes(0, ax))
    _diff_rows(values, spacing[2], k0, k1, out[2], base, n)
    return out


def _gradient_transpose_planes(w, spacing, axes, k0: int, k1: int, out: np.ndarray,
                               base: int = 0, n: int | None = None,
                               ws: Workspace | None = None) -> None:
    """Add the parts of G^T w along the geometric `axes` for z-planes k0:k1 into
    out (k1-k0, ny, nx), axis by axis in the order given, each formed in a
    buffer from ws if given. w[i] is component axes[i]: for x and y just the
    planes k0:k1, for z the planes base:base + len(w[i]) of n (by default all
    of them), with one halo plane on each side."""
    o = (Workspace() if ws is None else ws).array(out.shape, out.dtype)
    for comp, a in zip(w, axes):
        if a == 2:
            _diff_transpose_rows(comp, spacing[2], k0, k1, o, base, n)
        else:
            ax = 2 - a
            _diff_transpose_rows(comp.swapaxes(0, ax), spacing[a], 0, comp.shape[ax],
                                 o.swapaxes(0, ax))
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
