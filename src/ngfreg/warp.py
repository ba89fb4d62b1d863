"""Template sampling at deformed positions and image-grid finite differences.

One trilinear kernel serves every interpolation of grid samples: the warp
at P y and its derivative, which one helper takes per chunk of z-planes for
the NGF sweep and for warp_image alike, with P y of the chunk's planes
formed from the coarse field (transfer._P_planes), resampling and the
evaluation of deformation fields at landmarks. The kernel takes index
coordinates of the sampled grid, (p - origin) / spacing of world positions
p (_to_index). Its callers convert what is smallest: the sweep and
warp_image the coarse field of y, whose P is then P y in index coordinates
(P's weights sum to 1), the resampler the 1-D axis centres, _trilinear its
positions. warp_image walks its chunks on the caller; only the sweep runs
in parallel, in its LevelSweep's processes. The gradient stencil comes with
its exact transpose, so the distance gradient is assembled by the chain
rule without materializing any operator matrix; both run on whole arrays
or on windows of z-planes.
"""

from __future__ import annotations

import numpy as np

from .geometry import DeformationField, Grid3, Image3, VectorField3
from .parallel import Workspace, run_planes
from .transfer import _P_planes, build_gather_plan

__all__ = [
    "image_gradient",
    "image_gradient_apply_transpose",
    "warp_image",
]


def _to_index(pos: np.ndarray, grid: Grid3, out: np.ndarray) -> np.ndarray:
    """The index coordinates (pos - origin) / spacing on `grid` of world
    positions pos (3, ...), per axis in pos's dtype, into out, which it returns."""
    per_axis = (3,) + (1,) * (pos.ndim - 1)
    np.subtract(pos, np.array(grid.origin, pos.dtype).reshape(per_axis), out=out)
    return np.divide(out, np.array(grid.spacing, pos.dtype).reshape(per_axis), out=out)


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
    inside = ~_trilinear_into(flat, grid, _to_index(pos, grid, np.empty_like(pos)), value,
                              grads, Workspace())
    return value, inside, grads


def _trilinear_into(flat: np.ndarray, grid: Grid3, pos: np.ndarray, value: np.ndarray,
                    partials: np.ndarray | None, ws: Workspace) -> np.ndarray:
    """The kernel of _trilinear at index coordinates pos (3, *shape) of
    `grid`: writes value and, unless None, partials, 0 outside the hull, and
    returns the positions outside the hull as a bool array of ws. pos is
    overwritten (_cells)."""
    cells = _cell_arrays(pos.shape, pos.dtype, ws)
    with ws.frame():
        _cells(grid, pos, *cells, ws)
    _corners(flat, grid, *cells[:2], value, partials, ws)
    if partials is not None:
        np.copyto(partials, 0, where=cells[2])
    return cells[2]


def _cell_arrays(pos_shape: tuple, dtype, ws: Workspace) -> tuple:
    """Arrays of ws for _cells: the fractions (3, *shape), the lower corner's
    flat index and the outside flags (*shape)."""
    return (ws.array(pos_shape, dtype), ws.array(pos_shape[1:], np.intp),
            ws.array(pos_shape[1:], bool))


def _cells(grid: Grid3, t: np.ndarray, f: np.ndarray, base: np.ndarray,
           outside: np.ndarray, ws: Workspace) -> None:
    """The cells of index coordinates t (3, *shape) on `grid` (_to_index),
    into f, base and outside (_cell_arrays); t is overwritten.

    Per axis t is clipped into [0, n - 1], which is the clamp-to-edge
    position, and a position is outside the cell-center hull where that
    changed t. The lower corner is the clipped t floored, at most n - 2, and
    its fraction f is what remains, in [0, 1]. The lower corner's flat index
    is accumulated in base axis by axis from z, in integers: times the next
    axis's points, plus that axis's floor cast into an integer scratch. The
    floors are exact integers (the grid has at most 2^53 points), so the
    index is exact. No (3, N) float64 array is formed: the index as such a
    product and its reduce took 1 MiB of a 48^3 f64 chunk. np.matmul of f32
    floors would copy them to float64 outside the workspace (786,992 bytes
    per chunk of 32k positions), and so would the cast buffers of an add of
    floats into base (129 KiB per f64 add).
    """
    dtype = f.dtype
    per_axis = (3,) + (1,) * (t.ndim - 1)
    dims = grid.dims
    if grid.num_points > 2**53:
        raise ValueError(f"a grid of {grid.num_points} points has flat indices beyond 2^53")
    np.clip(t, 0, np.array([n - 1 for n in dims], dtype).reshape(per_axis), out=f)
    with ws.frame():
        moved = ws.array(t.shape, bool)
        np.not_equal(t, f, out=moved)
        np.logical_or.reduce(moved, axis=0, out=outside)
    np.minimum(f, np.array([max(n - 2, 0) for n in dims], dtype).reshape(per_axis), out=t)
    np.floor(t, out=t)
    np.subtract(f, t, out=f)
    np.copyto(base, t[2], casting="unsafe")
    lower = ws.array(base.shape, base.dtype)
    for a in (1, 0):
        base *= dims[a]
        np.copyto(lower, t[a], casting="unsafe")
        base += lower


def _corners(flat: np.ndarray, grid: Grid3, f: np.ndarray, base: np.ndarray,
             value: np.ndarray, partials: np.ndarray | None, ws: Workspace) -> None:
    """The samples flat (..., N) of `grid` interpolated in the cells of _cells
    into value (..., *shape) and, unless None, the partials into partials
    (3, ..., *shape), everywhere: outside the hull a caller zeroes them.

    The 8 corners are taken from views of flat shifted by each corner's
    offset, all at the lower corner's index, as the 4 cell edges along x, and
    combined by lerps lo + f (hi - lo) whose differences hi - lo are kept for
    the partials. The face of the cell at the lower z is taken straight into
    value, partials[1] (its y difference) and partials[0] (its x differences
    lerped along y), with partials[2] as the lerps' scratch, and the upper
    face's three arrays are lerped into them along z in place. So the
    corners take 4 arrays of value's size from ws, 3 without the partials,
    where holding both faces beside the outputs took 8 and 5.
    """
    dtype = value.dtype
    keep = partials is not None  # the partials need the differences
    dims = grid.dims
    sx, sy, sz = (s if n > 1 else 0  # a degenerate axis has one corner
                  for s, n in zip((1, dims[0], dims[0] * dims[1]), dims))
    fx, fy, fz = f

    def new():
        return ws.array(value.shape, dtype)

    def take(off, out):
        return np.take(flat[..., off:], base, axis=-1, out=out, mode="clip")

    def lerp(lo, hi, frac, tmp):  # lo + frac (hi - lo) into lo; hi keeps hi - lo
        hi -= lo                     # unless tmp is hi
        np.multiply(hi, frac, out=tmp)
        lo += tmp

    def face(z, e0, e1, d0):
        """The face at z: its lerp along x, then y into e0; with the partials
        the y difference into e1 and the x differences lerped along y into d0."""
        lerp(take(z, e0), take(z + sx, d0), fx, tmp if keep else d0)
        take(z + sy, e1)
        with ws.frame():
            d1 = take(z + sy + sx, new() if keep else tmp)
            lerp(e1, d1, fx, tmp if keep else d1)
            lerp(e0, e1, fy, tmp if keep else e1)
            if keep:
                lerp(d0, d1, fy, d1)

    if not keep:
        tmp = new()
        with ws.frame():  # the y difference is scratch
            face(0, value, new(), tmp)
        e2 = new()
        with ws.frame():
            face(sz, e2, new(), tmp)
        e2 -= value  # then along z
        e2 *= fz
        value += e2
        return
    tmp = partials[2]  # scratch until the lerp along z fills it
    face(0, value, partials[1], partials[0])
    e2, e3, d2 = new(), new(), new()
    face(sz, e2, e3, d2)
    for lo, hi in ((partials[1], e3), (partials[0], d2)):  # then along z
        hi -= lo
        hi *= fz
        lo += hi
    np.subtract(e2, value, out=partials[2])
    value += np.multiply(partials[2], fz, out=e3)
    partials *= (1 / np.array(grid.spacing, dtype)).reshape((3,) + (1,) * (partials.ndim - 1))


def _sample_planes(flat: np.ndarray, grid: Grid3, field: np.ndarray, weights,
                   k0: int, k1: int, out: np.ndarray, ws: Workspace) -> None:
    """The template samples flat of `grid` at image z-planes k0:k1 of P y into
    out (1 or 4, k1-k0, ny, nx), from the field of y in index coordinates of
    `grid` (_to_index) and its plan's weights (_P_planes): the value into
    out[0] and, with 4 channels, the partials into out[1:], all 0 outside the
    template's cell-center hull. P y is formed above the kernel's cell
    arrays, so its memory is free again when the corners are taken."""
    shape = (3,) + out.shape[1:]
    with ws.frame():
        cells = _cell_arrays(shape, out.dtype, ws)
        with ws.frame():
            pos = _P_planes(field, weights, k0, k1, ws.array(shape, out.dtype), ws)
            _cells(grid, pos, *cells, ws)
        _corners(flat, grid, *cells[:2], out[0], out[1:] if len(out) > 1 else None, ws)
        np.copyto(out, 0, where=cells[2])


def warp_image(template: Image3, y: DeformationField) -> Image3:
    """The template sampled at P y on its own grid, 0 outside its cell-center hull;
    P y is formed per chunk of z-planes from y's coarse planes in the
    template's index coordinates, as in the NGF sweep, never image-sized. It
    runs on the caller."""
    grid = template.grid
    weights = build_gather_plan(y.grid, grid).weights(y.field.dtype)
    flat = template.values.astype(y.field.dtype, copy=False).ravel()
    field = _to_index(y.field, grid, np.empty_like(y.field))
    out = np.empty((1,) + grid.shape, dtype=flat.dtype)

    def do_chunk(k0, k1, ws):
        _sample_planes(flat, grid, field, weights, k0, k1, out[:, k0:k1], ws)

    run_planes(do_chunk, grid.dims[2], grid.dims[0] * grid.dims[1])
    return Image3(grid, out[0])


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


def image_gradient(img: Image3) -> VectorField3:
    """Finite-difference spatial gradient on the image grid."""
    g = img.grid
    out = np.empty((3,) + g.shape, dtype=img.values.dtype)
    _gradient_planes(img.values, g.spacing, 0, g.shape[0], out)
    return VectorField3(g, out)


def image_gradient_apply_transpose(w: VectorField3, grid: Grid3) -> np.ndarray:
    """Apply G^T where G is the exact linear operator of image_gradient."""
    out = np.zeros(grid.shape, dtype=w.field.dtype)
    _gradient_transpose_planes(w.field, grid.spacing, (0, 1, 2), 0, grid.shape[0], out)
    return out
