"""Grid conversion between the deformation grid and the image grid.

The conversion operator P is separable trilinear interpolation from
deformation-grid cell centers to image-grid cell centers, with clamp-to-edge
extrapolation outside the coarse cell-center hull (weights always sum to 1).
It runs in two steps, along x and y on the coarse field, then along z per
chunk of image z-planes, so the NGF sweep and the warp form P y chunk by chunk.

Its exact transpose P^T has one plan per grid pair (GatherPlan) and one xy
reduction: the input is contracted along x, then y, per chunk of whole image
z-planes, into a small (3, nz_image, ny_def, nx_def) buffer. Three schedules
then accumulate that buffer along z; they are the strategies the matrix-free
scheme compares:

* gather      -- each output z-plane sums its weighted image planes in a fixed
                 ascending order; conflict-free and bit-identical for any
                 worker count.
* scatter     -- parallel over image planes, each added into the two output
                 planes it feeds under a lock (the atomic-add style).
* redblack    -- image planes grouped by the lower output plane they feed;
                 groups of alternating parity run without write conflicts.

The NGF sweep reduces its own chunks into that buffer and then runs the
variant's schedule once.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .geometry import Grid3, GridError, VectorField3
from .parallel import Workspace, run_planes, run_slabs, workspace

__all__ = [
    "GatherPlan",
    "apply_P",
    "apply_Pt",
    "build_gather_plan",
    "dense_P_oracle",
]


def check_compatible(def_grid: Grid3, image_grid: Grid3) -> None:
    if not def_grid.same_extent(image_grid):
        raise GridError(
            f"deformation grid extent {def_grid.extent} (min {def_grid.domain_min}) does not "
            f"match image grid extent {image_grid.extent} (min {image_grid.domain_min})"
        )
    if any(mi < md for mi, md in zip(image_grid.dims, def_grid.dims)):
        raise GridError(
            f"image grid dims {image_grid.dims} must be >= deformation grid dims {def_grid.dims}"
        )


def _axis_transfer(image_grid: Grid3, def_grid: Grid3, axis: int):
    """Per image index along `axis`: lower deformation index i0 and weight w1 of i0+1."""
    xs = image_grid.axis_centers(axis)
    nd = def_grid.dims[axis]
    if nd == 1:
        return np.zeros(len(xs), dtype=np.intp), np.zeros(len(xs))
    t = (xs - def_grid.origin[axis]) / def_grid.spacing[axis]
    i0 = np.clip(np.floor(t).astype(np.intp), 0, nd - 2)
    w1 = np.clip(t - i0, 0.0, 1.0)
    return i0, w1


@dataclass(frozen=True)
class AxisPlan:
    """Transposed 1D interpolation along one axis: contiguous image ranges per point."""

    start: np.ndarray    # (nd,) first image index feeding each deformation point
    counts: np.ndarray   # (nd,) range lengths
    weights: np.ndarray  # (nd, max(counts)) zero-padded 1D weights
    index: np.ndarray    # (max(counts), nd) image index of each window column, clipped
    _cast: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def weights_as(self, dtype) -> np.ndarray:
        """The weights in dtype, cast once per dtype."""
        w = self._cast.get(dtype)
        if w is None:
            w = self._cast[dtype] = self.weights.astype(dtype)
        return w


@dataclass(frozen=True)
class GatherPlan:
    def_grid: Grid3
    image_grid: Grid3
    axes: tuple[AxisPlan, AxisPlan, AxisPlan]  # x, y, z
    transfers: tuple  # per axis x, y, z: (i0, w1) of _axis_transfer, the weights of P
    _cast: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def interp_weights(self, dtype) -> tuple:
        """_interp_weights of the plan's transfers, made once per dtype."""
        w = self._cast.get(dtype)
        if w is None:
            w = self._cast[dtype] = _interp_weights(self.transfers, dtype)
        return w


def _build_axis_plan(i0: np.ndarray, w1: np.ndarray, nd: int) -> AxisPlan:
    ni = len(i0)
    start = np.empty(nd, dtype=np.intp)
    counts = np.empty(nd, dtype=np.intp)
    rows = []
    for d in range(nd):
        lo = 0 if d == 0 else int(np.searchsorted(i0, d - 1, side="left"))
        hi = ni if d == nd - 1 else int(np.searchsorted(i0, d, side="right"))
        seg = i0[lo:hi]
        w = np.where(seg == d, 1.0 - w1[lo:hi], np.where(seg == d - 1, w1[lo:hi], 0.0))
        start[d] = lo
        counts[d] = hi - lo
        rows.append(w)
    width = max(1, int(counts.max()))
    weights = np.zeros((nd, width))
    for d, w in enumerate(rows):
        weights[d, : len(w)] = w
    index = np.minimum(start + np.arange(width)[:, None], ni - 1)
    return AxisPlan(start=start, counts=counts, weights=weights, index=index)


def _transfers(image_grid: Grid3, def_grid: Grid3) -> tuple:
    return tuple(_axis_transfer(image_grid, def_grid, a) for a in range(3))


def _interp_weights(transfers, dtype) -> tuple:
    """Per axis the weights of P in dtype: (i0, i0 + 1, 1 - w1, w1), the lower
    and upper coarse index of each fine index and their weights. On an axis of
    one coarse point i0 + 1 is out of range and w1 is 0; np.take's mode="clip"
    reads i0 there."""
    return tuple((i0, i0 + 1, 1 - w1.astype(dtype), w1.astype(dtype)) for i0, w1 in transfers)


def build_gather_plan(def_grid: Grid3, image_grid: Grid3) -> GatherPlan:
    check_compatible(def_grid, image_grid)
    transfers = _transfers(image_grid, def_grid)
    return GatherPlan(
        def_grid=def_grid,
        image_grid=image_grid,
        axes=tuple(_build_axis_plan(*t, def_grid.dims[a]) for a, t in enumerate(transfers)),
        transfers=transfers,
    )


# numpy array axis for geometric axis: x -> 2, y -> 1, z -> 0
_ARRAY_AXIS = (2, 1, 0)


def _interp_block(arr: np.ndarray, weights, axis: int, out: np.ndarray,
                  upper: np.ndarray) -> np.ndarray:
    """Interpolate along one array axis with weights (i0, i1, w0, w1) of
    _interp_weights into out, which has len(i0) entries on that axis:
    a0 * w0 + a1 * w1, with upper, shaped like out, for the second term."""
    i0, i1, w0, w1 = weights
    shape = [1] * arr.ndim
    shape[axis] = len(i0)
    np.take(arr, i0, axis=axis, out=out, mode="clip")
    out *= w0.reshape(shape)
    np.take(arr, i1, axis=axis, out=upper, mode="clip")
    upper *= w1.reshape(shape)
    out += upper
    return out


def _interp_xy(field: np.ndarray, weights, ws: Workspace | None = None) -> np.ndarray:
    """A field (3, nz_d, ny_d, nx_d) interpolated along x, then y: (3, nz_d, ny, nx),
    an array of ws if given; weights are the field's _interp_weights. The y
    step runs a component at a time, so its scratch is one component's."""
    ws = Workspace() if ws is None else ws
    c, nzd, nyd, _ = field.shape
    ny, nx = len(weights[1][0]), len(weights[0][0])
    out = ws.array((c, nzd, ny, nx), field.dtype)
    with ws.frame():
        x = ws.array((c, nzd, nyd, nx), field.dtype)
        with ws.frame():
            _interp_block(field, weights[0], 3, x, ws.array(x.shape, field.dtype))
        upper = ws.array(out.shape[1:], field.dtype)
        for a in range(c):
            _interp_block(x[a], weights[1], 1, out[a], upper)
    return out


def _interp_z(xy: np.ndarray, weights, k0: int, k1: int, ws: Workspace) -> np.ndarray:
    """Image z-planes k0:k1 of P y from y interpolated along x and y (_interp_xy),
    as an array of ws."""
    i0, i1, w0, w1 = weights[2]
    shape = xy.shape[:1] + (k1 - k0,) + xy.shape[2:]
    out = ws.array(shape, xy.dtype)
    with ws.frame():
        return _interp_block(xy, (i0[k0:k1], i1[k0:k1], w0[k0:k1], w1[k0:k1]), 1, out,
                             ws.array(shape, xy.dtype))


def apply_P(y: VectorField3, image_grid: Grid3, workers: int = 1) -> VectorField3:
    """Convert a field, a deformation say, from its (coarse) grid to the image grid."""
    check_compatible(y.grid, image_grid)
    weights = _interp_weights(_transfers(image_grid, y.grid), y.field.dtype)
    xy = _interp_xy(y.field, weights)
    out = np.empty((3,) + image_grid.shape, dtype=y.field.dtype)

    def do_chunk(k0, k1):
        with workspace().frame() as ws:
            out[:, k0:k1] = _interp_z(xy, weights, k0, k1, ws)

    nz, ny, nx = image_grid.shape
    run_planes(do_chunk, nz, ny * nx, workers)
    return VectorField3(image_grid, out)


def _gather_block(arr: np.ndarray, ap: AxisPlan, axis: int, rows: slice | None = None,
                  out: np.ndarray | None = None, ws: Workspace | None = None) -> np.ndarray:
    """Apply the transposed 1D weights along one array axis, into out if given
    (C-contiguous), with a buffer for the terms from ws if given. Each output
    index sums its window columns in ascending order, starting from the first
    column's term; zero-weight padding columns read the clamped last index.
    Each column is taken straight from arr, with no copy of the window."""
    rows = slice(None) if rows is None else rows
    index = ap.index[:, rows]
    W = ap.weights_as(arr.dtype)[rows]
    shape = [1] * arr.ndim
    shape[axis] = index.shape[1]
    if out is None:
        out = np.empty(arr.shape[:axis] + (index.shape[1],) + arr.shape[axis + 1:], arr.dtype)
    np.take(arr, index[0], axis=axis, out=out, mode="clip")
    out *= W[:, 0].reshape(shape)
    term = (Workspace() if ws is None else ws).array(out.shape, out.dtype)
    for j in range(1, index.shape[0]):  # ascending order keeps the sums deterministic
        np.take(arr, index[j], axis=axis, out=term, mode="clip")
        term *= W[:, j].reshape(shape)
        out += term
    return out


def _z_gather(xy: np.ndarray, out: np.ndarray, plan: GatherPlan, workers: int) -> None:
    """Each output z-slab gathers its weighted image planes."""
    zp = plan.axes[2]

    def do_slab(lo, hi):
        out[:, lo:hi] = _gather_block(xy, zp, axis=1, rows=slice(lo, hi))

    run_slabs(do_slab, out.shape[1], xy[0, 0].size, workers)


def _add_plane(out: np.ndarray, xy: np.ndarray, k: int, plan: GatherPlan) -> None:
    """Add image plane k of xy into the two output z-planes it interpolates
    from, weighted (1 - w1, w1)."""
    i0, w1z = plan.transfers[2]
    d0 = i0[k]
    w1 = out.dtype.type(w1z[k])
    out[:, d0] += (out.dtype.type(1) - w1) * xy[:, k]
    if w1 != 0:
        out[:, d0 + 1] += w1 * xy[:, k]


def _z_scatter(xy: np.ndarray, out: np.ndarray, plan: GatherPlan, workers: int) -> None:
    """Slabs of image planes add into shared output planes under one lock."""
    lock = threading.Lock()

    def do_slab(lo, hi):
        for k in range(lo, hi):
            with lock:
                _add_plane(out, xy, k, plan)

    run_slabs(do_slab, xy.shape[1], xy[0, 0].size, workers)


def _z_redblack(xy: np.ndarray, out: np.ndarray, plan: GatherPlan, workers: int) -> None:
    """Image planes grouped by the lower output plane d0 they feed; a group
    writes planes d0 and d0 + 1 only, so groups of one parity of d0 run
    concurrently, even ones first."""
    i0 = plan.transfers[2][0]
    for parity in (0, 1):
        color = [d for d in np.unique(i0) if d % 2 == parity]

        def do_slab(lo, hi):
            for d0 in color[lo:hi]:
                for k in np.flatnonzero(i0 == d0):
                    _add_plane(out, xy, k, plan)

        run_slabs(do_slab, len(color), xy[0, 0].size, workers)


_Z_SCHEDULES = {"gather": _z_gather, "scatter": _z_scatter, "redblack": _z_redblack}
PT_VARIANTS = tuple(_Z_SCHEDULES)


def _z_schedule(variant: str):
    """The z schedule of a P^T variant; raises ValueError for an unknown one."""
    z_schedule = _Z_SCHEDULES.get(variant)
    if z_schedule is None:
        raise ValueError(f"unknown P^T variant {variant!r}, expected one of {PT_VARIANTS}")
    return z_schedule


def _reduce_xy(r: np.ndarray, plan: GatherPlan, out: np.ndarray, ws: Workspace) -> None:
    """The xy reduction of P^T on image z-planes r (3, m, ny, nx) into out
    (3, m, ny_d, nx_d). Each plane is contracted on its own, so any chunking
    gives the same bytes. Each contraction runs on a copy in ws with its axis
    first, where a window column is whole contiguous rows rather than single
    elements; the sums are the same, so are the bytes."""
    xp, yp, _ = plan.axes
    _, m, ny, nx = r.shape
    nyd, nxd = len(yp.start), len(xp.start)
    with ws.frame():
        rt = ws.array((nx, 3, m, ny), r.dtype)
        np.copyto(rt, r.transpose(3, 0, 1, 2))
        rx = _gather_block(rt, xp, 0, out=ws.array((nxd, 3, m, ny), r.dtype), ws=ws)
        rxt = ws.array((ny, 3, m, nxd), r.dtype)
        np.copyto(rxt, rx.transpose(3, 1, 2, 0))
        rxy = _gather_block(rxt, yp, 0, out=ws.array((nyd, 3, m, nxd), r.dtype), ws=ws)
        np.copyto(out, rxy.transpose(1, 2, 0, 3))


def _reduce_z(xy: np.ndarray, plan: GatherPlan, z_schedule, workers: int) -> VectorField3:
    """P^T from the xy-reduced buffer (3, nz_image, ny_d, nx_d): the z schedule.

    Each schedule tells run_slabs that an index is one xy plane of work. That
    is a lower bound, not the actual work: a gather output plane reads `width`
    planes, and a redblack group adds about grid-ratio planes. So at the
    default grid ratio gather and redblack run inline up to 128^3. On a 2-core
    machine, f64 with 2 workers, inline against two slabs: redblack 0.62 vs
    1.1 ms at 64^3 and 2.2 vs 3.7 ms at 128^3; gather 0.18 vs 0.5 ms at 64^3,
    but 2.1 vs 1.0 ms at 128^3, where counting the window would win 1 ms of a
    38 ms apply_Pt and lose 0.3 ms at 64^3."""
    out = np.zeros((3,) + plan.def_grid.shape, dtype=xy.dtype)
    z_schedule(xy, out, plan, workers)
    return VectorField3(plan.def_grid, out)


def apply_Pt(r: VectorField3, plan: GatherPlan, variant: str = "gather", workers: int = 1) -> VectorField3:
    """P^T r: the plan's xy reduction, then the variant's z schedule."""
    z_schedule = _z_schedule(variant)
    if r.grid != plan.image_grid:
        raise GridError("input field grid does not match the plan's image grid")
    nz, ny, nx = plan.image_grid.shape
    xy = np.empty((3, nz) + plan.def_grid.shape[1:], dtype=r.field.dtype)

    def reduce_xy(k0, k1):
        with workspace().frame() as ws:
            _reduce_xy(r.field[:, k0:k1], plan, xy[:, k0:k1], ws)

    run_planes(reduce_xy, nz, ny * nx, workers)
    return _reduce_z(xy, plan, z_schedule, workers)


def dense_P_oracle(def_grid: Grid3, image_grid: Grid3) -> np.ndarray:
    """Explicit (m_image, m_def) matrix for one scalar component of P. Test-only.

    Built directly from the 1D weight rule via Kronecker products, so it is
    an independent ground truth for the matrix-free apply/transpose paths.
    """
    check_compatible(def_grid, image_grid)
    if image_grid.num_points > 512 or def_grid.num_points > 512:
        raise ValueError("dense_P_oracle is limited to grids of at most 8^3 points")
    mats = []
    for a in range(3):
        i0, w1 = _axis_transfer(image_grid, def_grid, a)
        ni, nd = image_grid.dims[a], def_grid.dims[a]
        A = np.zeros((ni, nd))
        rows = np.arange(ni)
        np.add.at(A, (rows, i0), 1.0 - w1)
        np.add.at(A, (rows, np.minimum(i0 + 1, nd - 1)), w1)
        mats.append(A)
    return np.kron(mats[2], np.kron(mats[1], mats[0]))
