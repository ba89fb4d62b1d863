"""Grid conversion between the deformation grid and the image grid.

The conversion operator P is separable trilinear interpolation from
deformation-grid cell centers to image-grid cell centers, with clamp-to-edge
extrapolation outside the coarse cell-center hull (weights always sum to 1).
Along each axis it is a 1-D factor F (n_image, n_def) with two nonzeros per
row, so F is a band. One GatherPlan per grid pair holds, per dtype, F of each
axis cut into small dense blocks (AxisBlocks): at grid ratio 4 a block of 8
coarse points meets at most 36 image points, and the image points whose lower
coarse point lies in such a block meet at most 9 coarse points. P is formed
per chunk of image z-planes (_P_planes): each image plane's two coarse
z-planes are lerped from the z band on the deformation grid, then the
planes are multiplied by the blocks of x and y, which write the image plane
once, so apply_P, the NGF sweep and the warp form P y chunk by chunk from
the coarse field. No 3-D matrix is formed, and nothing image-sized either.

The blocks are applied with np.matmul, one BLAS product per plane (or row)
and block. Each product has one shape per plane and block, whatever the
chunk, so its bytes cannot depend on the chunk size or the sweep's slabs. Each
is also small: M*N*K <= 2^18 on grids up to 512^3 at ratio 4, where OpenBLAS
runs a product on one thread, so the BLAS thread count cannot change the bits
either. (BLAS dot products are another matter; see lbfgs._dot.)

Its exact transpose P^T has one xy reduction: the input is contracted along
x, then y, per chunk of whole image z-planes, into a small
(3, nz_image, ny_def, nx_def) buffer. Three schedules then accumulate that
buffer along z, in the orders of the strategies the matrix-free scheme
compares:

* gather      -- each block of output z-planes is one product of the z
                 blocks with its image planes.
* scatter     -- each image plane, in order, added into the two output
                 planes it feeds (the atomic-add style).
* redblack    -- image planes grouped by the lower output plane they feed;
                 the groups of even parity first, then the odd ones, so
                 groups of one parity never write the same plane.

apply_P, apply_Pt and every schedule, in its order above, run on the
caller, so each is bit-identical for any chunk size. The NGF sweep reduces
its own chunks into that buffer, in its slabs, and then runs the variant's
schedule once, so its bytes do not depend on the worker count either.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Grid3, GridError, VectorField3
from .parallel import Workspace, run_planes

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
class AxisBlocks:
    """The 1-D factor F of P along one axis, in one dtype, cut into dense blocks.

    reduce holds (d, s, B) for P^T: coarse points d take image points s.
    interp holds (i, c, A) for P: image points i take coarse points c; it is
    empty along z, where P reads the z band. The slices d and i each
    partition their axis. Along x, numpy's last axis, a plane is multiplied
    from the right: B = F[s, d] and A = F[i, c]^T. Along y and z it is
    multiplied from the left: B = F[s, d]^T and A = F[i, c].
    """

    size: int       # image points on the axis
    reduce: tuple
    interp: tuple


@dataclass(frozen=True)
class GatherPlan:
    def_grid: Grid3
    image_grid: Grid3
    transfers: tuple  # per axis x, y, z: (i0, w1) of _axis_transfer, the weights of P
    _cast: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def weights(self, dtype) -> tuple:
        """P's weights in dtype, made once per dtype: the AxisBlocks of x, y
        and z, and the z band (i0, i0 + 1, 1 - w1, w1), the lower and upper
        coarse index of each image z-plane and their weights. On a z axis of
        one coarse point i0 + 1 is out of range and w1 is 0; np.take's
        mode="clip" reads i0 there."""
        w = self._cast.get(dtype)
        if w is None:
            nd = self.def_grid.dims
            blocks = tuple(_axis_blocks(*self.transfers[a], nd[a], dtype, a) for a in range(3))
            i0, w1 = self.transfers[2]
            w = self._cast[dtype] = blocks + ((i0, i0 + 1, 1 - w1.astype(dtype), w1.astype(dtype)),)
        return w


def _axis_factor(i0: np.ndarray, w1: np.ndarray, nd: int) -> np.ndarray:
    """The 1-D factor of P along one axis, (n_image, n_def): row i holds 1 - w1
    in column i0 and w1 in column i0 + 1, both in column 0 on an axis of one
    coarse point."""
    F = np.zeros((len(i0), nd))
    rows = np.arange(len(i0))
    F[rows, i0] += 1.0 - w1  # each statement meets each entry once
    F[rows, np.minimum(i0 + 1, nd - 1)] += w1
    return F


# Coarse points per block. An image point feeds its coarse points i0 and
# i0 + 1, so at grid ratio 4 a reduce block reads at most 36 image points and
# an interp block at most 9 coarse points: on grids up to 512^3 every
# product has M*N*K <= 2^18 (tests/test_transfer.py checks it).
_BLOCK = 8


def _axis_blocks(i0: np.ndarray, w1: np.ndarray, nd: int, dtype, axis: int) -> AxisBlocks:
    """The AxisBlocks of the factor of (i0, w1) in dtype along `axis` (0 is x,
    numpy's last axis; 2 is z)."""
    F = _axis_factor(i0, w1, nd).astype(dtype)
    reduce, interp = [], []
    for d0 in range(0, nd, _BLOCK):
        d1 = min(d0 + _BLOCK, nd)
        # i0 is ascending: image points d0 - 1 <= i0 < d1 feed coarse points d0:d1,
        # and those with d0 <= i0 < d1 read coarse points d0:d1 + 1 only
        lo, mid, hi = (int(np.searchsorted(i0, v, side)) for v, side in
                       ((d0 - 1, "left"), (d0, "left"), (d1 - 1, "right")))
        d, s, i, c = slice(d0, d1), slice(lo, hi), slice(mid, hi), slice(d0, min(d1 + 1, nd))
        B, A = F[s, d], F[i, c]
        reduce.append((d, s, np.ascontiguousarray(B if axis == 0 else B.T)))
        if axis != 2:
            interp.append((i, c, np.ascontiguousarray(A.T if axis == 0 else A)))
    return AxisBlocks(len(i0), tuple(reduce), tuple(interp))


def build_gather_plan(def_grid: Grid3, image_grid: Grid3) -> GatherPlan:
    check_compatible(def_grid, image_grid)
    transfers = tuple(_axis_transfer(image_grid, def_grid, a) for a in range(3))
    return GatherPlan(def_grid=def_grid, image_grid=image_grid, transfers=transfers)


def _P_planes(field: np.ndarray, weights, k0: int, k1: int, out: np.ndarray,
              ws: Workspace) -> np.ndarray:
    """Image z-planes k0:k1 of P y into out (3, k1-k0, ny, nx), which it
    returns, from the field (3, nz_d, ny_d, nx_d) of y; weights are its plan's
    weights. Each image plane's two coarse planes are lerped along z first,
    i0 * (1 - w1) + i1 * w1, on the deformation grid; then the planes are
    interpolated along x and y, each plane multiplied by each block on its
    own, so the bytes do not depend on k0:k1, and the y blocks write out."""
    bx, by = weights[:2]
    i0, i1, w0, w1 = (w[k0:k1] for w in weights[3])
    with ws.frame():
        z = ws.array(out.shape[:2] + field.shape[2:], field.dtype)
        with ws.frame():
            np.take(field, i0, axis=1, out=z, mode="clip")
            z *= w0[:, None, None]
            upper = np.take(field, i1, axis=1, out=ws.array(z.shape, z.dtype), mode="clip")
            upper *= w1[:, None, None]
            z += upper
        x = ws.array(z.shape[:3] + out.shape[3:], field.dtype)
        for i, k, A in bx.interp:
            np.matmul(z[..., k], A, out=x[..., i])
        for i, k, A in by.interp:
            np.matmul(A, x[..., k, :], out=out[..., i, :])
    return out


def apply_P(y: VectorField3, image_grid: Grid3, workers: int = 1) -> VectorField3:
    """Convert a field, a deformation say, from its (coarse) grid to the image
    grid, on the caller. `workers` does nothing: it is kept only for
    perfbench/, which still passes it; ROADMAP item 2 deletes it."""
    weights = build_gather_plan(y.grid, image_grid).weights(y.field.dtype)
    out = np.empty((3,) + image_grid.shape, dtype=y.field.dtype)
    nz, ny, nx = image_grid.shape

    def do_chunk(k0, k1, ws):
        _P_planes(y.field, weights, k0, k1, out[:, k0:k1], ws)

    run_planes(do_chunk, nz, ny * nx)
    return VectorField3(image_grid, out)


def _z_gather(xy: np.ndarray, out: np.ndarray, plan: GatherPlan) -> None:
    """Each block of output z-planes d takes its image planes s in one product,
    (len d, len s) @ (len s, nx_d) per component and coarse y row: the z
    blocks of the plan applied to xy's (3, ny_d, nz, nx_d) view."""
    X, O = xy.swapaxes(1, 2), out.swapaxes(1, 2)
    for d, s, B in plan.weights(xy.dtype)[2].reduce:
        np.matmul(B, X[..., s, :], out=O[..., d, :])


def _add_plane(out: np.ndarray, xy: np.ndarray, k: int, band) -> None:
    """Add image plane k of xy into the two output z-planes it interpolates
    from, weighted (1 - w1, w1) of the plan's z band in xy's dtype."""
    i0, _, w0, w1 = band
    d0 = i0[k]
    out[:, d0] += w0[k] * xy[:, k]
    if w1[k] != 0:
        out[:, d0 + 1] += w1[k] * xy[:, k]


def _z_scatter(xy: np.ndarray, out: np.ndarray, plan: GatherPlan) -> None:
    """Each image plane, in order, adds into the output planes it feeds."""
    band = plan.weights(xy.dtype)[3]
    for k in range(xy.shape[1]):
        _add_plane(out, xy, k, band)


def _z_redblack(xy: np.ndarray, out: np.ndarray, plan: GatherPlan) -> None:
    """Image planes grouped by the lower output plane d0 they feed; a group
    writes planes d0 and d0 + 1 only, so the groups of one parity of d0 never
    meet. The groups of even d0 run first, then the odd ones, each group's
    planes in order (i0 ascends with the image plane)."""
    band = plan.weights(xy.dtype)[3]
    for k in np.argsort(band[0] % 2, kind="stable"):
        _add_plane(out, xy, k, band)


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
    (3, m, ny_d, nx_d): along x into a buffer of ws, then along y, each plane
    multiplied by each block on its own, so any chunking gives the same bytes."""
    bx, by = plan.weights(r.dtype)[:2]
    with ws.frame():
        rx = ws.array(r.shape[:-1] + out.shape[-1:], r.dtype)
        for d, s, B in bx.reduce:
            np.matmul(r[..., s], B, out=rx[..., d])
        for d, s, B in by.reduce:
            np.matmul(B, rx[..., s, :], out=out[..., d, :])


def _reduce_z(xy: np.ndarray, plan: GatherPlan, z_schedule) -> VectorField3:
    """P^T from the xy-reduced buffer (3, nz_image, ny_d, nx_d): the z
    schedule, on the caller."""
    out = np.zeros((3,) + plan.def_grid.shape, dtype=xy.dtype)
    z_schedule(xy, out, plan)
    return VectorField3(plan.def_grid, out)


def apply_Pt(r: VectorField3, plan: GatherPlan, variant: str, workers: int = 1) -> VectorField3:
    """P^T r: the plan's xy reduction, then the variant's z schedule, on the
    caller. `workers` does nothing: it is kept only for perfbench/, which
    still passes it; ROADMAP item 2 deletes it."""
    z_schedule = _z_schedule(variant)
    if r.grid != plan.image_grid:
        raise GridError("input field grid does not match the plan's image grid")
    nz, ny, nx = plan.image_grid.shape
    xy = np.empty((3, nz) + plan.def_grid.shape[1:], dtype=r.field.dtype)

    def reduce_xy(k0, k1, ws):
        _reduce_xy(r.field[:, k0:k1], plan, xy[:, k0:k1], ws)

    run_planes(reduce_xy, nz, ny * nx)
    return _reduce_z(xy, plan, z_schedule)


def dense_P_oracle(def_grid: Grid3, image_grid: Grid3) -> np.ndarray:
    """Explicit (m_image, m_def) matrix for one scalar component of P. Test-only.

    The Kronecker product of the three 1-D factors (_axis_factor), so it is a
    ground truth for how the blocks are cut and applied and for the z paths.
    """
    check_compatible(def_grid, image_grid)
    if image_grid.num_points > 512 or def_grid.num_points > 512:
        raise ValueError("dense_P_oracle is limited to grids of at most 8^3 points")
    mats = [_axis_factor(*_axis_transfer(image_grid, def_grid, a), def_grid.dims[a])
            for a in range(3)]
    return np.kron(mats[2], np.kron(mats[1], mats[0]))
