"""Normalized gradient fields distance and its matrix-free gradient.

The distance compares image-gradient directions voxel by voxel,

    D = (hbar/2) * sum_i ( 1 - r_i^2 ),
    r_i = (<gT_i, gR_i> + tau*rho) / (||gT_i||_tau * ||gR_i||_rho),

with the smoothed norm ||v||_eps = sqrt(<v,v> + eps^2). The value and the
gradient with respect to the deformation-grid variables come from one sweep
over chunks of whole image z-planes, which forms no image-sized array and
keeps nothing between evaluations but R, T and the level's small buffers:
per chunk it interpolates the deformation onto the chunk's planes from the
few coarse planes that these read, samples
the template there with the interpolant's partial derivatives, computes both
image gradients and the pointwise terms once, and applies the chain of small
local operators: the gradient-stencil transpose, a multiply by the partials,
and the xy part of the grid-transfer transpose. Along x and y the grid
transfer multiplies each plane by small blocks of its 1-D factor
(transfer.py), whose fixed, one-thread shapes keep the bits independent of
the BLAS thread count; no other matrix is formed. The stencils couple a
plane to its neighbours, so a chunk carries the few planes of its
predecessor that it still needs, and only a slab's first and last chunks
recompute halo planes of the neighbouring slabs. The warped template
and its partials share one window of planes, so each chunk samples the
template once. The windows and every temporary of a chunk are arrays of the
thread's Workspace, so once a level has been evaluated a chunk allocates
nothing. A LevelSweep binds the sweep to one level's images, plan, dtype and
buffers. Its forked children run each slab after the first, because threads
running the sweep's many small numpy calls mostly wait for the interpreter
lock; with one slab, or where it cannot fork, the caller sweeps the whole grid.
While the children sweep, the caller runs the work it was given beside the
sweep (the objective's curvature term) after its own slab, so that neither
waits with work left.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass

import numpy as np

from .geometry import DeformationField, Grid3, GridError, Image3, VectorField3, check_kind
from .parallel import (ProcessGroup, Workspace, can_fork, plane_step, shared_arrays,
                       slab_partition, workspace)
from .transfer import GatherPlan, _reduce_xy, _reduce_z, _z_schedule
from .warp import _gradient_planes, _gradient_transpose_planes, _sample_planes, _to_index

__all__ = ["LevelSweep", "NgfParams", "distance_and_gradient"]


@dataclass(frozen=True)
class NgfParams:
    """Noise-filtering parameters for the template (tau) and reference (rho)."""

    tau: float = 10.0
    rho: float = 10.0

    def __post_init__(self):
        check_kind("tau", self.tau)
        check_kind("rho", self.rho)
        if not (self.tau > 0 and self.rho > 0):
            raise ValueError(f"tau and rho must be > 0, got tau={self.tau}, rho={self.rho}")


def precompute_reference_terms(R: Image3, params: NgfParams, workers: int = 1) -> Image3:
    """Returns R, which the sweep takes as it is. Kept only for perfbench/, which
    still calls it; ROADMAP item 2 passes R there and deletes this."""
    return R


def _dot(u: np.ndarray, v: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """sum_a u[a] * v[a] of arrays (3, ...), in that order, into out; tmp is scratch."""
    np.multiply(u[0], v[0], out=out)
    for a in (1, 2):
        np.multiply(u[a], v[a], out=tmp)
        out += tmp
    return out


def _ratio(gT: np.ndarray, gR: np.ndarray, params: NgfParams, h_bar: float = 1.0, out=None):
    """r_i and the coefficients a_i, b_i of d[(h_bar/2)(1 - r_i^2)]/d gT_i =
    a_i gR_i - b_i gT_i from gradient arrays (3, ...), h_bar the cell volume
    (r does not depend on it), into out if given: four arrays shaped like
    gT[0], the last of which it leaves holding r_i^2.

    With A = |gT|^2 + tau^2 and B = |gR|^2 + rho^2, r = (<gT, gR> + tau rho) /
    (sqrt(A) sqrt(B)), a = -h_bar r / (sqrt(A) sqrt(B)) and b = -h_bar r^2 / A.
    The two roots are taken apart, as A B would overflow float32 where |gT|
    and |gR| pass about 4e9. Both A and B are >= tau^2, rho^2 > 0, so a
    non-finite gT or gR makes r non-finite (inf / inf, or nan)."""
    if out is None:
        out = [np.empty(gT.shape[1:], gT.dtype) for _ in range(4)]
    r, a, b, tmp = out
    dtype = gT.dtype.type
    _dot(gT, gT, b, tmp)
    b += dtype(params.tau) ** 2  # A
    _dot(gR, gR, a, tmp)
    a += dtype(params.rho) ** 2  # B
    _dot(gT, gR, r, tmp)
    r += dtype(params.tau * params.rho)
    np.sqrt(a, out=a)
    a *= np.sqrt(b, out=tmp)  # sqrt(A) sqrt(B)
    r /= a
    np.divide(r, a, out=a)
    a *= dtype(-h_bar)
    np.multiply(r, r, out=tmp)
    np.divide(tmp, b, out=b)
    b *= dtype(-h_bar)
    return r, a, b, tmp


class _PlaneWindow:
    """Planes base:end of one slab's sequence of z-planes, in a buffer of fixed
    capacity (planes on axis 1) from ws: the planes a later chunk still needs
    are carried to the front, new planes are appended after them."""

    def __init__(self, ws: Workspace, channels: int, capacity: int, plane: tuple, dtype,
                 start: int):
        self.buf = ws.array((channels, capacity) + plane, dtype)
        self.base = self.end = start

    @property
    def planes(self) -> np.ndarray:
        return self.buf[..., :self.end - self.base, :, :]

    def at(self, k0: int, k1: int) -> np.ndarray:
        return self.buf[..., k0 - self.base:k1 - self.base, :, :]

    def append(self, k1: int, keep_from: int) -> np.ndarray:
        """Drop the planes below keep_from; return the slots of planes end:k1."""
        d = keep_from - self.base
        if d > 0:
            m = self.end - keep_from
            for c in self.buf:  # channel by channel, so numpy sees no overlap to buffer
                c[:m] = c[d:d + m]
            self.base = keep_from
        k0, self.end = self.end, k1
        return self.at(k0, k1)


def distance_and_gradient(y: DeformationField, sweep: LevelSweep,
                          meanwhile=None) -> tuple[float, VectorField3]:
    """NGF distance and its gradient with respect to y, in one sweep of the level.

    The sweep walks each slab's chunks of whole z-planes in order
    (_sweep_slab), and the variant's z schedule of P^T then runs once, on the
    caller. meanwhile, if given, is a callable without arguments that the
    sweep runs on the caller while its children sweep (LevelSweep.__call__),
    the objective's curvature term say. A y of another dtype than the level's
    raises ValueError, and a non-finite D or xy reduction FloatingPointError.

    Every plane gets the same operations in the same order as on whole
    arrays, so the gradient is the same for any worker count and chunk size.
    D is summed per z-plane, then over the planes in a fixed order: it is the
    same for any worker count and chunk size too, but a whole-array sum could
    differ from it by reassociation.
    """
    plan = sweep.plan
    if y.grid != plan.def_grid:
        raise GridError("deformation grid does not match the plan's deformation grid")
    dtype = y.field.dtype
    xy, d_planes = sweep(y.field, meanwhile)
    D = float(plan.image_grid.cell_volume / 2 * np.sum(d_planes, dtype=dtype))
    # a non-finite gT or gR at a voxel makes r, so D, non-finite (_ratio); the
    # template's partials reach only the gradient, via xy
    if not (np.isfinite(D) and np.isfinite(xy).all()):
        raise FloatingPointError("non-finite template gradient or reference gradient")
    return D, _reduce_z(xy, plan, sweep.z_schedule)


class LevelSweep:
    """The NGF sweep of one level. The reference R, the template, the plan,
    the parameters, P^T's z schedule, the plane step, the partition into at
    most `workers` slabs of image z-planes and the dtype of R and the
    template are fixed at construction, and the level's buffers allocated
    once, over one shared mapping: the field, P^T's xy reduction and D's
    per-plane sums. A call writes a field of that dtype there in the
    template's index coordinates (warp._to_index), the one copy it makes,
    and returns the other two, which the next call overwrites.

    Where there is more than one slab and it can fork (can_fork), the caller
    runs the first slab and a kept child process each other one: the children
    are forked at the first such call, and again only after close() or after
    a child died. They inherit the images and the plan copy-on-write, so
    these must not change in place while the sweep has children, and share
    the buffers, so it serves one call at a time. Elsewhere the caller sweeps
    the whole grid as one slab. close() ends the children; children never
    closed end when their group is garbage-collected or at interpreter exit.
    """

    def __init__(self, ref: Image3, template: Image3, plan: GatherPlan, params: NgfParams,
                 pt_variant: str, workers: int):
        self.z_schedule = _z_schedule(pt_variant)
        if ref.grid != plan.image_grid:
            raise GridError("reference grid does not match the plan's image grid")
        dtype = ref.values.dtype
        if dtype not in (np.float32, np.float64) or template.values.dtype != dtype:
            raise ValueError("the reference and the template must share float32 or float64, "
                             f"got {ref.values.dtype} and {template.values.dtype}")
        self.plan = plan
        nz, ny, nx = plan.image_grid.shape
        self._buffers = shared_arrays([((3,) + plan.def_grid.shape, dtype),
                                       ((3, nz) + plan.def_grid.shape[1:], dtype), ((nz,), dtype)])
        self._inputs = (*self._buffers, ref, template, plan, params, plane_step(ny * nx))
        self._template_grid = template.grid
        self._slabs = slab_partition(nz, ny * nx, workers)
        self._group: ProcessGroup | None = None

    def __call__(self, field: np.ndarray, meanwhile=None) -> tuple:
        """P^T's xy reduction and D's per-plane sums of the sweep of field.

        meanwhile, if given, is called without arguments on the caller after
        its own slab and before it waits for the children, so it runs while
        they sweep; with one slab it runs after the sweep. An exception there
        is handled as one of the caller's slab: the children are waited for
        first, and the sweep serves the next call."""
        y, xy, d_planes = self._buffers
        if field.dtype != y.dtype:
            raise ValueError(f"a {field.dtype} deformation field for a {y.dtype} level")
        _to_index(field, self._template_grid, y)
        if len(self._slabs) == 1 or not can_fork():
            _sweep_slab(*self._inputs, 0, self.plan.image_grid.shape[0])
            if meanwhile is not None:
                meanwhile()
            return xy, d_planes
        if self._group is None or self._group.closed:
            self._group = ProcessGroup(
                [functools.partial(_sweep_slab, *self._inputs, *slab) for slab in self._slabs[1:]],
                [f"image z-planes {lo}:{hi}" for lo, hi in self._slabs[1:]])
        self._group.start()  # before this thread's own slab, so the children start at once
        try:
            _sweep_slab(*self._inputs, *self._slabs[0])
            if meanwhile is not None:
                meanwhile()
        except BaseException:
            with contextlib.suppress(Exception):  # the first slab's error comes first
                self._group.wait()
            raise
        self._group.wait()
        return xy, d_planes

    def close(self) -> None:
        """End and reap the children, if any; a later call forks again."""
        if self._group is not None:
            self._group.close()
        self._group = None


def _sweep_slab(field: np.ndarray, xy: np.ndarray, d_planes: np.ndarray, ref: Image3,
                template: Image3, plan: GatherPlan, params: NgfParams, step: int, lo: int,
                hi: int) -> None:
    """The sweep over image z-planes lo:hi, in chunks of `step` planes, of the
    deformation field (3, nz_d, ny_d, nx_d) in the template's index
    coordinates: D's sums of those planes into
    d_planes[lo:hi] and their xy reduction of P^T into xy[:, lo:hi]. numpy's
    floating-point warnings are off: distance_and_gradient checks D and xy.

    Per chunk it forms yhat = P y on the new planes from the coarse planes of
    y that they read (transfer._P_planes), samples the template there
    (values and partials), takes the gradients of the warped template and of
    `ref` (R), r, the terms 1 - r^2 and their derivative q on the planes
    whose neighbours are now known, then for the chunk's own planes
    s = G^T q, the partials times s, and the xy reduction of P^T.

    The stencils make the chunk's last planes depend on planes beyond it, so
    the warp runs two planes ahead of the chunk and q one plane ahead. The
    warped template and its partials share one window of 4-channel planes,
    q has another, and each window carries the two planes a later chunk
    needs; both and the chunk's scratch, yhat among it, are arrays of this
    thread's Workspace, whose size depends on the plane, not on the slab.
    """
    dtype = field.dtype
    image_grid: Grid3 = plan.image_grid
    flat = template.values.ravel()
    spacing = image_grid.spacing
    nz, ny, nx = image_grid.shape
    h_bar = image_grid.cell_volume
    weights = plan.weights(dtype)

    def pointwise(W, Q, k0, q1, ws):
        """gR, r, the terms of D and q = a gR - b gT (_ratio) on the planes
        Q.end:q1, q into Q."""
        qa = Q.end
        m = q1 - qa
        # at most step + 2 planes; every chunk takes that many from ws, so
        # every slab's first chunk reaches the same depth, whatever its planes
        cap = (step + 2, ny, nx)
        gT = ws.array((3,) + cap, dtype)[:, :m]
        scratch = [ws.array(cap, dtype)[:m] for _ in range(4)]
        q = Q.append(q1, keep_from=max(k0 - 1, 0))
        gR = _gradient_planes(ref.values, spacing, qa, q1, q)  # q is gR until it is q
        _gradient_planes(W.planes[0], spacing, qa, q1, gT, W.base, nz)
        _, a, b, terms = _ratio(gT, gR, params, h_bar, scratch)
        np.subtract(1, terms, out=terms)
        d0, d1 = max(qa, lo), min(q1, hi)
        if d0 < d1:
            np.sum(terms[d0 - qa:d1 - qa].reshape(d1 - d0, ny * nx), axis=1, dtype=dtype,
                   out=d_planes[d0:d1])
        q *= a
        gT *= b  # gT is not needed after q
        q -= gT

    def chain(W, Q, k0, k1, ws):
        """s = G^T q on the planes k0:k1, the partials times s, and their xy
        reduction into xy."""
        s = ws.array((k1 - k0, ny, nx), dtype)
        s.fill(0)
        _gradient_transpose_planes(Q.at(k0, k1)[:2], spacing, (0, 1), k0, k1, s, ws=ws)
        _gradient_transpose_planes(Q.planes[2:], spacing, (2,), k0, k1, s, Q.base, nz, ws=ws)
        g_hat = W.at(k0, k1)[1:]
        g_hat *= s
        _reduce_xy(g_hat, plan, xy[:, k0:k1], ws)

    with np.errstate(all="ignore"), workspace().frame() as ws:
        W = _PlaneWindow(ws, 4, step + 4, (ny, nx), dtype, max(lo - 2, 0))  # T, partials
        Q = _PlaneWindow(ws, 3, step + 2, (ny, nx), dtype, max(lo - 1, 0))
        for k0 in range(lo, hi, step):
            k1 = min(k0 + step, hi)
            q1 = min(k1 + 1, nz)   # s on k0:k1 needs q one plane beyond,
            t1 = min(q1 + 1, nz)   # and q the template one plane beyond that
            w0 = W.end
            W.append(t1, keep_from=max(Q.end - 1, 0))
            for a in range(w0, t1, step):  # at most a chunk of planes at a time
                b = min(a + step, t1)
                new = W.at(a, b)
                _sample_planes(flat, template.grid, field, weights, a, b, new, ws)
            with ws.frame():
                pointwise(W, Q, k0, q1, ws)
            with ws.frame():
                chain(W, Q, k0, k1, ws)
