"""Normalized gradient fields distance and its matrix-free gradient.

The distance compares image-gradient directions voxel by voxel,

    D = (hbar/2) * sum_i ( 1 - r_i^2 ),
    r_i = (<gT_i, gR_i> + tau*rho) / (||gT_i||_tau * ||gR_i||_rho),

with the smoothed norm ||v||_eps = sqrt(<v,v> + eps^2). The value and the
gradient with respect to the deformation-grid variables come from one sweep
over chunks of whole image z-planes, which forms no image-sized array and
keeps nothing between evaluations but the reference R and the template T:
per chunk it interpolates the deformation onto the chunk's planes, samples
the template there with the interpolant's partial derivatives, computes both
image gradients and the pointwise terms once, and applies the chain of small
local operators (gradient-stencil transpose, a multiply by the partials, the
xy part of the grid-transfer transpose) without forming any matrix. The
stencils couple a plane to its neighbours, so a chunk carries the few planes
of its predecessor that it still needs, and only a slab's first and last
chunks recompute halo planes of the neighbouring slabs. The warped template
and its partials share one window of planes, so each chunk samples the
template once. The windows and every temporary of a chunk are arrays of the
thread's Workspace, so once a level has been evaluated a chunk allocates
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DeformationField, Grid3, GridError, Image3, VectorField3
from .parallel import Workspace, plane_step, run_slabs, workspace
from .transfer import GatherPlan, _interp_xy, _reduce_xy, _reduce_z, _z_schedule
from .warp import _gradient_planes, _gradient_transpose_planes, _sample_planes

__all__ = ["NgfParams", "distance_and_gradient"]


@dataclass(frozen=True)
class NgfParams:
    """Noise-filtering parameters for the template (tau) and reference (rho)."""

    tau: float = 10.0
    rho: float = 10.0

    def __post_init__(self):
        if not (self.tau > 0 and self.rho > 0):
            raise ValueError(f"tau and rho must be > 0, got tau={self.tau}, rho={self.rho}")


def precompute_reference_terms(R: Image3, params: NgfParams, workers: int = 1) -> Image3:
    """Returns R, which the sweep takes as it is. Kept only for perfbench/, which
    still calls it; ROADMAP item 1 passes R there and deletes this."""
    return R


def _dot(u: np.ndarray, v: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """sum_a u[a] * v[a] of arrays (3, ...), in that order, into out; tmp is scratch."""
    np.multiply(u[0], v[0], out=out)
    for a in (1, 2):
        np.multiply(u[a], v[a], out=tmp)
        out += tmp
    return out


def _norm(g: np.ndarray, eps: float, out: np.ndarray | None = None,
          tmp: np.ndarray | None = None) -> np.ndarray:
    """The smoothed norm ||v||_eps of gradient arrays (3, ...), into out if given;
    tmp, if given, is scratch shaped like out."""
    out = np.empty(g.shape[1:], g.dtype) if out is None else out
    _dot(g, g, out, np.empty_like(out) if tmp is None else tmp)
    out += g.dtype.type(eps) ** 2
    return np.sqrt(out, out=out)


def _ratio(gT: np.ndarray, gR: np.ndarray, params: NgfParams, out=None):
    """r_i, ||gT_i||_tau and ||gT_i||_tau * ||gR_i||_rho from gradient arrays (3, ...),
    into out if given: four arrays shaped like gT[0], the last one scratch."""
    if out is None:
        out = [np.empty(gT.shape[1:], gT.dtype) for _ in range(4)]
    r, norm_T, norms, tmp = out
    _dot(gT, gR, r, tmp)
    r += gT.dtype.type(params.tau * params.rho)
    _norm(gT, params.tau, norm_T, tmp)
    _norm(gR, params.rho, norms, tmp)
    norms *= norm_T
    r /= norms
    return r, norm_T, norms


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


def distance_and_gradient(
    y: DeformationField,
    ref: Image3,
    template: Image3,
    plan: GatherPlan,
    params: NgfParams,
    pt_variant: str = "gather",
    workers: int = 1,
) -> tuple[float, VectorField3]:
    """NGF distance and its gradient with respect to y, in one sweep.

    Each slab of the worker partition walks its chunks of whole z-planes in
    order. Per chunk it forms yhat = P y on the new planes from y already
    interpolated along x and y, samples the template there (values and
    partials), takes the gradients of the warped template and of `ref` (R),
    r, the terms 1 - r^2 and their derivative q on the planes whose
    neighbours are now known, then for the chunk's own planes s = G^T q, the
    partials times s, and the xy reduction of P^T. The variant's z schedule
    of P^T then runs once. A non-finite D or xy reduction raises
    FloatingPointError.

    The stencils make the chunk's last planes depend on planes beyond it, so
    the warp runs two planes ahead of the chunk and q one plane ahead. The
    warped template and its partials share one window of 4-channel planes,
    q has another, and each window carries the two planes a later chunk
    needs; both, and the chunk's scratch, are arrays of the slab's thread's
    Workspace. Every plane gets the same operations in the same order as on
    whole arrays, so the gradient is the same for any worker count and chunk
    size. D is summed per z-plane, then over the planes in a fixed order: it
    is the same for any worker count and chunk size too, but a whole-array
    sum could differ from it by reassociation.
    """
    z_schedule = _z_schedule(pt_variant)
    if y.grid != plan.def_grid:
        raise GridError("deformation grid does not match the plan's deformation grid")
    image_grid: Grid3 = plan.image_grid
    if ref.grid != image_grid:
        raise GridError("reference grid does not match the plan's image grid")
    dtype = y.field.dtype
    flat = template.values.astype(dtype, copy=False).ravel()
    spacing = image_grid.spacing
    nz, ny, nx = image_grid.shape
    h_bar = image_grid.cell_volume
    step = plane_step(ny * nx)
    weights = plan.interp_weights(dtype)
    y_xy = _interp_xy(y.field, weights)
    xy = np.empty((3, nz) + plan.def_grid.shape[1:], dtype=dtype)  # P^T's xy reduction
    d_planes = np.empty(nz, dtype=dtype)                          # D's per-plane sums

    def pointwise(W, Q, k0, q1, lo, hi, ws):
        """gR, r, the terms of D and q on the planes Q.end:q1, q into Q."""
        qa = Q.end
        m = q1 - qa
        # at most step + 2 planes; every chunk takes that many from ws, so
        # every slab's first chunk reaches the same depth, whatever its planes
        cap = (step + 2, ny, nx)
        gT = ws.array((3,) + cap, dtype)[:, :m]
        r, norm_T, norms, tmp = (ws.array(cap, dtype)[:m] for _ in range(4))
        q = Q.append(q1, keep_from=max(k0 - 1, 0))
        gR = _gradient_planes(ref.values, spacing, qa, q1, q)  # q is gR until it is q
        _gradient_planes(W.planes[0], spacing, qa, q1, gT, W.base, nz)
        _ratio(gT, gR, params, (r, norm_T, norms, tmp))
        terms = np.multiply(r, r, out=tmp)
        np.subtract(1, terms, out=terms)
        for k in range(max(qa, lo), min(q1, hi)):
            d_planes[k] = np.sum(terms[k - qa], dtype=dtype)
        # d[(hbar/2)(1 - r^2)]/d(grad T) = -hbar * r * (gR/(nT*nR) - r*gT/nT^2)
        coef = np.multiply(r, dtype.type(-h_bar), out=tmp)
        inv_prod = np.divide(1, norms, out=norms)
        inv_nt2 = np.multiply(norm_T, norm_T, out=norm_T)
        np.divide(1, inv_nt2, out=inv_nt2)
        for a in range(3):
            q[a] *= inv_prod
            gT[a] *= r  # gT is not needed after q
            gT[a] *= inv_nt2
            q[a] -= gT[a]
            q[a] *= coef

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

    def do_slab(lo, hi):
        with workspace().frame() as ws:
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
                    _sample_planes(flat, template.grid, y_xy, weights, a, b, new[0], new[1:], ws)
                with ws.frame():
                    pointwise(W, Q, k0, q1, lo, hi, ws)
                with ws.frame():
                    chain(W, Q, k0, k1, ws)

    run_slabs(do_slab, nz, ny * nx, workers)
    D = float(h_bar / 2 * np.sum(d_planes, dtype=dtype))
    # both norms are >= tau, rho > 0: a non-finite gT, gR or q at a voxel makes r,
    # so D, non-finite; the template's partials reach only the gradient, via xy
    if not (np.isfinite(D) and np.isfinite(xy).all()):
        raise FloatingPointError("non-finite template gradient or reference gradient")
    return D, _reduce_z(xy, plan, z_schedule, workers)
