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
template once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DeformationField, Grid3, GridError, Image3, VectorField3
from .parallel import plane_step, run_slabs
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


def _norm(g: np.ndarray, eps: float) -> np.ndarray:
    """The smoothed norm ||v||_eps of gradient arrays (3, ...)."""
    sq = g[0] * g[0]
    for a in (1, 2):
        sq += g[a] * g[a]
    sq += g.dtype.type(eps) ** 2
    return np.sqrt(sq, out=sq)


def _ratio(gT: np.ndarray, gR: np.ndarray, params: NgfParams):
    """r_i, ||gT_i||_tau and ||gT_i||_tau * ||gR_i||_rho from gradient arrays (3, ...)."""
    r = gT[0] * gR[0]
    for a in (1, 2):
        r += gT[a] * gR[a]
    r += gT.dtype.type(params.tau * params.rho)
    norm_T = _norm(gT, params.tau)
    norms = norm_T * _norm(gR, params.rho)
    r /= norms
    return r, norm_T, norms


class _PlaneWindow:
    """Planes base:end of one slab's sequence of z-planes, in a buffer of fixed
    capacity (planes on axis -3): the planes a later chunk still needs are
    carried to the front, new planes are appended after them."""

    def __init__(self, lead: tuple, capacity: int, plane: tuple, dtype, start: int):
        self.buf = np.empty(lead + (capacity,) + plane, dtype=dtype)
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
            self.buf[..., :m, :, :] = self.buf[..., d:d + m, :, :]
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
    of P^T then runs once. A non-finite D raises FloatingPointError.

    The stencils make the chunk's last planes depend on planes beyond it, so
    the warp runs two planes ahead of the chunk and q one plane ahead. The
    warped template and its partials share one window of 4-channel planes,
    q has another, and each window carries the two planes a later chunk
    needs. Every plane gets the same operations in the same order as on
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
    y_xy = _interp_xy(y.field, plan.transfers)
    xy = np.empty((3, nz) + plan.def_grid.shape[1:], dtype=dtype)  # P^T's xy reduction
    d_planes = np.empty(nz, dtype=dtype)                          # D's per-plane sums

    def do_slab(lo, hi):
        W = _PlaneWindow((4,), step + 4, (ny, nx), dtype, max(lo - 2, 0))  # T, then its partials
        Q = _PlaneWindow((3,), step + 2, (ny, nx), dtype, max(lo - 1, 0))
        for k0 in range(lo, hi, step):
            k1 = min(k0 + step, hi)
            q1 = min(k1 + 1, nz)   # s on k0:k1 needs q one plane beyond,
            t1 = min(q1 + 1, nz)   # and q the template one plane beyond that
            w0 = W.end
            new_W = W.append(t1, keep_from=max(Q.end - 1, 0))
            # value and d live until the next chunk, as in warp_image (48^3: 147k faults, not 68k)
            value, d = _sample_planes(flat, template.grid, y_xy, plan.transfers,
                                      w0, t1, partials=True)
            new_W[0], new_W[1:] = value, d

            qa = Q.end
            gT = np.empty((3, q1 - qa, ny, nx), dtype=dtype)
            gR = np.empty_like(gT)
            _gradient_planes(W.planes[0], spacing, qa, q1, gT, W.base, nz)
            _gradient_planes(ref.values, spacing, qa, q1, gR)
            r, norm_T, norms = _ratio(gT, gR, params)
            terms = 1 - r * r
            for k in range(max(qa, lo), min(q1, hi)):
                d_planes[k] = np.sum(terms[k - qa], dtype=dtype)
            # d[(hbar/2)(1 - r^2)]/d(grad T) = -hbar * r * (gR/(nT*nR) - r*gT/nT^2)
            coef = dtype.type(-h_bar) * r
            inv_prod = 1 / norms
            inv_nt2 = 1 / (norm_T * norm_T)
            q = Q.append(q1, keep_from=max(k0 - 1, 0))
            for a in range(3):
                np.multiply(gR[a], inv_prod, out=q[a])
                gT[a] *= r  # gT is not needed after q
                gT[a] *= inv_nt2
                q[a] -= gT[a]
                q[a] *= coef

            s = np.zeros((k1 - k0, ny, nx), dtype=dtype)
            _gradient_transpose_planes(Q.at(k0, k1)[:2], spacing, (0, 1), k0, k1, s)
            _gradient_transpose_planes(Q.planes[2:], spacing, (2,), k0, k1, s, Q.base, nz)
            g_hat = W.at(k0, k1)[1:]
            g_hat *= s
            xy[:, k0:k1] = _reduce_xy(g_hat, plan)

    run_slabs(do_slab, nz, ny * nx, workers)
    D = float(h_bar / 2 * np.sum(d_planes, dtype=dtype))
    # both norms are >= tau, rho > 0: a non-finite gT, gR or q at a voxel makes r, so D, non-finite
    if not np.isfinite(D):
        raise FloatingPointError("non-finite template gradient or reference gradient")
    return D, _reduce_z(xy, plan, z_schedule, workers)
