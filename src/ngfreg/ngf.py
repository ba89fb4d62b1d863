"""Normalized gradient fields distance and its matrix-free gradient.

The distance compares image-gradient directions voxel by voxel,

    D = (hbar/2) * sum_i ( 1 - r_i^2 ),
    r_i = (<gT_i, gR_i> + tau*rho) / (||gT_i||_tau * ||gR_i||_rho),

with the smoothed norm ||v||_eps = sqrt(<v,v> + eps^2). The value and the
gradient with respect to the deformation-grid variables come from one sweep
over chunks of whole image z-planes, which forms no image-sized array: per
chunk it interpolates the deformation onto the chunk's planes, samples the
template there with the interpolant's partial derivatives, computes the
image gradient and the pointwise terms once, and applies the chain of small
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
from .warp import _gradient_planes, _gradient_transpose_planes, _sample_planes, image_gradient

__all__ = [
    "NgfParams",
    "ReferenceTerms",
    "distance_and_gradient",
    "precompute_reference_terms",
]


@dataclass(frozen=True)
class NgfParams:
    """Noise-filtering parameters for the template (tau) and reference (rho)."""

    tau: float = 10.0
    rho: float = 10.0

    def __post_init__(self):
        if not (self.tau > 0 and self.rho > 0):
            raise ValueError(f"tau and rho must be > 0, got tau={self.tau}, rho={self.rho}")


@dataclass
class ReferenceTerms:
    """Per-level cache of the reference image gradient and its smoothed norm."""

    grad: VectorField3           # gradient of R per voxel
    norm: np.ndarray             # ||grad R_i||_rho >= rho everywhere


def precompute_reference_terms(R: Image3, params: NgfParams, workers: int = 1) -> ReferenceTerms:
    grad = image_gradient(R, workers)
    dtype = R.values.dtype
    sq = np.zeros(R.grid.shape, dtype=dtype)
    for a in range(3):
        sq += grad.field[a] * grad.field[a]
    norm = np.sqrt(sq + dtype.type(params.rho) ** 2)
    return ReferenceTerms(grad=grad, norm=norm)


def _ratio(gT: np.ndarray, gR: np.ndarray, norm_R: np.ndarray, params: NgfParams):
    """r_i and the smoothed template gradient norm from gradient arrays (3, ...)."""
    dtype = gT.dtype
    dot = np.zeros(gT.shape[1:], dtype=dtype)
    sq = np.zeros(gT.shape[1:], dtype=dtype)
    for a in range(3):
        dot += gT[a] * gR[a]
        sq += gT[a] * gT[a]
    norm_T = np.sqrt(sq + dtype.type(params.tau) ** 2)
    r = (dot + dtype.type(params.tau * params.rho)) / (norm_T * norm_R)
    return r, norm_T


def _check_finite(values: np.ndarray, name: str) -> None:
    if not np.isfinite(values).all():
        raise FloatingPointError(f"non-finite {name} in the NGF objective")


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
    ref: ReferenceTerms,
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
    partials), takes the template gradient, r, the terms 1 - r^2 and their
    derivative q on the planes whose neighbours are now known, then for the
    chunk's own planes s = G^T q, the partials times s, and the xy reduction
    of P^T. The variant's z schedule of P^T then runs once.

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
            _gradient_planes(W.planes[0], spacing, qa, q1, gT, W.base, nz)
            _check_finite(gT, "template gradient")
            gR, norm_R = ref.grad.field[:, qa:q1], ref.norm[qa:q1]
            r, norm_T = _ratio(gT, gR, norm_R, params)
            terms = 1 - r * r
            for k in range(max(qa, lo), min(q1, hi)):
                d_planes[k] = np.sum(terms[k - qa], dtype=dtype)
            # d[(hbar/2)(1 - r^2)]/d(grad T) = -hbar * r * (gR/(nT*nR) - r*gT/nT^2)
            coef = dtype.type(-h_bar) * r
            inv_prod = 1 / (norm_T * norm_R)
            inv_nt2 = 1 / (norm_T * norm_T)
            q = Q.append(q1, keep_from=max(k0 - 1, 0))
            for a in range(3):
                q[a] = coef * (gR[a] * inv_prod - r * gT[a] * inv_nt2)
            _check_finite(q, "NGF derivative q")

            s = np.zeros((k1 - k0, ny, nx), dtype=dtype)
            _gradient_transpose_planes(Q.at(k0, k1)[:2], spacing, (0, 1), k0, k1, s)
            _gradient_transpose_planes(Q.planes[2:], spacing, (2,), k0, k1, s, Q.base, nz)
            g_hat = W.at(k0, k1)[1:]
            g_hat *= s
            xy[:, k0:k1] = _reduce_xy(g_hat, plan)

    run_slabs(do_slab, nz, ny * nx, workers)
    D = float(h_bar / 2 * np.sum(d_planes, dtype=dtype))
    return D, _reduce_z(xy, plan, z_schedule, workers)
