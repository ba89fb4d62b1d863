"""Normalized gradient fields distance and its matrix-free gradient.

The distance compares image-gradient directions voxel by voxel,

    D = (hbar/2) * sum_i ( 1 - r_i^2 ),
    r_i = (<gT_i, gR_i> + tau*rho) / (||gT_i||_tau * ||gR_i||_rho),

with the smoothed norm ||v||_eps = sqrt(<v,v> + eps^2). The value and the
gradient with respect to the deformation-grid variables come from one pass:
the warp keeps the interpolant's partial derivatives, the pointwise terms
are computed once, and the chain of small local operators (gradient
stencil transpose, a multiply by the stored partials, grid-transfer
transpose) is applied without forming any matrix. Every step runs per slab
of whole z-planes; only the stencils' one halo plane couples the slabs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DeformationField, Grid3, Image3, VectorField3
from .parallel import run_planes
from .transfer import GatherPlan, apply_P, apply_Pt
from .warp import (
    WarpResult, _gradient_planes, _gradient_transpose_planes, image_gradient, warp_image,
)

__all__ = [
    "NgfParams",
    "ReferenceTerms",
    "distance_and_gradient",
    "ngf_value",
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


def _ratio_terms(grad_T: VectorField3, ref: ReferenceTerms, params: NgfParams):
    """Per-voxel r_i and smoothed template gradient norm."""
    return _ratio(grad_T.field, ref.grad.field, ref.norm, params)


def _distance(terms: np.ndarray, h_bar: float) -> float:
    """(hbar/2) * sum(terms), terms = 1 - r^2; one fixed-shape pairwise
    reduction over the whole grid, so the result is bit-stable across worker
    counts and chunkings."""
    return float(h_bar / 2 * np.sum(terms, dtype=terms.dtype))


def _check_finite(values: np.ndarray, name: str) -> None:
    if not np.isfinite(values).all():
        raise FloatingPointError(f"non-finite {name} in the NGF objective")


def ngf_value(warped: WarpResult, ref: ReferenceTerms, params: NgfParams,
              h_bar: float, workers: int = 1) -> float:
    """NGF distance of a warped template."""
    r, _ = _ratio_terms(image_gradient(warped.warped, workers), ref, params)
    return _distance(1 - r * r, h_bar)


def distance_and_gradient(
    y: DeformationField,
    ref: ReferenceTerms,
    template: Image3,
    plan: GatherPlan,
    params: NgfParams,
    pt_variant: str = "gather",
    workers: int = 1,
) -> tuple[float, VectorField3]:
    """NGF distance and its gradient with respect to y, in one pass of three
    sweeps over chunks of whole z-planes:

    1. P and the warp with partials;
    2. per chunk: the template gradient, r, the terms 1 - r^2 of D, q and
       the x and y parts of s = G^T q (only q_z crosses to the next sweep);
    3. per chunk: the z part of s, then the partials times s; then P^T.
    """
    image_grid: Grid3 = plan.image_grid
    yhat = apply_P(y, image_grid, workers)
    warped = warp_image(template, yhat, workers, partials=True)
    T = warped.warped.values
    dtype = T.dtype
    spacing = image_grid.spacing
    nz, ny, nx = image_grid.shape
    h_bar = image_grid.cell_volume
    terms = np.empty((nz, ny, nx), dtype=dtype)
    s = np.zeros((nz, ny, nx), dtype=dtype)
    q_z = np.empty((nz, ny, nx), dtype=dtype)

    def terms_and_q(k0, k1):
        gT = np.empty((3, k1 - k0, ny, nx), dtype=dtype)
        _gradient_planes(T, spacing, k0, k1, gT)
        _check_finite(gT, "template gradient")
        gR, norm_R = ref.grad.field[:, k0:k1], ref.norm[k0:k1]
        r, norm_T = _ratio(gT, gR, norm_R, params)
        terms[k0:k1] = 1 - r * r
        # d[(hbar/2)(1 - r^2)]/d(grad T) = -hbar * r * (gR/(nT*nR) - r*gT/nT^2)
        coef = dtype.type(-h_bar) * r
        inv_prod = 1 / (norm_T * norm_R)
        inv_nt2 = 1 / (norm_T * norm_T)
        q = gT  # overwritten component by component
        for a in range(3):
            q[a] = coef * (gR[a] * inv_prod - r * gT[a] * inv_nt2)
        _check_finite(q, "NGF derivative q")
        _gradient_transpose_planes(q[:2], spacing, (0, 1), k0, k1, s[k0:k1])
        q_z[k0:k1] = q[2]

    g_hat = warped.partials

    def gradient_chain(k0, k1):
        _gradient_transpose_planes((q_z,), spacing, (2,), k0, k1, s[k0:k1])
        g_hat[:, k0:k1] *= s[k0:k1]

    run_planes(terms_and_q, nz, ny * nx, workers)
    D = _distance(terms, h_bar)
    run_planes(gradient_chain, nz, ny * nx, workers)
    grad_y = apply_Pt(VectorField3(image_grid, g_hat), plan, pt_variant, workers)
    return D, grad_y
