"""Normalized gradient fields distance and its matrix-free gradient.

The distance compares image-gradient directions voxel by voxel,

    D = (hbar/2) * sum_i ( 1 - r_i^2 ),
    r_i = (<gT_i, gR_i> + tau*rho) / (||gT_i||_tau * ||gR_i||_rho),

with the smoothed norm ||v||_eps = sqrt(<v,v> + eps^2). The value and the
gradient with respect to the deformation-grid variables come from one pass:
the warp keeps the interpolant's partial derivatives, the pointwise terms
are computed once, and the chain of small local operators (gradient
stencil transpose, a multiply by the stored partials, grid-transfer
transpose) is applied without forming any matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DeformationField, Grid3, Image3, VectorField3
from .transfer import GatherPlan, apply_P, apply_Pt
from .warp import WarpResult, image_gradient, image_gradient_apply_transpose, warp_image

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


def _ratio_terms(grad_T: VectorField3, ref: ReferenceTerms, params: NgfParams):
    """Per-voxel r_i and smoothed template gradient norm."""
    dtype = grad_T.field.dtype
    dot = np.zeros(grad_T.grid.shape, dtype=dtype)
    sq = np.zeros(grad_T.grid.shape, dtype=dtype)
    for a in range(3):
        dot += grad_T.field[a] * ref.grad.field[a]
        sq += grad_T.field[a] * grad_T.field[a]
    norm_T = np.sqrt(sq + dtype.type(params.tau) ** 2)
    r = (dot + dtype.type(params.tau * params.rho)) / (norm_T * ref.norm)
    return r, norm_T


def _distance(r: np.ndarray, h_bar: float) -> float:
    """(hbar/2) * sum(1 - r^2); one fixed-shape pairwise reduction over the
    whole grid, so the result is bit-stable across worker counts."""
    terms = 1 - r * r
    return float(h_bar / 2 * np.sum(terms, dtype=terms.dtype))


def ngf_value(warped: WarpResult, ref: ReferenceTerms, params: NgfParams,
              h_bar: float, workers: int = 1) -> float:
    """NGF distance of a warped template."""
    r, _ = _ratio_terms(image_gradient(warped.warped, workers), ref, params)
    return _distance(r, h_bar)


def distance_and_gradient(
    y: DeformationField,
    ref: ReferenceTerms,
    template: Image3,
    plan: GatherPlan,
    params: NgfParams,
    pt_variant: str = "gather",
    workers: int = 1,
) -> tuple[float, VectorField3]:
    """NGF distance and its gradient with respect to y, in one pass:
    P, warp with partials, the pointwise terms, G^T, the partials times s, P^T."""
    image_grid: Grid3 = plan.image_grid
    yhat = apply_P(y, image_grid, workers)
    warped = warp_image(template, yhat, workers, partials=True)
    h_bar = image_grid.cell_volume
    grad_T = image_gradient(warped.warped, workers)
    r, norm_T = _ratio_terms(grad_T, ref, params)
    D = _distance(r, h_bar)
    dtype = grad_T.field.dtype
    # d[(hbar/2)(1 - r^2)]/d(grad T) = -hbar * r * (gR/(nT*nR) - r*gT/nT^2)
    coef = dtype.type(-h_bar) * r
    q = np.empty_like(grad_T.field)
    inv_prod = 1 / (norm_T * ref.norm)
    inv_nt2 = 1 / (norm_T * norm_T)
    for a in range(3):
        q[a] = coef * (ref.grad.field[a] * inv_prod - r * grad_T.field[a] * inv_nt2)
    s = image_gradient_apply_transpose(VectorField3(image_grid, q), image_grid)
    g_hat = warped.partials
    g_hat *= s
    grad_y = apply_Pt(VectorField3(image_grid, g_hat), plan, pt_variant, workers)
    return D, grad_y
