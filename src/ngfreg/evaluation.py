"""Landmark error, fold check and precision-divergence diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DeformationField, Grid3, GridError, Image3
from .warp import _trilinear

__all__ = ["LandmarkSet", "LandmarkErrorResult", "landmark_error",
           "field_difference_stats", "min_jacobian_det", "sample_deformation"]


@dataclass
class LandmarkSet:
    """Landmark positions in world millimeters."""

    points: np.ndarray  # (n, 3)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(self.points)):
            raise ValueError("landmarks must be finite")

    @property
    def count(self) -> int:
        return len(self.points)


@dataclass
class LandmarkErrorResult:
    mean_mm: float
    stddev_mm: float            # population standard deviation
    per_landmark_mm: np.ndarray
    outside_domain: np.ndarray  # flags: reference landmark outside the image domain


def sample_deformation(y: DeformationField, points: np.ndarray) -> np.ndarray:
    """Trilinear evaluation of the deformation at world points (clamp-to-edge)."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    fld = y.field.astype(np.float64, copy=False).reshape(3, -1)
    return _trilinear(fld, y.grid, pts.T)[0].T


def landmark_error(
    y: DeformationField,
    lm_ref: LandmarkSet,
    lm_tmpl: LandmarkSet,
    image_grid: Grid3,
) -> LandmarkErrorResult:
    """Mean/stddev/per-landmark Euclidean error in mm.

    The deformation is evaluated at each reference landmark; the mapped
    position is compared against the template-space annotation.
    """
    if lm_ref.count != lm_tmpl.count:
        raise ValueError(
            f"landmark counts differ: {lm_ref.count} reference vs {lm_tmpl.count} template"
        )
    lo = np.array(image_grid.domain_min)
    hi = lo + np.array(image_grid.extent)
    outside = np.any((lm_ref.points < lo) | (lm_ref.points > hi), axis=1)
    mapped = sample_deformation(y, lm_ref.points)
    per = np.linalg.norm(mapped - lm_tmpl.points, axis=1)
    mean = float(per.mean()) if len(per) else 0.0
    std = float(per.std()) if len(per) else 0.0
    return LandmarkErrorResult(mean, std, per, outside)


def field_difference_stats(a: DeformationField, b: DeformationField):
    """Per-point displacement difference magnitude: (max mm, mean mm, volume)."""
    if a.grid != b.grid:
        raise GridError("deformation fields must share one grid")
    d = a.field.astype(np.float64, copy=False) - b.field.astype(np.float64, copy=False)
    mag = np.sqrt(np.sum(d * d, axis=0))
    return float(mag.max()), float(mag.mean()), Image3(a.grid, mag)


def min_jacobian_det(y: DeformationField) -> float:
    """min det grad y over the deformation grid; a value <= 0 means the mapping
    folds. d y_c / d x_a is taken by central differences, one-sided at the
    faces; along an axis of one point the displacement is constant, so it is
    [c == a] there. World axis a is numpy axis 2 - a of a component."""
    g = y.grid
    jac = [[np.gradient(y.field[c], g.spacing[a], axis=2 - a) if g.dims[a] > 1
            else np.full(g.shape, float(c == a)) for a in range(3)] for c in range(3)]
    return float(np.linalg.det(np.moveaxis(np.array(jac, np.float64), (0, 1), (3, 4))).min())
