"""Synthetic test volumes and ground-truth deformations.

Used by the benchmark harness, the acceptance suite and the demo scripts:
a smooth analytic intensity pattern plus a Gaussian-bump displacement whose
true point mapping is known in closed form.
"""

from __future__ import annotations

import numpy as np

from .geometry import DeformationField, Grid3, Image3, identity_field_array

__all__ = [
    "analytic_intensity",
    "gaussian_bump_mapping",
    "make_volume",
    "make_registration_pair",
    "probe_lattice",
    "smooth_random_volume",
    "smooth_random_field",
]

AMPLITUDE = 400.0   # intensity amplitude of the analytic pattern and the random volumes
PERIOD_MM = 24.0    # period of the analytic pattern's base frequency
SMOOTH_PASSES = 3   # 3-point box-filter passes per axis of smooth_random_volume


def analytic_intensity(x, y, z):
    """Smooth CT-like pattern with gradients everywhere, evaluable at any point."""
    k = 2 * np.pi / PERIOD_MM
    return AMPLITUDE * (
        np.sin(k * x) * np.cos(0.83 * k * y)
        + np.sin(0.67 * k * y) * np.cos(1.19 * k * z)
        + np.sin(0.91 * k * z) * np.cos(0.74 * k * x)
    ) / 3.0


def _world_coords(grid: Grid3):
    x = grid.axis_centers(0)[None, None, :]
    y = grid.axis_centers(1)[None, :, None]
    z = grid.axis_centers(2)[:, None, None]
    return x, y, z


def make_volume(grid: Grid3) -> Image3:
    x, y, z = _world_coords(grid)
    return Image3(grid, analytic_intensity(x, y, z) + np.zeros(grid.shape))


def gaussian_bump_mapping(center, sigma_mm: float, amplitude_mm):
    """Returns mapping(x, y, z) -> displaced coordinates x + u(x) with
    u(x) = amplitude * exp(-|x - c|^2 / (2 sigma^2))."""
    cx, cy, cz = center
    ax, ay, az = amplitude_mm

    def mapping(x, y, z):
        g = np.exp(-((x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2) / (2 * sigma_mm**2))
        return x + ax * g, y + ay * g, z + az * g

    return mapping


def make_registration_pair(grid: Grid3, mapping):
    """Template T is the analytic pattern; reference R(x) = T(mapping(x)),
    sampled exactly, so `mapping` is the ground-truth deformation."""
    T = make_volume(grid)  # first: building R first raises reg48's peak RSS by 0.8 MB
    mx, my, mz = mapping(*_world_coords(grid))
    R = Image3(grid, analytic_intensity(mx, my, mz) + np.zeros(grid.shape))
    return R, T


def probe_lattice(grid: Grid3, n_per_axis: int = 5, margin: float = 0.25) -> np.ndarray:
    """(n^3, 3) world-coordinate lattice spanning the central part of the domain."""
    axes = []
    for a in range(3):
        lo = grid.origin[a] + margin * grid.extent[a]
        hi = grid.origin[a] + (1 - margin) * grid.extent[a]
        axes.append(np.linspace(lo, hi, n_per_axis))
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)


def smooth_random_volume(grid: Grid3, seed: int = 0, amplitude: float = AMPLITUDE) -> Image3:
    """Random volume smoothed by repeated 3-point box filters (deterministic)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.shape)
    for _ in range(SMOOTH_PASSES):
        for ax in range(3):
            if v.shape[ax] > 2:
                s = np.moveaxis(v.copy(), ax, 0)
                np.moveaxis(v, ax, 0)[1:-1] = (s[:-2] + s[1:-1] + s[2:]) / 3
    v *= amplitude / max(np.abs(v).max(), 1e-12)
    return Image3(grid, v)


def smooth_random_field(grid: Grid3, seed: int = 0, amplitude_mm: float = 1.0) -> DeformationField:
    """Identity plus a smooth random displacement, for exercising operators."""
    rng = np.random.default_rng(seed)
    out = identity_field_array(grid)
    for c in range(3):
        u = smooth_random_volume(grid, seed=int(rng.integers(1 << 31)), amplitude=amplitude_mm)
        out[c] += u.values
    return DeformationField(grid, out)
