"""Joint objective J(y) = D_NGF + alpha * S_curvature for one level.

The flat optimization variable is the deformation field in component-major
order (all y_x, then y_y, then y_z, each x-fastest), which is exactly the
ravel of the (3, nz, ny, nx) field array.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .curvature import curvature_value_and_gradient
from .geometry import DeformationField, Image3
from .ngf import LevelSweep, NgfParams, distance_and_gradient
from .transfer import GatherPlan

__all__ = ["LevelObjective"]


@dataclass
class LevelObjective:
    """Callable objective for one multilevel level. Each call appends (J, D, S)
    to `log`, (inf, nan, nan) for a non-finite trial point, and adds the wall
    seconds of the distance and of the curvature term to `seconds`; both are
    outputs, which start empty and at zero. The curvature term runs on the
    caller while the sweep's children sweep (distance_and_gradient's
    meanwhile), and `seconds["distance"]` counts the distance's call less
    the curvature's own seconds, so the two never count a second twice. x
    must have the dtype of the images, which LevelSweep checks.

    It builds the level's LevelSweep at construction. With more than one
    worker, its first evaluation whose sweep has more than one slab forks the
    sweep's child processes, which it keeps for the later ones: the images
    must not change in place while it has them. close() ends them; an
    objective that is never closed ends them when it is garbage-collected or
    at interpreter exit."""

    template: Image3
    ref: Image3
    plan: GatherPlan
    params: NgfParams
    alpha: float
    pt_variant: str
    workers: int
    log: list = field(init=False, default_factory=list)
    seconds: dict = field(init=False, default_factory=lambda: {"distance": 0.0, "curvature": 0.0})

    def __post_init__(self):
        self._sweep = LevelSweep(self.ref, self.template, self.plan, self.params,
                                 self.pt_variant, self.workers)

    def __call__(self, x: np.ndarray):
        if not np.all(np.isfinite(x)):
            # overflowed line-search trial point; force a backtrack
            self.log.append((float("inf"), float("nan"), float("nan")))
            return float("inf"), np.zeros_like(x)
        grid = self.plan.def_grid
        y = DeformationField(grid, x.reshape((3,) + grid.shape))
        curvature = []  # S, its gradient and its seconds

        def curvature_term():
            t = time.perf_counter()
            curvature.extend(curvature_value_and_gradient(y))
            curvature.append(time.perf_counter() - t)

        t0 = time.perf_counter()
        D, grad_D = distance_and_gradient(y, self._sweep, curvature_term)
        elapsed = time.perf_counter() - t0
        S, grad_S, seconds = curvature
        self.seconds["distance"] += elapsed - seconds
        self.seconds["curvature"] += seconds
        grad = grad_D.field + y.field.dtype.type(self.alpha) * grad_S
        J = D + self.alpha * S
        self.log.append((J, D, S))
        return J, grad.ravel()

    def close(self) -> None:
        """End the sweep's child processes; a later call forks them again."""
        self._sweep.close()
