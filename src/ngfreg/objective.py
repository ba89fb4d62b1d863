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
from .ngf import NgfParams, SweepChildren, distance_and_gradient
from .transfer import GatherPlan

__all__ = ["LevelObjective"]


@dataclass
class LevelObjective:
    """Callable objective for one multilevel level. Each call appends (J, D, S)
    to `log`, (inf, nan, nan) for a non-finite trial point, and adds the wall
    seconds of the distance and of the curvature term to their totals.

    With more than one worker, its first evaluation whose sweep has more than
    one slab forks the sweep's child processes, which it keeps for the later
    ones (ngf.SweepChildren): the images must not change in place while it has
    them. close() ends them; an objective that is never closed ends them when
    it is garbage-collected or at interpreter exit."""

    template: Image3
    ref: Image3
    plan: GatherPlan
    params: NgfParams
    alpha: float
    pt_variant: str = "gather"
    workers: int = 1
    log: list = field(default_factory=list)
    seconds_distance: float = 0.0
    seconds_curvature: float = 0.0
    _children: SweepChildren = field(default_factory=SweepChildren, init=False, repr=False,
                                     compare=False)

    def __call__(self, x: np.ndarray):
        if not np.all(np.isfinite(x)):
            # overflowed line-search trial point; force a backtrack
            self.log.append((float("inf"), float("nan"), float("nan")))
            return float("inf"), np.zeros_like(x)
        grid = self.plan.def_grid
        y = DeformationField(grid, x.reshape((3,) + grid.shape))
        t0 = time.perf_counter()
        D, grad_D = distance_and_gradient(
            y, self.ref, self.template, self.plan, self.params,
            self.pt_variant, self.workers, children=self._children,
        )
        t1 = time.perf_counter()
        S, grad_S = curvature_value_and_gradient(y)
        self.seconds_distance += t1 - t0
        self.seconds_curvature += time.perf_counter() - t1
        grad = grad_D.field + y.field.dtype.type(self.alpha) * grad_S
        J = D + self.alpha * S
        self.log.append((J, D, S))
        return J, grad.ravel()

    def close(self) -> None:
        """End the sweep's child processes; a later call forks them again."""
        self._children.close()
