"""Coarse-to-fine pyramids and the full registration driver.

Images are halved per level by 2x2x2 block means (partial blocks average
the available voxels) with the world extent preserved; the deformation grid
tracks the image grid at a configurable resolution ratio. Each level is
solved with L-BFGS and the solution is prolonged to the next finer grid.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    DeformationField,
    Grid3,
    GridError,
    Image3,
    VectorField3,
    identity_field_array,
    make_identity,
    precision_dtype,
)
from .evaluation import min_jacobian_det
from .lbfgs import IterationRecord, LbfgsConfig, StoppingRules, lbfgs_minimize
from .ngf import NgfParams
from .objective import LevelObjective
from .parallel import run_tasks
from .transfer import _z_schedule, apply_P, build_gather_plan

__all__ = [
    "MultilevelConfig",
    "RegistrationReport",
    "build_pyramid",
    "deformation_grid_for",
    "downsample_image",
    "num_auto_levels",
    "prolong_deformation",
    "register",
]


@dataclass(frozen=True)
class MultilevelConfig:
    num_levels: int | None = None          # None = auto from coarsest_min_dim
    coarsest_min_dim: int = 16
    grid_ratio: int = 4
    alpha: float = 1.0
    ngf: NgfParams = NgfParams()
    lbfgs: LbfgsConfig = LbfgsConfig()
    stopping: StoppingRules = StoppingRules()
    precision: str = "f64"
    workers: int = 1
    pt_variant: str = "gather"

    def __post_init__(self):
        if self.num_levels is not None and self.num_levels < 1:
            raise ValueError("num_levels must be >= 1")
        if self.coarsest_min_dim < 1:
            raise ValueError("coarsest_min_dim must be >= 1")
        if self.grid_ratio < 1:
            raise ValueError("grid_ratio must be >= 1")
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0")
        precision_dtype(self.precision)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        _z_schedule(self.pt_variant)


@dataclass
class LevelReport:
    level_index: int
    image_dims: tuple[int, int, int]
    def_dims: tuple[int, int, int]
    iterations: int
    evaluations: int  # objective evaluations; 1 + sum(ls_evals) unless the line search failed
    stop_reason: str
    line_search_failed: bool
    records: list[IterationRecord]
    J_trace: list[tuple[float, float, float]]  # (J, D, S) per accepted iterate
    final_grad_inf: float
    min_det: float  # min det grad y of the level's result; <= 0 means it folds
    seconds_setup: float
    seconds_optimize: float  # includes the two below
    seconds_distance: float  # in the NGF distance and its gradient
    seconds_curvature: float  # in the curvature term and its gradient


@dataclass
class RegistrationReport:
    levels: list[LevelReport] = field(default_factory=list)
    seconds_pyramid: float = 0.0
    seconds_total: float = 0.0
    final_grad_inf: float = 0.0


def _downsample_axis(values: np.ndarray, axis: int) -> np.ndarray:
    n = values.shape[axis]
    starts = np.arange(0, n, 2)
    sums = np.add.reduceat(values, starts, axis=axis)
    counts = np.minimum(starts + 2, n) - starts
    shape = [1] * values.ndim
    shape[axis] = len(starts)
    return sums / counts.astype(values.dtype).reshape(shape)


def downsample_image(img: Image3) -> Image3:
    """Halve each axis (ceil on odd dims) by block averaging; the world
    extent is preserved exactly, so odd dims get slightly wider cells."""
    values = img.values
    for np_axis in (0, 1, 2):
        if values.shape[np_axis] > 1:
            values = _downsample_axis(values, np_axis)
    g = img.grid
    new_dims = tuple(-(-d // 2) for d in g.dims)
    new_spacing = tuple(d * h / nd for d, h, nd in zip(g.dims, g.spacing, new_dims))
    new_origin = tuple(o - h / 2 + nh / 2 for o, h, nh in zip(g.origin, g.spacing, new_spacing))
    return Image3(Grid3(new_dims, new_spacing, new_origin), values)


def num_auto_levels(dims: tuple[int, int, int], coarsest_min_dim: int) -> int:
    levels = 1
    d = list(dims)
    while True:
        nxt = [-(-x // 2) for x in d]
        if min(nxt) < coarsest_min_dim:
            return levels
        d = nxt
        levels += 1


def build_pyramid(img: Image3, levels: int) -> list[Image3]:
    """Repeatedly downsampled images, coarsest first (level 0 = coarsest)."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    out = [img]
    for _ in range(levels - 1):
        nxt = downsample_image(out[-1])
        if nxt.grid.dims == out[-1].grid.dims:
            raise ValueError(f"cannot build {levels} levels from dims {img.grid.dims}")
        out.append(nxt)
    out.reverse()
    return out


def deformation_grid_for(image_grid: Grid3, grid_ratio: int) -> Grid3:
    """Deformation grid covering the same world domain at reduced resolution."""
    dims = []
    for n in image_grid.dims:
        if n == 1:
            dims.append(1)
        else:
            dims.append(max(2, -(-n // grid_ratio)))
    spacing = tuple(n * h / nd for n, h, nd in zip(image_grid.dims, image_grid.spacing, dims))
    origin = tuple(o - h / 2 + nh / 2
                   for o, h, nh in zip(image_grid.origin, image_grid.spacing, spacing))
    return Grid3(tuple(dims), spacing, origin)


def prolong_deformation(y: DeformationField, finer_def_grid: Grid3) -> DeformationField:
    """Interpolate the displacement onto a finer deformation grid (P from the
    coarse grid to the finer one); identity prolongs to identity bit-exactly."""
    u = apply_P(VectorField3(y.grid, y.displacement()), finer_def_grid).field
    return DeformationField(finer_def_grid, identity_field_array(finer_def_grid, y.field.dtype) + u)


def register(R: Image3, T: Image3, cfg: MultilevelConfig = MultilevelConfig()):
    """Full multilevel registration; returns (DeformationField, RegistrationReport)."""
    if R.grid != T.grid:
        raise GridError(
            "reference and template must share one grid; resample the template first"
        )
    t_start = time.perf_counter()
    dtype = precision_dtype(cfg.precision)
    levels = cfg.num_levels or num_auto_levels(R.grid.dims, cfg.coarsest_min_dim)

    t0 = time.perf_counter()
    pyr_R, pyr_T = run_tasks(
        [lambda: build_pyramid(R.astype(dtype), levels),
         lambda: build_pyramid(T.astype(dtype), levels)],
        cfg.workers,
    )
    report = RegistrationReport(seconds_pyramid=time.perf_counter() - t0)

    y: DeformationField | None = None
    for lvl in range(levels):
        t0 = time.perf_counter()
        Rl, Tl = pyr_R[lvl], pyr_T[lvl]
        image_grid = Rl.grid
        def_grid = deformation_grid_for(image_grid, cfg.grid_ratio)
        plan = build_gather_plan(def_grid, image_grid)
        obj = LevelObjective(
            template=Tl, ref=Rl, plan=plan, params=cfg.ngf, alpha=cfg.alpha,
            pt_variant=cfg.pt_variant, workers=cfg.workers,
        )
        if y is None:
            y = make_identity(def_grid, dtype)
        else:
            y = prolong_deformation(y, def_grid)
        setup_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        x, trace = lbfgs_minimize(obj, y.field.ravel(), cfg.lbfgs, cfg.stopping)
        y = DeformationField(def_grid, x.reshape((3,) + def_grid.shape))
        opt_s = time.perf_counter() - t0

        # the accepted trial is the last evaluation of its iteration and row 0
        # of the log is the start point
        accepted = [obj.log[k] for k in itertools.accumulate(r.ls_evals for r in trace.records)]
        final_g = trace.records[-1].grad_inf if trace.records else 0.0
        report.levels.append(LevelReport(
            level_index=lvl,
            image_dims=image_grid.dims,
            def_dims=def_grid.dims,
            iterations=trace.iterations,
            evaluations=len(obj.log),
            stop_reason=trace.stop_reason,
            line_search_failed=trace.line_search_failed,
            records=trace.records,
            J_trace=accepted,
            final_grad_inf=final_g,
            min_det=min_jacobian_det(y),
            seconds_setup=setup_s,
            seconds_optimize=opt_s,
            seconds_distance=obj.seconds_distance,
            seconds_curvature=obj.seconds_curvature,
        ))
        report.final_grad_inf = final_g

    report.seconds_total = time.perf_counter() - t_start
    return y, report

