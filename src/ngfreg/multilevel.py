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
    check_integer,
    check_kind,
    identity_field_array,
    make_identity,
    precision_dtype,
)
from .evaluation import min_jacobian_det
from .lbfgs import IterationRecord, lbfgs_minimize
from .ngf import NgfParams
from .objective import LevelObjective
from .transfer import _z_schedule, apply_P, build_gather_plan

__all__ = [
    "MultilevelConfig",
    "RegistrationReport",
    "build_pyramid",
    "deformation_grid_for",
    "downsample_image",
    "max_levels",
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
    max_iterations: int = 100              # L-BFGS iterations per level
    precision: str = "f64"
    workers: int = 1
    pt_variant: str = "gather"

    def __post_init__(self):
        if self.num_levels is not None:
            check_integer("num_levels", self.num_levels, 1)
        for name in ("coarsest_min_dim", "grid_ratio", "max_iterations", "workers"):
            check_integer(name, getattr(self, name), 1)
        check_kind("alpha", self.alpha)
        for name, kind in (("precision", str), ("pt_variant", str), ("ngf", NgfParams)):
            check_kind(name, getattr(self, name), kind, f"a {kind.__name__}")
        dtype = precision_dtype(self.precision)
        info = np.finfo(dtype)
        with np.errstate(all="ignore"):
            alpha = dtype(self.alpha)
        if not 0 < alpha <= info.max:  # the gradient adds alpha * grad S in the precision
            raise ValueError(
                f"alpha = {self.alpha:g} is out of range for precision {self.precision}: "
                f"it must be > 0 and finite, so at most {info.max:.3g}")
        for name, value in (("tau", self.ngf.tau), ("rho", self.ngf.rho)):
            # the sweep adds tau^2 and rho^2 in the precision: an overflow makes D
            # constant, an underflow the gradients non-finite
            with np.errstate(all="ignore"):
                square = dtype(value) ** 2
            if not info.tiny <= square <= info.max:
                raise ValueError(
                    f"{name} = {value:g} is out of range for precision {self.precision}: "
                    f"{name}^2 must be a finite normal number, so {name} in "
                    f"[{np.sqrt(info.tiny):.3g}, {np.sqrt(info.max):.3g}]")
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
    # setup, optimize, then LevelObjective.seconds: the parts of optimize in the
    # NGF distance and its gradient and in the curvature term and its gradient
    seconds: dict[str, float]


@dataclass
class RegistrationReport:
    levels: list[LevelReport] = field(default_factory=list)
    seconds_pyramid: float = 0.0
    seconds_total: float = 0.0
    final_grad_inf: float = 0.0


def _downsample_axis(values: np.ndarray, axis: int) -> np.ndarray:
    """Means of consecutive pairs of planes along axis, an odd last plane as
    it is; integer values are summed and returned in float64."""
    dtype = values.dtype if np.issubdtype(values.dtype, np.inexact) else np.dtype(np.float64)
    shape = list(values.shape)
    m = shape[axis] // 2
    shape[axis] -= m
    out = np.empty(shape, dtype)
    v, o = np.moveaxis(values, axis, 0), np.moveaxis(out, axis, 0)
    np.add(v[0:2 * m:2], v[1:2 * m:2], out=o[:m], dtype=dtype)
    o[:m] /= 2
    o[m:] = v[2 * m:]
    return out


def downsample_image(img: Image3) -> Image3:
    """Halve each axis (ceil on odd dims) by block averaging; the world
    extent is preserved exactly, so odd dims get slightly wider cells."""
    values = img.values
    for np_axis in (0, 1, 2):
        if values.shape[np_axis] > 1:
            values = _downsample_axis(values, np_axis)
    return Image3(img.grid.with_dims(tuple(-(-d // 2) for d in img.grid.dims)), values)


def num_auto_levels(dims: tuple[int, int, int], coarsest_min_dim: int) -> int:
    """The most levels whose coarsest image has at least coarsest_min_dim
    voxels along every axis: at least 1, at most max_levels(dims)."""
    levels, d = 1, list(dims)
    while levels < max_levels(dims):
        d = [-(-x // 2) for x in d]
        if min(d) < coarsest_min_dim:
            break
        levels += 1
    return levels


def max_levels(dims: tuple[int, int, int]) -> int:
    """The most levels a pyramid can have: halving stops at 1 x 1 x 1."""
    return (max(dims) - 1).bit_length() + 1


def build_pyramid(img: Image3, levels: int) -> list[Image3]:
    """Repeatedly downsampled images, coarsest first (level 0 = coarsest)."""
    most = max_levels(img.grid.dims)
    if not 1 <= levels <= most:
        raise ValueError(f"cannot build {levels} levels from dims {img.grid.dims}: "
                         f"they allow 1 to {most}")
    out = [img]
    for _ in range(levels - 1):
        out.append(downsample_image(out[-1]))
    out.reverse()
    return out


def deformation_grid_for(image_grid: Grid3, grid_ratio: int) -> Grid3:
    """Deformation grid covering the same world domain at reduced resolution."""
    return image_grid.with_dims(tuple(1 if n == 1 else max(2, -(-n // grid_ratio))
                                      for n in image_grid.dims))


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
    pyr_R = build_pyramid(R.astype(dtype), levels)
    pyr_T = build_pyramid(T.astype(dtype), levels)
    report = RegistrationReport(seconds_pyramid=time.perf_counter() - t0)

    y: DeformationField | None = None
    for lvl in range(levels):
        t0 = time.perf_counter()
        # the level's objective holds its images from here on, so they are
        # freed once the next level's objective replaces it
        Rl, Tl = pyr_R[lvl], pyr_T[lvl]
        pyr_R[lvl] = pyr_T[lvl] = None
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
        try:
            x, trace = lbfgs_minimize(obj, y.field.ravel(), cfg.max_iterations)
        finally:
            obj.close()
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
            seconds={"setup": setup_s, "optimize": opt_s, **obj.seconds},
        ))
        report.final_grad_inf = final_g

    report.seconds_total = time.perf_counter() - t_start
    return y, report

