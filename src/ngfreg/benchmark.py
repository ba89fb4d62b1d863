"""Desk-scale benchmark harness for the transfer variants and the pipeline.

Timings are only reported after the P^T variants have been verified to
agree on the same inputs: correctness precedes speed.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .geometry import Grid3, VectorField3, precision_dtype
from .multilevel import MultilevelConfig, deformation_grid_for, register
from .ngf import LevelSweep, distance_and_gradient
from .synthetic import smooth_random_field, smooth_random_volume
from .transfer import PT_VARIANTS, apply_P, apply_Pt, build_gather_plan

__all__ = ["BenchmarkRecord", "VariantDisagreement", "run_benchmark", "format_table"]

SEED = 0          # run_benchmark's R, T and y draw SEED, SEED + 1 and SEED + 2
REL_TOL = 1e-12   # P^T variant agreement, relative to the largest gather entry


class VariantDisagreement(RuntimeError):
    """P^T variants disagreed beyond tolerance; timings are withheld."""


@dataclass
class BenchmarkRecord:
    operation: str
    variant: str
    precision: str
    workers: int
    dims: tuple[int, int, int]
    repetitions: int
    min_seconds: float
    median_seconds: float
    checksum: str


def _checksum(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def _time(fn, reps: int):
    times = []
    out = None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, min(times), float(np.median(times))


def verify_variant_agreement(dims, seed: int = 0) -> None:
    """Cross-check all P^T variants in double precision against gather, on
    the default config's deformation grid; raise on disagreement."""
    image_grid = Grid3(dims, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    def_grid = deformation_grid_for(image_grid, MultilevelConfig().grid_ratio)
    plan = build_gather_plan(def_grid, image_grid)
    rng = np.random.default_rng(seed)
    r = VectorField3(image_grid, rng.standard_normal((3,) + image_grid.shape))
    ref = apply_Pt(r, plan, "gather").field
    scale = np.max(np.abs(ref)) + 1.0
    for name in ("scatter", "redblack"):
        diff = np.max(np.abs(apply_Pt(r, plan, name).field - ref))
        if diff > REL_TOL * scale:
            raise VariantDisagreement(
                f"P^T variant {name} deviates from gather by {diff:.3e} "
                f"(tolerance {REL_TOL * scale:.3e}) on dims {dims}"
            )


def _check_reps(reps: int) -> None:
    if reps < 3:
        raise ValueError(f"repetitions must be >= 3, got {reps}")


def run_benchmark(
    dims=(64, 64, 64),
    workers_list=None,
    precisions=("f64",),
    variants=PT_VARIANTS,
    reps: int = 3,
    register_max_iter: int = 10,
) -> list[BenchmarkRecord]:
    """Time P and each P^T variant per precision, which run on the caller
    (recorded at 1 worker), and one NGF evaluation and a short register call
    per precision and worker count, after the variant agreement gate. Both
    run one MultilevelConfig, so the NGF evaluation times what each level of
    register evaluates. The NGF evaluations share one LevelSweep, as a level
    of register does, so only the first of them forks; it is closed after them.

    workers_list defaults to 1 and os.cpu_count(): more workers than cores
    would only measure oversubscription.
    """
    _check_reps(reps)
    if workers_list is None:
        workers_list = tuple(dict.fromkeys((1, os.cpu_count() or 1)))
    verify_variant_agreement(dims, SEED)

    records = []
    dims = tuple(dims)
    image_grid = Grid3(dims, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    for precision in precisions:
        base = MultilevelConfig(precision=precision, max_iterations=register_max_iter)
        dtype = precision_dtype(precision)
        def_grid = deformation_grid_for(image_grid, base.grid_ratio)
        plan = build_gather_plan(def_grid, image_grid)
        R = smooth_random_volume(image_grid, seed=SEED).astype(dtype)
        T = smooth_random_volume(image_grid, seed=SEED + 1).astype(dtype)
        y = smooth_random_field(def_grid, seed=SEED + 2, amplitude_mm=2.0)
        y.field = y.field.astype(dtype)

        yhat, tmin, tmed = _time(lambda: apply_P(y, image_grid), reps)
        records.append(BenchmarkRecord("apply_P", "-", precision, 1, dims, reps,
                                       tmin, tmed, _checksum(yhat.field)))
        for variant in variants:
            out, tmin, tmed = _time(lambda: apply_Pt(yhat, plan, variant), reps)
            records.append(BenchmarkRecord("apply_Pt", variant, precision, 1, dims,
                                           reps, tmin, tmed, _checksum(out.field)))

        for w in workers_list:
            cfg = replace(base, workers=w)
            # as register runs it: one LevelSweep across the calls
            sweep = LevelSweep(R, T, plan, cfg.ngf, cfg.pt_variant, cfg.workers)
            try:
                (D, g), tmin, tmed = _time(lambda: distance_and_gradient(y, sweep), reps)
            finally:
                sweep.close()
            records.append(BenchmarkRecord("ngf_value_grad", cfg.pt_variant, precision, w, dims,
                                           reps, tmin, tmed, _checksum(g.field)))

            (yfull, _), tmin, tmed = _time(lambda: register(R, T, cfg), reps)
            records.append(BenchmarkRecord("register", cfg.pt_variant, precision, w, dims,
                                           reps, tmin, tmed, _checksum(yfull.field)))
    return records


def format_table(records: list[BenchmarkRecord]) -> str:
    header = "operation\tvariant\tprecision\tworkers\tdims\treps\tmin_s\tmedian_s\tchecksum"
    lines = [header]
    for r in records:
        lines.append(
            f"{r.operation}\t{r.variant}\t{r.precision}\t{r.workers}\t"
            f"{r.dims[0]}x{r.dims[1]}x{r.dims[2]}\t{r.repetitions}\t"
            f"{r.min_seconds:.6f}\t{r.median_seconds:.6f}\t{r.checksum}"
        )
    return "\n".join(lines)
