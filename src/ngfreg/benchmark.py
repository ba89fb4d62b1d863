"""Desk-scale benchmark harness for the transfer variants and the pipeline.

Timings are only reported after the P^T variants have been verified to
agree on the same inputs: correctness precedes speed.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

import numpy as np

from .geometry import Grid3, precision_dtype
from .lbfgs import LbfgsConfig
from .multilevel import MultilevelConfig, deformation_grid_for, register
from .ngf import NgfParams, distance_and_gradient
from .synthetic import smooth_random_field, smooth_random_volume
from .transfer import PT_VARIANTS, apply_P, apply_Pt, build_gather_plan

__all__ = ["BenchmarkRecord", "VariantDisagreement", "run_benchmark", "format_table"]


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


def verify_variant_agreement(dims, seed: int = 0, rel_tol: float = 1e-12, *,
                             workers_list=(1,)) -> None:
    """Cross-check all P^T variants in double precision; raise on disagreement.

    scatter and redblack run at every count in ``workers_list`` and are
    compared with single-worker gather, so the threaded paths (scatter's
    lock included) meet the same tolerance.
    """
    image_grid = Grid3(dims, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    def_grid = deformation_grid_for(image_grid, 4)
    plan = build_gather_plan(def_grid, image_grid)
    rng = np.random.default_rng(seed)
    from .geometry import VectorField3

    r = VectorField3(image_grid, rng.standard_normal((3,) + image_grid.shape))
    ref = apply_Pt(r, plan, "gather").field
    scale = np.max(np.abs(ref)) + 1.0
    for w in workers_list:
        for name in ("scatter", "redblack"):
            diff = np.max(np.abs(apply_Pt(r, plan, name, w).field - ref))
            if diff > rel_tol * scale:
                raise VariantDisagreement(
                    f"P^T variant {name} with {w} workers deviates from gather "
                    f"by {diff:.3e} (tolerance {rel_tol * scale:.3e}) on dims {dims}"
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
    seed: int = 0,
    register_max_iter: int = 10,
) -> list[BenchmarkRecord]:
    """Time P, each P^T variant, one NGF evaluation and a short register call
    per precision and worker count, after the variant agreement gate.

    workers_list defaults to 1 and os.cpu_count(): more workers than cores
    would only measure oversubscription.
    """
    _check_reps(reps)
    if workers_list is None:
        workers_list = tuple(dict.fromkeys((1, os.cpu_count() or 1)))
    verify_variant_agreement(dims, seed, workers_list=workers_list)

    records = []
    dims = tuple(dims)
    for precision in precisions:
        dtype = precision_dtype(precision)
        image_grid = Grid3(dims, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        def_grid = deformation_grid_for(image_grid, 4)
        plan = build_gather_plan(def_grid, image_grid)
        R = smooth_random_volume(image_grid, seed=seed).astype(dtype)
        T = smooth_random_volume(image_grid, seed=seed + 1).astype(dtype)
        y = smooth_random_field(def_grid, seed=seed + 2, amplitude_mm=2.0)
        y.field = y.field.astype(dtype)
        params = NgfParams(tau=10.0, rho=10.0)

        for w in workers_list:
            yhat, tmin, tmed = _time(lambda: apply_P(y, image_grid, workers=w), reps)
            records.append(BenchmarkRecord("apply_P", "-", precision, w, dims, reps,
                                           tmin, tmed, _checksum(yhat.field)))
            for variant in variants:
                out, tmin, tmed = _time(lambda: apply_Pt(yhat, plan, variant, w), reps)
                records.append(BenchmarkRecord("apply_Pt", variant, precision, w, dims,
                                               reps, tmin, tmed, _checksum(out.field)))

            def dist():
                return distance_and_gradient(y, R, T, plan, params, "gather", workers=w)

            (D, g), tmin, tmed = _time(dist, reps)
            records.append(BenchmarkRecord("ngf_value_grad", "gather", precision, w, dims,
                                           reps, tmin, tmed, _checksum(g.field)))

            cfg = MultilevelConfig(
                precision=precision, workers=w,
                lbfgs=LbfgsConfig(max_iterations=register_max_iter),
            )
            (yfull, _), tmin, tmed = _time(lambda: register(R.astype(dtype), T.astype(dtype), cfg), reps)
            records.append(BenchmarkRecord("register", "gather", precision, w, dims,
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
