"""Workload inputs, the set-up replica and one timed operation per workload.

Every input is a pure function of (workload, seed). On the register
workloads the registration problem is the fixed case for every seed: the
demo-02 48^3 case and the 64^3 acceptance case (criteria 6-8). The seed only
places the probe lattice that scores the result (seed 0: the regular
lattice). The reason is that the number of L-BFGS evaluations is chaotic in
the input. On the 64^3 case, ten inputs jittered by 0.5 mm / 2% took 42-65
finest-level evaluations, and even exact cube symmetries of the case took
139-157 evaluations in total. A register call's wall time would then spread
about 20% across seeds. On eval128 the seed draws the random volumes and the
field, which changes the data but not the work.

All library calls go through module attributes (``multilevel.register``,
``transfer.build_gather_plan``, ...) so the tracer in ``tracing.py`` sees
them when it replaces those attributes.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from ngfreg import evaluation, geometry, multilevel, ngf, objective, parallel, synthetic, transfer


PT_VARIANTS = ("gather", "scatter", "redblack")


@dataclass(frozen=True)
class Workload:
    name: str
    operation: str   # "register" or "evaluate"
    min_ops: int     # fewest operations a run makes, whatever --seconds says


# Why each workload is here: README.md, "Workloads".
WORKLOADS = {
    w.name: w for w in (
        Workload("reg48", "register", 1),
        # two calls at least, so the deformation checksums can be compared
        Workload("reg64", "register", 2),
        Workload("eval128", "evaluate", 1),
    )
}


@dataclass
class Case:
    """Generated inputs of one workload and seed."""

    name: str
    R: geometry.Image3
    T: geometry.Image3
    cfg: multilevel.MultilevelConfig
    levels: int
    probes: np.ndarray          # (n, 3) world points
    truth: np.ndarray           # known mapping at the probes
    voxel_mm: float
    y_eval: geometry.DeformationField | None = None  # fixed evaluation point (eval128)


def _bump_case(name, seed, dims, spacing, sigma, cfg):
    grid = geometry.Grid3((dims,) * 3, (spacing,) * 3, (0.0, 0.0, 0.0))
    center = tuple(o + e / 2 for o, e in zip(grid.origin, grid.extent))
    mapping = synthetic.gaussian_bump_mapping(center, sigma, (3.0, -2.0, 1.5))
    R, T = synthetic.make_registration_pair(grid, mapping)
    probes = synthetic.probe_lattice(grid, n_per_axis=5, margin=0.25)
    if seed:
        probes = probes + np.random.default_rng(seed).uniform(-0.5, 0.5, probes.shape) * spacing
    truth = np.stack(mapping(probes[:, 0], probes[:, 1], probes[:, 2]), axis=1)
    levels = multilevel.num_auto_levels(grid.dims, cfg.coarsest_min_dim)
    return Case(name, R, T, cfg, levels, probes, truth, spacing)


def make_case(name: str, seed: int) -> Case:
    if name == "reg48":
        cfg = multilevel.MultilevelConfig(coarsest_min_dim=12, alpha=1.0, workers=1)
        return _bump_case(name, seed, 48, 1.25, 14.0, cfg)
    if name == "reg64":
        return _bump_case(name, seed, 64, 1.0, 18.0, multilevel.MultilevelConfig(workers=2))
    if name == "eval128":
        grid = geometry.Grid3((128,) * 3, (1.0,) * 3, (0.0, 0.0, 0.0))
        cfg = multilevel.MultilevelConfig(workers=2)
        R = synthetic.smooth_random_volume(grid, seed=seed)
        T = synthetic.smooth_random_volume(grid, seed=seed + 1)
        def_grid = multilevel.deformation_grid_for(grid, cfg.grid_ratio)
        y = synthetic.smooth_random_field(def_grid, seed=seed + 2, amplitude_mm=2.0)
        probes = synthetic.probe_lattice(grid, n_per_axis=5, margin=0.25)
        # No registration runs here, so probe_err_mm is a fixed control: the
        # identity's error against the seed-0 field, whatever the seed. (The
        # seed-s field's own error spreads ~20% across seeds.)
        seed0 = synthetic.smooth_random_field(def_grid, seed=2, amplitude_mm=2.0)
        truth = evaluation.sample_deformation(seed0, probes)
        return Case(name, R, T, cfg, 1, probes, truth, 1.0, y_eval=y)
    raise ValueError(f"unknown workload {name!r}, expected one of {sorted(WORKLOADS)}")


def build_levels(case: Case, workers: int | None = None):
    """The set-up `register` does before each level's first evaluation: both
    pyramids, then per level the gather plan, the reference NGF terms and the
    prolonged start deformation. Returns [(LevelObjective, start field)]."""
    cfg = case.cfg
    workers = cfg.workers if workers is None else workers
    dtype = geometry.precision_dtype(cfg.precision)
    pyr_R, pyr_T = parallel.run_tasks(
        [lambda: multilevel.build_pyramid(case.R.astype(dtype), case.levels),
         lambda: multilevel.build_pyramid(case.T.astype(dtype), case.levels)],
        workers,
    )
    out = []
    y = None
    for lvl in range(case.levels):
        image_grid = pyr_R[lvl].grid
        def_grid = multilevel.deformation_grid_for(image_grid, cfg.grid_ratio)
        plan = transfer.build_gather_plan(def_grid, image_grid)
        ref = ngf.precompute_reference_terms(pyr_R[lvl], cfg.ngf, workers)
        obj = objective.LevelObjective(
            template=pyr_T[lvl], ref=ref, plan=plan, params=cfg.ngf, alpha=cfg.alpha,
            pt_variant=cfg.pt_variant, workers=workers,
        )
        if y is None:
            y = case.y_eval if case.y_eval is not None else geometry.make_identity(def_grid, dtype)
        else:
            y = multilevel.prolong_deformation(y, def_grid)
        out.append((obj, y))
    return out


def checksum(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def min_jacobian_det(y: geometry.DeformationField) -> float:
    """min det grad y over the deformation grid (central differences, one-sided
    at the faces); a value <= 0 means the mapping folds."""
    g = y.grid
    jac = np.empty(g.shape + (3, 3))
    for c in range(3):
        # np.gradient returns derivatives along numpy axes (z, y, x)
        parts = np.gradient(y.field[c], *(g.spacing[a] for a in (2, 1, 0)))
        for a in range(3):
            jac[..., c, a] = parts[2 - a]
    return float(np.linalg.det(jac).min())


def probe_error_mm(case: Case, y: geometry.DeformationField) -> float:
    """Mean probe-lattice distance between y and the known mapping. On
    eval128 the measured field is the identity."""
    if case.y_eval is not None:
        mapped = case.probes
    else:
        mapped = evaluation.sample_deformation(y, case.probes)
    return float(np.linalg.norm(mapped - case.truth, axis=1).mean())


@dataclass
class OpResult:
    seconds: float
    evals: int            # objective evaluations the operation made
    failure: str          # "" when the operation passed its checks
    checksum: str
    probe_err_mm: float
    min_det: float
    report: object = None  # RegistrationReport of a register call


def register_op(case: Case) -> OpResult:
    """One timed `register` call, then its checks: finite result, probe error
    within 0.5 voxel (criterion 6) and no fold."""
    t0 = time.perf_counter()
    try:
        y, report = multilevel.register(case.R, case.T, case.cfg)
    except Exception as exc:  # a raising call is a failed operation, not a crash
        return OpResult(time.perf_counter() - t0, 0, f"raised {exc!r}", "", float("nan"),
                        float("nan"))
    seconds = time.perf_counter() - t0
    evals = sum(1 + sum(r.ls_evals for r in lv.records) for lv in report.levels)
    if not np.all(np.isfinite(y.field)):
        return OpResult(seconds, evals, "non-finite deformation", "", float("nan"),
                        float("nan"), report)
    err = probe_error_mm(case, y)
    det = min_jacobian_det(y)
    failure = ""
    if err > 0.5 * case.voxel_mm:
        failure = f"probe error {err:.4f} mm > 0.5 voxel"
    elif det <= 0:
        failure = f"folded: min det {det:.4f}"
    return OpResult(seconds, evals, failure, checksum(y.field), err, det, report)


def evaluate_op(case: Case, obj, x: np.ndarray, ref_J: float, ref_grad: np.ndarray) -> OpResult:
    """One timed objective evaluation, checked bit for bit against a
    workers=1 evaluation of the same point."""
    t0 = time.perf_counter()
    try:
        J, g = obj(x)
    except Exception as exc:
        return OpResult(time.perf_counter() - t0, 1, f"raised {exc!r}", "", float("nan"),
                        float("nan"))
    seconds = time.perf_counter() - t0
    failure = ""
    if not np.isfinite(J):
        failure = "non-finite objective"
    elif J != ref_J or np.asarray(g).tobytes() != ref_grad.tobytes():
        failure = "differs from the workers=1 evaluation"
    return OpResult(seconds, 1, failure, checksum(np.asarray(g)), probe_error_mm(case, None),
                    float("nan"))
