"""Correctness gates that must pass before a workload is timed.

Run as a script by ``run.py`` in a process of its own, so the memory the
gates touch stays out of the workload's peak RSS:

    python3 perfbench/gates.py --workload reg64 --seed 0

Prints one line per gate and exits 1 when any gate fails.

* adjoint: <P x, z> = <x, P^T z> for all three P^T variants on each of the
  workload's level grid pairs, with the workload's worker count;
* oracle: every P^T variant equals the dense oracle on <= 8^3 pairs;
* agreement: ``ngfreg.benchmark.verify_variant_agreement`` on the finest dims;
* gradient: central-difference directional derivatives of ``LevelObjective``
  on a small case.
"""

from __future__ import annotations

import argparse
import sys

import benchenv  # noqa: F401  (pins BLAS threads before numpy loads; finds ngfreg)
import numpy as np
from ngfreg import benchmark, geometry, multilevel, ngf, objective, synthetic, transfer
from workloads import PT_VARIANTS, make_case

ADJOINT_TOL = 1e-12
ORACLE_TOL = 1e-13
GRADIENT_TOL = 1e-6


def adjoint_defect(def_grid, image_grid, workers, rng) -> float:
    """Worst |<Px,z> - <x,P^T z>| / (|<Px,z>| + 1) over the variants (criterion 1)."""
    plan = transfer.build_gather_plan(def_grid, image_grid)
    x = geometry.DeformationField(def_grid, rng.standard_normal((3,) + def_grid.shape))
    z = geometry.VectorField3(image_grid, rng.standard_normal((3,) + image_grid.shape))
    px = transfer.apply_P(x, image_grid, workers).field
    lhs = float(np.sum(px * z.field))
    rhs = [float(np.sum(x.field * transfer.apply_Pt(z, plan, v, workers).field))
           for v in PT_VARIANTS]
    return max(abs(lhs - r) / (abs(lhs) + 1) for r in rhs)


def oracle_deviation(spacing, workers, rng) -> float:
    worst = 0.0
    for dims, ratio in (((8, 8, 8), 4), ((7, 6, 5), 2), ((8, 5, 3), 3)):
        image_grid = geometry.Grid3(dims, spacing, (0.0, 0.0, 0.0))
        def_grid = multilevel.deformation_grid_for(image_grid, ratio)
        P = transfer.dense_P_oracle(def_grid, image_grid)
        plan = transfer.build_gather_plan(def_grid, image_grid)
        r = geometry.VectorField3(image_grid, rng.standard_normal((3,) + image_grid.shape))
        for v in PT_VARIANTS:
            out = transfer.apply_Pt(r, plan, v, workers).field
            for c in range(3):
                ref = (P.T @ r.field[c].ravel()).reshape(def_grid.shape)
                scale = max(1.0, float(np.abs(ref).max()))
                worst = max(worst, float(np.abs(out[c] - ref).max()) / scale)
    return worst


def gradient_error(cfg, rng) -> float:
    """Worst |central difference - g.d| / (|g| |d|) over the gradient direction
    and two random directions, on a small case whose warp samples stay inside
    the template hull and off the interpolation knots (criterion 3's setup)."""
    while True:
        di = tuple(int(v) for v in rng.integers(6, 10, 3))
        dd = tuple(int(v) for v in rng.integers(2, 6, 3))
        gi = geometry.Grid3(di, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        hd = tuple(n / m for n, m in zip(di, dd))
        gd = geometry.Grid3(dd, hd, tuple(-0.5 + s / 2 for s in hd))
        ident = geometry.identity_field_array(gd)
        center = np.array([o + e / 2 for o, e in zip(gi.origin, gi.extent)])[:, None, None, None]
        field = center + 0.78 * (ident - center) + rng.uniform(-0.12, 0.12, (3,) + gd.shape)
        t = transfer.apply_P(geometry.DeformationField(gd, field), gi).field
        if all(t[a].min() >= 0.07 and t[a].max() <= gi.dims[a] - 1.07 for a in range(3)) \
                and np.min(np.abs(t - np.round(t))) >= 0.02:
            break
    T = synthetic.smooth_random_volume(gi, seed=int(rng.integers(1 << 30)))
    R = synthetic.smooth_random_volume(gi, seed=int(rng.integers(1 << 30)))
    obj = objective.LevelObjective(
        template=T, ref=ngf.precompute_reference_terms(R, cfg.ngf),
        plan=transfer.build_gather_plan(gd, gi), params=cfg.ngf, alpha=cfg.alpha,
        pt_variant=cfg.pt_variant, workers=cfg.workers,
    )
    x0 = field.ravel()
    _, g = obj(x0)
    eps = 1e-6
    worst = 0.0
    for d in (g / np.linalg.norm(g), rng.standard_normal(x0.size), rng.standard_normal(x0.size)):
        fd = (obj(x0 + eps * d)[0] - obj(x0 - eps * d)[0]) / (2 * eps)
        worst = max(worst, abs(fd - float(g @ d)) / (np.linalg.norm(g) * np.linalg.norm(d)))
    return worst


def run_gates(workload: str, seed: int) -> bool:
    case = make_case(workload, seed)
    cfg = case.cfg
    rng = np.random.default_rng(seed)
    image_grids = [img.grid for img in multilevel.build_pyramid(case.R, case.levels)]
    ok = True

    def report(name, passed, detail):
        nonlocal ok
        ok &= passed
        print(f"gate {name}: {'PASS' if passed else 'FAIL'} {detail}", flush=True)

    def check(name, value, tol, detail):
        report(name, value <= tol, f"{value:.3e} (tol {tol:g}) {detail}")

    worst = max(adjoint_defect(multilevel.deformation_grid_for(g, cfg.grid_ratio), g,
                               cfg.workers, rng) for g in image_grids)
    check("adjoint", worst, ADJOINT_TOL,
          f"{len(image_grids)} level pairs x {len(PT_VARIANTS)} variants, workers={cfg.workers}")
    check("oracle", oracle_deviation(image_grids[-1].spacing, cfg.workers, rng), ORACLE_TOL,
          f"3 pairs <= 8^3 x {len(PT_VARIANTS)} variants")
    try:
        benchmark.verify_variant_agreement(image_grids[-1].dims, seed)
        report("agreement", True, f"verify_variant_agreement on dims {image_grids[-1].dims}")
    except benchmark.VariantDisagreement as exc:
        report("agreement", False, str(exc))
    check("gradient", gradient_error(cfg, rng), GRADIENT_TOL, "3 directions, small case")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    return 0 if run_gates(args.workload, args.seed) else 1


if __name__ == "__main__":
    sys.exit(main())
