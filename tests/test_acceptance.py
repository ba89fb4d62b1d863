"""Acceptance gate for the registration engine.

Each test prints exactly one line

    CRITERION <n>: PASS|FAIL|SKIP -- <measured values and pinned tolerance>

directly to the terminal (bypassing capture) so the run log documents the
outcome of every criterion. Criterion 9 is a machine-dependent performance
property: its result is reported but never fails the suite. Criterion 11
needs external DIR-lab data and skips cleanly when NGFREG_DIRLAB_DIR is not
set.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from ngfreg.benchmark import format_table, run_benchmark
from ngfreg.cli import main as cli_main
from ngfreg.curvature import curvature_value_and_gradient
from ngfreg.evaluation import field_difference_stats, sample_deformation
from ngfreg.geometry import (
    DeformationField,
    Grid3,
    Image3,
    VectorField3,
    identity_field_array,
    make_identity,
)
from ngfreg.multilevel import MultilevelConfig, deformation_grid_for, register
from ngfreg.ngf import LevelSweep, NgfParams, _ratio, distance_and_gradient
from ngfreg.objective import LevelObjective
from ngfreg.parallel import slab_partition
from ngfreg.synthetic import (
    gaussian_bump_mapping,
    make_registration_pair,
    probe_lattice,
    smooth_random_volume,
)
from ngfreg.transfer import (
    apply_P,
    apply_Pt,
    build_gather_plan,
    dense_P_oracle,
)
from ngfreg.fileio import read_deformation, write_volume
from ngfreg.warp import image_gradient

from conftest import sweep_once


def _emit(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def _random_pair(rng, lo=1, hi=9):
    di = tuple(int(x) for x in rng.integers(lo, hi + 1, 3))
    dd = tuple(int(rng.integers(1, v + 1)) for v in di)
    h = tuple(float(x) for x in rng.uniform(0.5, 3.0, 3))
    o = tuple(float(x) for x in rng.uniform(-5, 5, 3))
    gi = Grid3(di, h, o)
    hd = tuple(n * s / m for n, s, m in zip(di, h, dd))
    od = tuple(oo - s / 2 + sd / 2 for oo, s, sd in zip(o, h, hd))
    return Grid3(dd, hd, od), gi


# ---------------------------------------------------------------- shared data

SYN_GRID = Grid3((64, 64, 64), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
SYN_CENTER = tuple(o + e / 2 for o, e in zip(SYN_GRID.origin, SYN_GRID.extent))
SYN_MAPPING = gaussian_bump_mapping(SYN_CENTER, sigma_mm=18.0,
                                    amplitude_mm=(3.0, -2.0, 1.5))


@pytest.fixture(scope="module")
def synthetic_case():
    """64^3 synthetic pair with known ground-truth mapping (1 mm voxels)."""
    R, T = make_registration_pair(SYN_GRID, SYN_MAPPING)
    pts = probe_lattice(SYN_GRID, n_per_axis=5, margin=0.25)
    truth = np.stack(SYN_MAPPING(pts[:, 0], pts[:, 1], pts[:, 2]), axis=1)
    return R, T, pts, truth


@pytest.fixture(scope="module")
def gather_registration(synthetic_case):
    """Default (f64, gather) registration of the synthetic case, shared by
    criteria 6, 8 and 10."""
    R, T, _, _ = synthetic_case
    t0 = time.perf_counter()
    y, report = register(R, T)  # all defaults
    return y, report, time.perf_counter() - t0


# ------------------------------------------------------------------ criteria

def test_criterion_1_adjoint_correctness(capsys):
    """100 random grid pairs, dims in [1..9]^3: |<Px,z> - <x,P^T z>| <=
    1e-12 * (|<Px,z>| + 1) for all three P^T variants."""
    rng = np.random.default_rng(101)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(100):
        gd, gi = _random_pair(rng)
        plan = build_gather_plan(gd, gi)
        x = DeformationField(gd, identity_field_array(gd)
                             + rng.standard_normal((3,) + gd.shape))
        z = VectorField3(gi, rng.standard_normal((3,) + gi.shape))
        lhs = float(np.sum(apply_P(x, gi).field * z.field))
        for variant in ("gather", "scatter", "redblack"):
            rhs = float(np.sum(x.field * apply_Pt(z, plan, variant).field))
            worst = max(worst, abs(lhs - rhs) / (abs(lhs) + 1))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10
    _emit(capsys, f"CRITERION 1: {'PASS' if ok else 'FAIL'} -- "
          f"worst relative adjoint defect {worst:.3e} (tol 1e-12), "
          f"100 pairs x 3 variants in {elapsed:.1f}s (limit 10s)")
    assert ok


def test_criterion_2_dense_oracle_equivalence(capsys):
    """Every P^T variant matches the dense oracle transpose elementwise
    within 1e-13 (relative to the oracle's max magnitude, floor 1): all
    1D axis pairs up to dim 8 exhaustively plus 150 random 3D pairs <= 8^3."""
    rng = np.random.default_rng(202)
    pairs = []
    for ni in range(1, 9):          # exhaustive per-axis coverage
        for nd in range(1, ni + 1):
            for axis in range(3):
                di = [2, 2, 2]
                dd = [1, 1, 1]
                di[axis], dd[axis] = ni, nd
                gi = Grid3(tuple(di), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
                hd = tuple(n * 1.0 / m for n, m in zip(di, dd))
                od = tuple(-0.5 + s / 2 for s in hd)
                pairs.append((Grid3(tuple(dd), hd, od), gi))
    for _ in range(150):            # random full-3D pairs
        pairs.append(_random_pair(rng, hi=8))

    worst = 0.0
    t0 = time.perf_counter()
    for gd, gi in pairs:
        P = dense_P_oracle(gd, gi)
        plan = build_gather_plan(gd, gi)
        r = VectorField3(gi, rng.standard_normal((3,) + gi.shape))
        for variant in ("gather", "scatter", "redblack"):
            out = apply_Pt(r, plan, variant)
            for c in range(3):
                ref = (P.T @ r.field[c].ravel()).reshape(gd.shape)
                scale = max(1.0, float(np.abs(ref).max()))
                worst = max(worst, float(np.abs(out.field[c] - ref).max()) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-13 and elapsed < 30
    _emit(capsys, f"CRITERION 2: {'PASS' if ok else 'FAIL'} -- "
          f"worst elementwise deviation {worst:.3e} (tol 1e-13) over "
          f"{len(pairs)} grid pairs x 3 variants in {elapsed:.1f}s (limit 30s)")
    assert ok


def test_criterion_3_gradient_correctness(capsys):
    """Analytic grad J (NGF + alpha * curvature) vs central finite
    differences on 10 random configurations, image <= 9^3, deformation
    grid <= 5^3. Relative error = max |diff| / max |grad|, tol 1e-6.

    Configurations are resampled until every image-grid sample point sits
    strictly inside the template hull and away from interpolation knots,
    where the objective is smooth (the trilinear warp is only piecewise
    differentiable)."""
    rng = np.random.default_rng(303)
    worst = 0.0
    configs = 0
    t0 = time.perf_counter()
    while configs < 10:
        di = tuple(int(x) for x in rng.integers(6, 10, 3))
        dd = tuple(int(x) for x in rng.integers(2, 6, 3))
        gi = Grid3(di, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        hd = tuple(n / m for n, m in zip(di, dd))
        gd = Grid3(dd, hd, tuple(-0.5 + s / 2 for s in hd))
        T = smooth_random_volume(gi, seed=int(rng.integers(1 << 30)))
        R = smooth_random_volume(gi, seed=int(rng.integers(1 << 30)))
        # contract toward the center and jitter so warp samples stay off
        # knots and strictly inside the hull
        ident = identity_field_array(gd)
        center = np.array([o + e / 2 for o, e in zip(gi.origin, gi.extent)])
        field = (center[:, None, None, None]
                 + 0.78 * (ident - center[:, None, None, None])
                 + rng.uniform(-0.12, 0.12, (3,) + gd.shape))
        y = DeformationField(gd, field)
        yhat = apply_P(y, gi)
        safe = True
        for a in range(3):
            t = yhat.field[a] - gi.origin[a]  # spacing 1: t is the fraction
            if t.min() < 0.07 or t.max() > gi.dims[a] - 1 - 0.07:
                safe = False
            if np.min(np.abs(t - np.round(t))) < 0.02:
                safe = False
        if not safe:
            continue
        configs += 1

        params = NgfParams(tau=10.0, rho=10.0)
        plan = build_gather_plan(gd, gi)
        obj = LevelObjective(template=T, ref=R, plan=plan, params=params,
                             alpha=1.0, pt_variant="gather", workers=1)
        x0 = field.ravel()
        _, grad = obj(x0)
        eps = 1e-6
        fd = np.empty_like(grad)
        for i in range(x0.size):
            xp = x0.copy(); xp[i] += eps
            xm = x0.copy(); xm[i] -= eps
            fd[i] = (obj(xp)[0] - obj(xm)[0]) / (2 * eps)
        rel = float(np.abs(fd - grad).max()) / max(float(np.abs(grad).max()), 1e-12)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60
    _emit(capsys, f"CRITERION 3: {'PASS' if ok else 'FAIL'} -- "
          f"worst relative gradient error {worst:.3e} (tol 1e-6) over 10 "
          f"configurations in {elapsed:.1f}s (limit 60s)")
    assert ok


def test_criterion_4_stationarity(capsys):
    """Registering a volume against itself (tau == rho): D == 0 within
    1e-12 at identity, final displacement max-norm <= 0.1 voxel.

    The registration uses grid_ratio=1 (deformation grid == image grid) so
    the identity really is a stationary point; with a coarser grid the
    clamp-to-edge transfer perturbs boundary cells and the exact-zero
    property cannot hold."""
    g = Grid3((24, 24, 24), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    T = smooth_random_volume(g, seed=17)
    params = NgfParams(tau=10.0, rho=10.0)
    t0 = time.perf_counter()
    D0, _ = sweep_once(make_identity(g), T, T, build_gather_plan(g, g), params)
    y, _ = register(T, T, MultilevelConfig(grid_ratio=1))
    elapsed = time.perf_counter() - t0
    disp = float(np.abs(y.displacement()).max())  # 1 mm voxels
    ok = abs(D0) <= 1e-12 and disp <= 0.1 and elapsed < 10
    _emit(capsys, f"CRITERION 4: {'PASS' if ok else 'FAIL'} -- "
          f"|D| at identity {abs(D0):.3e} (tol 1e-12), final displacement "
          f"max {disp:.3e} voxel (tol 0.1) in {elapsed:.1f}s (limit 10s)")
    assert ok


def test_criterion_5_null_space_invariants(capsys):
    """Curvature S == 0 (<= 1e-12) on 20 random affine displacement
    fields; NGF per-voxel terms in [0, 1] with 1e-12 slack on random images."""
    rng = np.random.default_rng(505)
    worst_curv = 0.0
    t0 = time.perf_counter()
    for _ in range(20):
        dims = tuple(int(x) for x in rng.integers(3, 9, 3))
        g = Grid3(dims, tuple(rng.uniform(0.5, 2.0, 3)), tuple(rng.uniform(-3, 3, 3)))
        A = rng.uniform(-0.2, 0.2, (3, 3)) + np.eye(3)
        b = rng.uniform(-2, 2, 3)
        ident = identity_field_array(g)
        field = np.einsum("cd,dkji->ckji", A, ident) + b[:, None, None, None]
        S, _ = curvature_value_and_gradient(DeformationField(g, field))
        worst_curv = max(worst_curv, abs(S))

    worst_lo, worst_hi = 0.0, 0.0
    for seed in range(5):
        g = Grid3((12, 11, 10), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        T = smooth_random_volume(g, seed=600 + seed)
        R = smooth_random_volume(g, seed=700 + seed)
        params = NgfParams(tau=float(rng.uniform(0.5, 20)),
                           rho=float(rng.uniform(0.5, 20)))
        # per-voxel r from the pointwise function distance_and_gradient calls
        r = _ratio(image_gradient(T).field, image_gradient(R).field, params)[0]
        terms = 1 - r * r
        worst_lo = max(worst_lo, float(-terms.min()))
        worst_hi = max(worst_hi, float(terms.max() - 1))
    elapsed = time.perf_counter() - t0
    ok = worst_curv <= 1e-12 and worst_lo <= 1e-12 and worst_hi <= 1e-12 and elapsed < 10
    _emit(capsys, f"CRITERION 5: {'PASS' if ok else 'FAIL'} -- "
          f"max |curvature| on affine {worst_curv:.3e} (tol 1e-12), NGF term "
          f"range violations {worst_lo:.3e}/{worst_hi:.3e} (tol 1e-12), "
          f"{elapsed:.1f}s (limit 10s)")
    assert ok


def test_criterion_6_synthetic_recovery(capsys, synthetic_case, gather_registration):
    """64^3 synthetic pair, Gaussian-bump displacement (max 3.9 voxels),
    default registration: mean probe-lattice error <= 0.5 voxel, with the
    pre-registration error >= 2 voxels."""
    _, _, pts, truth = synthetic_case
    y, report, seconds = gather_registration
    before = float(np.linalg.norm(truth - pts, axis=1).mean())
    after = float(np.linalg.norm(sample_deformation(y, pts) - truth, axis=1).mean())
    ok = before >= 2.0 and after <= 0.5 and seconds < 120
    _emit(capsys, f"CRITERION 6: {'PASS' if ok else 'FAIL'} -- "
          f"mean probe error before {before:.3f} voxel (>= 2 required), "
          f"after {after:.3f} voxel (tol 0.5), registration {seconds:.1f}s "
          f"(limit 120s), {len(report.levels)} levels")
    assert ok


def test_criterion_7_determinism_across_threads(capsys, synthetic_case,
                                                tmp_path_factory):
    """cli register (gather, f64) produces byte-identical deformation files
    for --threads 1, 2 and 8."""
    R, T, _, _ = synthetic_case
    d = tmp_path_factory.mktemp("det")
    rp, tp = str(d / "R.mha"), str(d / "T.mha")
    write_volume(R, rp)
    write_volume(T, tp)
    t0 = time.perf_counter()
    blobs = []
    for threads in (1, 2, 8):
        out = str(d / f"y_{threads}.mha")
        rc = cli_main(["register", "--reference", rp, "--template", tp,
                       "--out-deformation", out, "--threads", str(threads),
                       "--pt-variant", "gather", "--precision", "f64"])
        assert rc == 0
        blobs.append(open(out, "rb").read())
    elapsed = time.perf_counter() - t0
    identical = blobs[0] == blobs[1] == blobs[2]
    ok = identical and elapsed < 120
    _emit(capsys, f"CRITERION 7: {'PASS' if ok else 'FAIL'} -- deformation "
          f"files for threads 1/2/8 {'byte-identical' if identical else 'DIFFER'}, "
          f"{elapsed:.1f}s (limit 120s)")
    assert ok


def test_criterion_8_variant_agreement(capsys, synthetic_case, gather_registration):
    """Full registrations with scatter and red-black P^T differ from the
    gather result by <= 1e-6 voxel max-norm (1 mm voxels)."""
    R, T, _, _ = synthetic_case
    y_gather, _, _ = gather_registration
    t0 = time.perf_counter()
    worst = 0.0
    for variant in ("scatter", "redblack"):
        y, _ = register(R, T, MultilevelConfig(pt_variant=variant))
        worst = max(worst, float(np.abs(y.field - y_gather.field).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 180
    _emit(capsys, f"CRITERION 8: {'PASS' if ok else 'FAIL'} -- max deviation "
          f"from gather {worst:.3e} voxel (tol 1e-6) in {elapsed:.1f}s "
          f"(limit 180s)")
    assert ok


def test_criterion_9_parallel_throughput(capsys, synthetic_case, forks):
    """Soft performance property: objective-evaluation throughput with one
    worker per core (os.cpu_count()) >= 2.5x the 1-worker throughput on the
    64^3 case (gather pipeline), timed as register runs it: the calls of each
    worker count share one LevelSweep, so only the first forks, and the
    1-worker calls run on the caller. The result is reported but a miss does
    not fail the suite: with fewer than three cores the ratio cannot reach
    2.5, and the P^T z schedule and the fork hand-offs stay serial. A
    benchmark table, at 1 worker and one per core, is emitted either way."""
    R, T, _, _ = synthetic_case
    params = NgfParams()
    def_grid = deformation_grid_for(SYN_GRID, 4)
    plan = build_gather_plan(def_grid, SYN_GRID)
    y = make_identity(def_grid)

    def throughput(workers):
        sweep = LevelSweep(R, T, plan, params, "gather", workers)
        times = []
        try:
            for _ in range(3):
                t0 = time.perf_counter()
                distance_and_gradient(y, sweep)
                times.append(time.perf_counter() - t0)
        finally:
            sweep.close()
        return 1.0 / min(times)

    cores = os.cpu_count() or 1
    thr1 = throughput(1)
    ratio = throughput(cores) / thr1
    nz, ny, nx = SYN_GRID.shape
    assert len(forks) == len(slab_partition(nz, ny * nx, cores)) - 1  # at the first call only

    records = run_benchmark(dims=(32, 32, 32), precisions=("f64",), reps=3,
                            register_max_iter=3)
    table = format_table(records)
    status = "PASS" if ratio >= 2.5 else "FAIL (soft, not fatal)"
    _emit(capsys, f"CRITERION 9: {status} -- {cores}-worker / 1-worker objective "
          f"throughput ratio {ratio:.2f} (target 2.5); benchmark table "
          f"({len(records)} rows) follows")
    _emit(capsys, table)
    # soft criterion: the harness must run, the ratio is only reported
    assert len(records) > 0


def test_criterion_10_precision_divergence(capsys, synthetic_case,
                                           gather_registration):
    """f32 and f64 registrations of the synthetic case both complete;
    field_difference_stats between them is emitted (qualitative check,
    no numeric bound)."""
    R, T, _, _ = synthetic_case
    y64, _, _ = gather_registration
    y32, _ = register(R, T, MultilevelConfig(precision="f32"))
    y32_f64 = DeformationField(y32.grid, y32.field.astype(np.float64))
    dmax, dmean, _ = field_difference_stats(y32_f64, y64)
    ok = np.isfinite(dmax) and np.isfinite(dmean)
    _emit(capsys, f"CRITERION 10: {'PASS' if ok else 'FAIL'} -- f32 vs f64 "
          f"field difference max {dmax:.4f} mm, mean {dmean:.4f} mm "
          f"(emitted, no bound asserted)")
    assert ok


def test_criterion_11_dirlab_landmark_error(capsys, tmp_path):
    """Optional, data-gated: DIR-lab 4DCT case 1. Set NGFREG_DIRLAB_DIR to a
    directory containing case1_T00.mha, case1_T50.mha, case1_T00_lm.txt and
    case1_T50_lm.txt (landmarks in 1-based voxel indices). Registration
    parameters can be tuned via NGFREG_DIRLAB_ALPHA/TAU/RHO. Requires mean
    landmark error <= 1.5 mm."""
    data_dir = os.environ.get("NGFREG_DIRLAB_DIR")
    if not data_dir:
        _emit(capsys, "CRITERION 11: SKIP -- NGFREG_DIRLAB_DIR not set "
              "(external DIR-lab data required)")
        pytest.skip("DIR-lab data not available")
    ref_vol = os.path.join(data_dir, "case1_T00.mha")
    tmpl_vol = os.path.join(data_dir, "case1_T50.mha")
    lm_ref = os.path.join(data_dir, "case1_T00_lm.txt")
    lm_tmpl = os.path.join(data_dir, "case1_T50_lm.txt")
    for p in (ref_vol, tmpl_vol, lm_ref, lm_tmpl):
        if not os.path.exists(p):
            _emit(capsys, f"CRITERION 11: SKIP -- missing {p}")
            pytest.skip(f"missing {p}")

    alpha = os.environ.get("NGFREG_DIRLAB_ALPHA", "1.0")
    tau = os.environ.get("NGFREG_DIRLAB_TAU", "10.0")
    rho = os.environ.get("NGFREG_DIRLAB_RHO", "10.0")
    ypath = str(tmp_path / "case1_def.mha")
    rc = cli_main(["register", "--reference", ref_vol, "--template", tmpl_vol,
                   "--out-deformation", ypath, "--alpha", alpha,
                   "--tau", tau, "--rho", rho, "--threads", "8"])
    assert rc == 0
    per = str(tmp_path / "per.txt")
    rc = cli_main(["evaluate", "--deformation", ypath,
                   "--landmarks-ref", lm_ref, "--landmarks-template", lm_tmpl,
                   "--image-grid-from", ref_vol, "--frame", "index1",
                   "--out-per-landmark", per])
    assert rc == 0
    y = read_deformation(ypath)
    from ngfreg.evaluation import landmark_error
    from ngfreg.fileio import read_landmarks, read_volume

    donor = read_volume(ref_vol)
    res = landmark_error(y, read_landmarks(lm_ref, "index1", donor.grid),
                         read_landmarks(lm_tmpl, "index1", donor.grid), donor.grid)
    ok = res.mean_mm <= 1.5
    _emit(capsys, f"CRITERION 11: {'PASS' if ok else 'FAIL'} -- mean landmark "
          f"error {res.mean_mm:.3f} +/- {res.stddev_mm:.3f} mm (tol 1.5 mm)")
    assert ok
