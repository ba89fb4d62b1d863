import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ngfreg

from ngfreg import parallel
from ngfreg.geometry import DeformationField, Grid3, GridError, Image3, VectorField3, make_identity
from ngfreg.objective import LevelObjective
from ngfreg.ngf import LevelSweep, NgfParams, _ratio, distance_and_gradient
from ngfreg.synthetic import make_volume, smooth_random_volume
from ngfreg.transfer import PT_VARIANTS, apply_P, apply_Pt, build_gather_plan
from ngfreg.warp import (_to_index, _trilinear_into, image_gradient,
                         image_gradient_apply_transpose)

from conftest import (DEFAULT_CHUNK, assert_reaped, coarse_plane_grid_pairs,
                      def_grid_over, default_chunks, sweep_once)


def _grid(dims, spacing=(1, 1, 1), origin=(0, 0, 0)):
    return Grid3(dims, spacing, origin)


def _ramps(g):
    x = g.axis_centers(0)[None, None, :]
    y = g.axis_centers(1)[None, :, None]
    T = Image3(g, x + np.zeros(g.shape))
    R = Image3(g, y + np.zeros(g.shape))
    return T, R


def _distance_at_identity(T, R, params):
    """D from distance_and_gradient at the identity, deformation grid = image grid."""
    g = T.grid
    D, _ = sweep_once(make_identity(g), R, T, build_gather_plan(g, g), params)
    return D


def test_params_validation():
    with pytest.raises(ValueError):
        NgfParams(tau=0.0)
    with pytest.raises(ValueError):
        NgfParams(rho=-1.0)


def test_value_on_orthogonal_ramps():
    # T = x and R = y have exact unit gradients (1,0,0) and (0,1,0); with
    # tau = rho = 0.1 each voxel contributes 1 - (0.01/1.01)^2.
    g = _grid((6, 6, 6))
    T, R = _ramps(g)
    params = NgfParams(tau=0.1, rho=0.1)
    h_bar = g.cell_volume
    per_voxel = 1.0 - (0.01 / 1.01) ** 2
    expected = h_bar / 2 * per_voxel * g.num_points
    assert abs(_distance_at_identity(T, R, params) - expected) < 1e-10 * expected


def test_matched_images_give_zero_distance():
    # with tau == rho and T == R, r_i == 1 exactly, so every term vanishes
    g = _grid((8, 7, 6), (1.1, 0.9, 1.2))
    T = smooth_random_volume(g, seed=21)
    params = NgfParams(tau=5.0, rho=5.0)
    assert abs(_distance_at_identity(T, T, params)) < 1e-12


def test_matched_images_identity_is_stationary():
    g = _grid((8, 8, 8))
    T = smooth_random_volume(g, seed=22)
    params = NgfParams(tau=5.0, rho=5.0)
    plan = build_gather_plan(g, g)
    _, grad = sweep_once(make_identity(g), T, T, plan, params)
    assert np.max(np.abs(grad.field)) < 1e-12


def test_intensity_scale_invariance_with_scaled_parameters():
    # scaling both images by c and (tau, rho) by c leaves every r_i unchanged
    g = _grid((6, 6, 6), (1.3, 1.0, 0.8))
    T = smooth_random_volume(g, seed=31)
    R = smooth_random_volume(g, seed=32)
    base = _distance_at_identity(T, R, NgfParams(10.0, 10.0))
    c = 7.5
    Tc = Image3(g, c * T.values)
    Rc = Image3(g, c * R.values)
    scaled = _distance_at_identity(Tc, Rc, NgfParams(10.0 * c, 10.0 * c))
    assert abs(base - scaled) < 1e-9 * (abs(base) + 1)


def test_distance_bounded_by_domain_volume():
    # every term lies in [0, 1], so 0 <= D <= (h_bar/2) * N
    g = _grid((7, 6, 5), (1.0, 1.4, 0.9))
    T = smooth_random_volume(g, seed=41)
    R = smooth_random_volume(g, seed=42)
    D = _distance_at_identity(T, R, NgfParams(1.0, 1.0))
    assert 0.0 <= D <= g.cell_volume / 2 * g.num_points + 1e-12


def _extended_template(image_grid, pad=2):
    """Template covering the image grid plus a margin, so test perturbations
    never touch the Dirichlet boundary of the hull."""
    dims = tuple(n + 2 * pad for n in image_grid.dims)
    origin = tuple(o - pad * s for o, s in zip(image_grid.origin, image_grid.spacing))
    return make_volume(Grid3(dims, image_grid.spacing, origin))


def test_gradient_matches_fd(rng):
    gi = _grid((10, 9, 8), (1.0, 1.1, 0.9))
    gd = Grid3((5, 3, 4),
               tuple(n * s / m for n, s, m in zip(gi.dims, gi.spacing, (5, 3, 4))),
               tuple(o - s / 2 + n * s / m / 2
                     for o, s, n, m in zip(gi.origin, gi.spacing, gi.dims, (5, 3, 4))))
    T = _extended_template(gi)
    R = make_volume(gi)
    params = NgfParams(10.0, 10.0)
    plan = build_gather_plan(gd, gi)
    # offsets of ~0.37 cells keep the image-grid samples off trilinear knots
    field = make_identity(gd).field + 0.37 + 0.1 * rng.standard_normal((3,) + gd.shape)
    sweep = LevelSweep(R, T, plan, params, "gather", 1)
    _, grad = distance_and_gradient(DeformationField(gd, field), sweep)
    gnorm = max(float(np.max(np.abs(grad.field))), 1.0)

    eps = 1e-6
    for (c, k, j, i) in [(0, 1, 1, 2), (1, 3, 0, 4), (2, 2, 2, 0), (0, 0, 2, 1)]:
        fp = field.copy()
        fp[c, k, j, i] += eps
        fm = field.copy()
        fm[c, k, j, i] -= eps
        Dp, _ = distance_and_gradient(DeformationField(gd, fp), sweep)
        Dm, _ = distance_and_gradient(DeformationField(gd, fm), sweep)
        fd = (Dp - Dm) / (2 * eps)
        assert abs(fd - grad.field[c, k, j, i]) < 2e-5 * gnorm


def test_variants_and_workers_agree(rng, one_plane_chunks, forks):
    gi = _grid((9, 8, 7))
    gd = Grid3((3, 4, 2),
               tuple(n * s / m for n, s, m in zip(gi.dims, gi.spacing, (3, 4, 2))),
               tuple(o - s / 2 + n * s / m / 2
                     for o, s, n, m in zip(gi.origin, gi.spacing, gi.dims, (3, 4, 2))))
    T = _extended_template(gi)
    R = make_volume(gi)
    params = NgfParams()
    plan = build_gather_plan(gd, gi)
    y = DeformationField(gd, make_identity(gd).field
                         + 0.5 * rng.standard_normal((3,) + gd.shape))
    with default_chunks():  # the whole grid in one chunk
        D0, g0 = sweep_once(y, R, T, plan, params, "gather")
    scale = np.abs(g0.field).max() + 1e-30
    for variant in ("gather", "scatter", "redblack"):
        D1, g1 = sweep_once(y, R, T, plan, params, variant)
        D4, g4 = sweep_once(y, R, T, plan, params, variant, workers=4)
        assert D1 == D4 == D0
        assert np.array_equal(g4.field, g1.field)
        assert np.max(np.abs(g1.field - g0.field)) <= 1e-12 * scale
        if variant == "gather":
            assert np.array_equal(g1.field, g0.field)
    assert max(one_plane_chunks) >= 2
    assert len(forks) == 3 * (max(one_plane_chunks) - 1)  # forked once per variant


def test_bytes_identical_across_workers_and_chunks(rng, monkeypatch, forks):
    # 29 z-planes of 41 x 37: the slabs of 1, 2 and 3 workers end inside the
    # kernel's chunks of z-planes, at the module's chunk size and at 7 and 1
    # planes; 3 z-planes: every slab and chunk touches a boundary row of G^T.
    # Against the whole grid in one chunk, on these and on the grid pairs
    # whose chunks read coarse z-planes in other patterns
    pairs = [(def_grid_over(gi, def_dims), gi) for gi, def_dims in
             ((_grid((37, 41, 29)), (10, 11, 8)), (_grid((37, 41, 3)), (10, 11, 2)))]
    for gd, gi in pairs + coarse_plane_grid_pairs():
        plane = gi.dims[0] * gi.dims[1]
        chunks = (DEFAULT_CHUNK, 7 * plane, plane)
        T = _extended_template(gi)
        R = make_volume(gi)
        params = NgfParams()
        plan = build_gather_plan(gd, gi)
        y = DeformationField(gd, make_identity(gd).field
                             + 1.5 * rng.standard_normal((3,) + gd.shape))
        monkeypatch.setattr(parallel, "_CHUNK_VOXELS", gi.num_points)
        D0, g0 = sweep_once(y, R, T, plan, params)
        for chunk in chunks:
            monkeypatch.setattr(parallel, "_CHUNK_VOXELS", chunk)  # before the sweep fixes it
            for workers in (1, 2, 3):
                D, g = sweep_once(y, R, T, plan, params, workers=workers)
                assert D == D0
                assert g.field.tobytes() == g0.field.tobytes()
    assert forks  # the slabs after the first ran in child processes


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("workers", [1, 2])
def test_nonfinite_intermediate_is_floating_point_error(workers, request):
    # planes of +-3e38 are finite in f32, but their differences overflow, in
    # the template or in the reference. One worker runs the grid whole, in one
    # chunk; more run one-plane chunks so that the grid splits into slabs, and
    # then a slab reduces the overflowed partials of its inner planes (0 * inf)
    # before D is checked
    slab_counts = request.getfixturevalue("one_plane_chunks") if workers > 1 else None
    g = _grid((8, 7, 6))
    sign = np.where(np.arange(6) % 2 == 0, 1.0, -1.0)[:, None, None]
    huge = Image3(g, (3e38 * sign + np.zeros(g.shape)).astype(np.float32))
    smooth = smooth_random_volume(g, seed=5).astype(np.float32)
    params = NgfParams()
    plan = build_gather_plan(g, g)
    for T, R, match in ((huge, smooth, "template gradient"), (smooth, huge, "reference gradient")):
        with pytest.raises(FloatingPointError, match=match):
            sweep_once(make_identity(g, np.float32), R, T, plan, params, workers=workers)
    # template planes 1e37 apart at a z-spacing of 0.01: the samples are finite
    # but their z-partials overflow, while the image and the deformation grid
    # have one z-plane, where every z-gradient is 0, so D stays finite
    gt = _grid((8, 7, 4), (1, 1, 0.01))
    T = Image3(gt, (5e36 * np.where(np.arange(4) % 2 == 0, 1.0, -1.0)[:, None, None]
                    + np.zeros(gt.shape)).astype(np.float32))
    gi = _grid((8, 7, 1), (1, 1, 0.01), (0, 0, 0.015))
    R = smooth_random_volume(gi, seed=5).astype(np.float32)
    with pytest.raises(FloatingPointError, match="template gradient"):
        sweep_once(make_identity(gi, np.float32), R, T, build_gather_plan(gi, gi), params,
                   workers=workers)
    if slab_counts is not None:
        assert max(slab_counts) == workers


def test_float32_gradients_near_1e10_per_mm_give_a_finite_distance():
    # |grad T|^2 |grad R|^2 passes the float32 range at some voxels, where the
    # product of the two smoothed squared norms would overflow: the norms'
    # two roots keep D finite in f32, and it matches D in f64 on the same images
    g = _grid((8, 7, 6), (1.0, 1.1, 0.9))
    T, R = (Image3(g, (5e7 * smooth_random_volume(g, seed=s).values).astype(np.float32))
            for s in (5, 6))
    gT, gR = (image_gradient(img.astype(np.float64)).field for img in (T, R))
    assert np.sqrt(np.sum(gT**2, axis=0)).max() > 1e10
    assert (np.sum(gT**2, axis=0) * np.sum(gR**2, axis=0)).max() > np.finfo(np.float32).max
    plan, params = build_gather_plan(g, g), NgfParams()
    D32, g32 = sweep_once(make_identity(g, np.float32), R, T, plan, params)
    D64, _ = sweep_once(make_identity(g), R.astype(np.float64), T.astype(np.float64), plan,
                        params)
    assert np.isfinite(D32) and np.isfinite(g32.field).all()
    assert abs(D32 - D64) <= 1e-5 * abs(D64)


def test_reference_off_the_plan_grid_is_grid_error():
    g = _grid((6, 5, 4))
    T = smooth_random_volume(g, seed=6)
    R = smooth_random_volume(_grid((6, 5, 4), spacing=(1.5, 1, 1)), seed=7)
    with pytest.raises(GridError, match="reference grid"):
        LevelSweep(R, T, build_gather_plan(g, g), NgfParams(), "gather", 1)


def test_deformation_off_the_plan_grid_is_grid_error_at_the_call():
    g = _grid((6, 5, 4))
    sweep = LevelSweep(smooth_random_volume(g, seed=7), smooth_random_volume(g, seed=6),
                       build_gather_plan(def_grid_over(g, (3, 3, 2)), g), NgfParams(),
                       "gather", 1)
    with pytest.raises(GridError, match="deformation grid"):
        distance_and_gradient(make_identity(def_grid_over(g, (3, 3, 3))), sweep)


def test_a_field_of_another_dtype_is_value_error_and_leaves_the_sweep_usable(
        rng, one_plane_chunks, forks):
    # the level's buffers have the images' dtype: an f32 field for an f64
    # level is rejected before any slab runs, and forks nothing new
    gi = _grid((9, 8, 7))
    gd = def_grid_over(gi, (3, 4, 2))
    T, R = _extended_template(gi), make_volume(gi)
    plan = build_gather_plan(gd, gi)
    y = DeformationField(gd, make_identity(gd).field + 0.5 * rng.standard_normal((3,) + gd.shape))
    sweep = LevelSweep(R, T, plan, NgfParams(), "gather", 2)
    try:
        D, g = distance_and_gradient(y, sweep)
        assert len(forks) == 1
        with pytest.raises(ValueError, match="float32.*float64"):
            distance_and_gradient(DeformationField(gd, y.field.astype(np.float32)), sweep)
        D2, g2 = distance_and_gradient(y, sweep)
        assert len(forks) == 1
    finally:
        sweep.close()
    assert D2 == D and g2.field.tobytes() == g.field.tobytes()


@pytest.mark.parametrize("ref_dtype, template_dtype", [(np.float64, np.float32),
                                                       (np.float32, np.float64),
                                                       (np.float64, np.int16),
                                                       (np.int16, np.int16)])
def test_images_of_two_dtypes_or_integers_are_value_error(ref_dtype, template_dtype):
    g = _grid((6, 5, 4))
    R = smooth_random_volume(g, seed=7).astype(ref_dtype)
    T = smooth_random_volume(g, seed=6).astype(template_dtype)
    with pytest.raises(ValueError, match="float32 or float64"):
        LevelSweep(R, T, build_gather_plan(g, g), NgfParams(), "gather", 1)


def _layered_chain(y, R, T, plan, params, variant):
    """D and its gradient from the layers composed on whole image-grid arrays:
    P of y in the template's index coordinates, the trilinear kernel with
    partials there, G, r and the coefficients of q (_ratio), G^T, the
    multiply, P^T."""
    g = plan.image_grid
    index = VectorField3(y.grid, _to_index(y.field, T.grid, np.empty_like(y.field)))
    yhat = apply_P(index, g).field
    dtype = yhat.dtype
    warped = np.empty(g.shape, dtype)
    partials = np.empty((3,) + g.shape, dtype)
    outside = _trilinear_into(T.values.astype(dtype).ravel(), T.grid, yhat, warped, partials,
                              parallel.Workspace())
    np.copyto(warped, 0, where=outside)
    gT = image_gradient(Image3(g, warped)).field
    gR = image_gradient(R).field
    r, a, b, _ = _ratio(gT, gR, params, g.cell_volume)
    D = g.cell_volume / 2 * float(np.sum(1 - r * r))
    q = a * gR - b * gT
    s = image_gradient_apply_transpose(VectorField3(g, q), g)
    return D, apply_Pt(VectorField3(g, partials * s), plan, variant).field


@pytest.mark.parametrize("dims, def_dims", [((9, 8, 1), (3, 3, 1)), ((9, 8, 2), (3, 3, 2)),
                                            ((9, 8, 3), (3, 3, 2)), ((37, 41, 29), (10, 11, 8))])
def test_sweep_equals_layer_by_layer_chain(rng, monkeypatch, dims, def_dims):
    # at the module's chunk size and at chunks of 2 and 1 planes, where every
    # chunk inside a slab uses the planes carried from the previous one; with
    # 3 workers on nz <= 3 every slab is one plane and all its halo is recomputed
    gi = _grid(dims, (1.0, 1.1, 0.9))
    gd = def_grid_over(gi, def_dims)
    T = _extended_template(gi)
    R = make_volume(gi)
    field = make_identity(gd).field + 1.5 * rng.standard_normal((3,) + gd.shape)
    params = NgfParams()
    plan = build_gather_plan(gd, gi)
    plane = dims[0] * dims[1]
    chunks = (parallel._CHUNK_VOXELS, 2 * plane, plane)
    for dtype, d_tol in ((np.float64, 1e-13), (np.float32, 1e-6)):
        Rd, Td = R.astype(dtype), T.astype(dtype)
        y = DeformationField(gd, field.astype(dtype))
        for variant in PT_VARIANTS:
            D_ref, g_ref = _layered_chain(y, Rd, Td, plan, params, variant)
            for chunk in chunks:
                monkeypatch.setattr(parallel, "_CHUNK_VOXELS", chunk)
                for workers in (1, 2, 3):
                    D, g = sweep_once(y, Rd, Td, plan, params, variant, workers)
                    assert abs(D - D_ref) <= d_tol * abs(D_ref)
                    assert g.field.tobytes() == g_ref.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_evaluation_allocates_no_image_sized_temporaries(rng, workers):
    # A 128^3 f64 level set-up and one evaluation. Composed on whole arrays
    # the chain allocated 176 MiB, eleven image-sized arrays of 16 MiB; a
    # set-up that stored grad R and its norm (64 MiB) peaked at 121 MiB, and
    # y interpolated along x and y on a slab's coarse planes took it to
    # 36.7 MiB (1 worker). What the sweep allocates is the gather plan, the
    # P^T buffer (3 MiB) and per slab its workspace: its windows and one
    # chunk's temporaries, P y of the chunk's planes among them; 12.6 MiB in
    # all. tracemalloc sees this process only: with 1 worker it runs the
    # whole sweep, with 2 a child runs the second slab. Each case runs on a
    # new thread, so on a new workspace, as a fresh process would.
    g = _grid((128, 128, 128))
    gd = def_grid_over(g, (32, 32, 32))
    T = Image3(g, rng.standard_normal(g.shape))
    R = Image3(g, rng.standard_normal(g.shape))
    x = (make_identity(gd).field + 2 * rng.standard_normal((3,) + gd.shape)).ravel()
    peaks = []

    def run():
        obj = LevelObjective(template=T, ref=R, plan=build_gather_plan(gd, g),
                             params=NgfParams(), alpha=1.0, pt_variant="gather",
                             workers=workers)
        obj(x)
        peaks.append(tracemalloc.get_traced_memory()[1])
        obj.close()

    tracemalloc.start()
    try:
        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=120)
    finally:
        tracemalloc.stop()
    assert not thread.is_alive()
    assert len(peaks) == 1
    assert peaks[0] < 24 * 2**20


def test_sweep_workspace_does_not_grow_with_the_slab(rng):
    # a 1-worker sweep's workspace holds the slab's windows of planes and one
    # chunk's temporaries, P y of the chunk's planes among them: its size
    # depends on the plane, not on the number of planes. y interpolated
    # along x and y on the slab's coarse planes made it 7.6 MiB at 64^3 and
    # 12.1 MiB at 64 x 64 x 256 (f64); each sweep runs on a new thread, so
    # on a new workspace
    sizes = []
    for nz in (64, 256):
        g = _grid((64, 64, nz))
        gd = def_grid_over(g, (16, 16, nz // 4))
        T = Image3(g, rng.standard_normal(g.shape))
        R = Image3(g, rng.standard_normal(g.shape))
        y = DeformationField(gd, make_identity(gd).field
                             + 2 * rng.standard_normal((3,) + gd.shape))

        def run():
            sweep_once(y, R, T, build_gather_plan(gd, g), NgfParams())
            sizes.append(parallel.workspace()._buf.nbytes)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert len(sizes) == 2
    assert sizes[0] == sizes[1]


@pytest.mark.parametrize("n, workers, bound_mib", [(48, 1, 4.25), (64, 2, 4.70)])
def test_caller_workspace_depth(rng, n, workers, bound_mib):
    # the caller's workspace after one f64 evaluation holds its slab's
    # windows and one chunk's deepest stack. At 48^3 that is the sampling
    # kernel's, at 64^3 the pointwise terms': 4.11 and 4.63 MiB. When the
    # kernel formed the lower corner's index through (3, N) float64 arrays
    # and kept the lower face's corners beside the output slots it was 5.68
    # and 6.06 MiB. The evaluation runs on a new thread, so on a new workspace
    g = _grid((n, n, n))
    gd = def_grid_over(g, (n // 4,) * 3)
    T = Image3(g, rng.standard_normal(g.shape))
    R = Image3(g, rng.standard_normal(g.shape))
    x = (make_identity(gd).field + 2 * rng.standard_normal((3,) + gd.shape)).ravel()
    sizes = []

    def run():
        obj = LevelObjective(template=T, ref=R, plan=build_gather_plan(gd, g),
                             params=NgfParams(), alpha=1.0, pt_variant="gather",
                             workers=workers)
        try:
            obj(x)
        finally:
            obj.close()
        sizes.append(parallel.workspace()._buf.nbytes)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert len(sizes) == 1
    assert sizes[0] <= bound_mib * 2**20


@pytest.mark.parametrize("n, workers", [(48, 1), (64, 2)])
def test_evaluation_after_the_first_allocates_no_chunk_sized_temporaries(rng, n, workers):
    # Once a worker has run a slab, its chunks take every temporary from its
    # thread's workspace. What an evaluation still allocates is its own: the
    # output of P^T's z schedule, the curvature term and the gradient (0.2
    # MiB at 48^3, 0.4 MiB at 64^3, f64). Allocated per chunk, the
    # temporaries peaked at 15.4 MiB (48^3, 1 worker) and 30.6 MiB (64^3, 2
    # workers). With 2 workers the caller runs the first slab, the one it ran
    # before, and a child the second.
    g = _grid((n, n, n))
    gd = def_grid_over(g, (n // 4,) * 3)
    T = Image3(g, rng.standard_normal(g.shape))
    R = Image3(g, rng.standard_normal(g.shape))
    x = (make_identity(gd).field + 2 * rng.standard_normal((3,) + gd.shape)).ravel()
    obj = LevelObjective(template=T, ref=R, plan=build_gather_plan(gd, g),
                         params=NgfParams(), alpha=1.0, pt_variant="gather",
                             workers=workers)
    obj(x)
    tracemalloc.start()
    try:
        obj(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


_BLAS_PROBE = """
import hashlib
import numpy as np
from ngfreg.geometry import Grid3, VectorField3
from ngfreg.multilevel import deformation_grid_for
from ngfreg.ngf import LevelSweep, NgfParams, distance_and_gradient
from ngfreg.parallel import slab_partition
from ngfreg.synthetic import smooth_random_field, smooth_random_volume
from ngfreg.transfer import apply_P, apply_Pt, build_gather_plan
gi = Grid3((384, 384, 4), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
gd = deformation_grid_for(gi, 4)
plan = build_gather_plan(gd, gi)
R, T = (smooth_random_volume(gi, seed=s) for s in (0, 1))
y = smooth_random_field(gd, seed=2, amplitude_mm=2.0)
assert len(slab_partition(4, 384 * 384, 2)) == 2
sweep = LevelSweep(R, T, plan, NgfParams(), "gather", 2)
D, g = distance_and_gradient(y, sweep)
sweep.close()
r = VectorField3(gi, np.random.default_rng(3).standard_normal((3,) + gi.shape))
for out in (np.float64(D), g.field, apply_P(y, gi).field, apply_Pt(r, plan, "gather").field):
    print(hashlib.sha256(np.asarray(out).tobytes()).hexdigest())
"""


def test_bytes_do_not_depend_on_blas_threads():
    # a product of a whole 384-point plane axis by the 1-D factor of P would
    # be split across the BLAS threads; the blocks of one plane are not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(ngfreg.__file__).parents[1]), env.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].split()) == 4
    assert outputs[0] == outputs[1]
