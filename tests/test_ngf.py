import tracemalloc

import numpy as np
import pytest

from ngfreg import parallel
from ngfreg.geometry import DeformationField, Grid3, GridError, Image3, VectorField3, make_identity
from ngfreg.objective import LevelObjective
from ngfreg.ngf import NgfParams, _norm, distance_and_gradient
from ngfreg.synthetic import make_volume, smooth_random_volume
from ngfreg.transfer import PT_VARIANTS, apply_P, apply_Pt, build_gather_plan
from ngfreg.warp import _trilinear, image_gradient, image_gradient_apply_transpose

from conftest import default_chunks


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
    D, _ = distance_and_gradient(make_identity(g), R, T, build_gather_plan(g, g), params)
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
    _, grad = distance_and_gradient(make_identity(g), T, T, plan, params)
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


def _def_grid(image_grid, def_dims):
    """Deformation grid of def_dims cells over the image grid's domain."""
    gi = image_grid
    return Grid3(def_dims,
                 tuple(n * s / m for n, s, m in zip(gi.dims, gi.spacing, def_dims)),
                 tuple(o - s / 2 + n * s / m / 2
                       for o, s, n, m in zip(gi.origin, gi.spacing, gi.dims, def_dims)))


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
    y = DeformationField(gd, field)
    _, grad = distance_and_gradient(y, R, T, plan, params)
    gnorm = max(float(np.max(np.abs(grad.field))), 1.0)

    eps = 1e-6
    for (c, k, j, i) in [(0, 1, 1, 2), (1, 3, 0, 4), (2, 2, 2, 0), (0, 0, 2, 1)]:
        fp = field.copy()
        fp[c, k, j, i] += eps
        fm = field.copy()
        fm[c, k, j, i] -= eps
        Dp, _ = distance_and_gradient(DeformationField(gd, fp), R, T, plan, params)
        Dm, _ = distance_and_gradient(DeformationField(gd, fm), R, T, plan, params)
        fd = (Dp - Dm) / (2 * eps)
        assert abs(fd - grad.field[c, k, j, i]) < 2e-5 * gnorm


def test_variants_and_workers_agree(rng, one_plane_chunks):
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
        D0, g0 = distance_and_gradient(y, R, T, plan, params, "gather", workers=1)
    for variant in ("gather", "scatter", "redblack"):
        for w in (1, 4):
            D, gv = distance_and_gradient(y, R, T, plan, params, variant, workers=w)
            assert D == D0
            scale = np.abs(g0.field).max() + 1e-30
            if variant == "gather":
                assert np.array_equal(gv.field, g0.field)
            else:
                assert np.max(np.abs(gv.field - g0.field)) <= 1e-12 * scale
    assert max(one_plane_chunks) >= 2


def test_bytes_identical_across_workers_and_chunks(rng, monkeypatch):
    # 29 z-planes of 41 x 37: the slabs of 1, 2 and 3 workers end inside the
    # kernel's chunks of z-planes, at the module's chunk size and at 7 and 1
    # planes; 3 z-planes: every slab and chunk touches a boundary row of G^T
    from ngfreg import parallel

    chunks = (parallel._CHUNK_VOXELS, 7 * 41 * 37, 41 * 37)
    for dims, def_dims in (((37, 41, 29), (10, 11, 8)), ((37, 41, 3), (10, 11, 2))):
        gi = _grid(dims)
        gd = Grid3(def_dims,
                   tuple(n * s / m for n, s, m in zip(gi.dims, gi.spacing, def_dims)),
                   tuple(o - s / 2 + n * s / m / 2
                         for o, s, n, m in zip(gi.origin, gi.spacing, gi.dims, def_dims)))
        T = _extended_template(gi)
        R = make_volume(gi)
        params = NgfParams()
        plan = build_gather_plan(gd, gi)
        y = DeformationField(gd, make_identity(gd).field
                             + 1.5 * rng.standard_normal((3,) + gd.shape))
        monkeypatch.setattr(parallel, "_CHUNK_VOXELS", chunks[0])
        D0, g0 = distance_and_gradient(y, R, T, plan, params, workers=1)
        for chunk in chunks:
            monkeypatch.setattr(parallel, "_CHUNK_VOXELS", chunk)
            for w in (1, 2, 3):
                D, g = distance_and_gradient(y, R, T, plan, params, workers=w)
                assert D == D0
                assert g.field.tobytes() == g0.field.tobytes()


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
            distance_and_gradient(make_identity(g, np.float32), R, T, plan, params,
                                  workers=workers)
    # template planes 1e37 apart at a z-spacing of 0.01: the samples are finite
    # but their z-partials overflow, while the image and the deformation grid
    # have one z-plane, where every z-gradient is 0, so D stays finite
    gt = _grid((8, 7, 4), (1, 1, 0.01))
    T = Image3(gt, (5e36 * np.where(np.arange(4) % 2 == 0, 1.0, -1.0)[:, None, None]
                    + np.zeros(gt.shape)).astype(np.float32))
    gi = _grid((8, 7, 1), (1, 1, 0.01), (0, 0, 0.015))
    R = smooth_random_volume(gi, seed=5).astype(np.float32)
    with pytest.raises(FloatingPointError, match="template gradient"):
        distance_and_gradient(make_identity(gi, np.float32), R, T, build_gather_plan(gi, gi),
                              params, workers=workers)
    if slab_counts is not None:
        assert max(slab_counts) == workers


def test_reference_off_the_plan_grid_is_grid_error():
    g = _grid((6, 5, 4))
    T = smooth_random_volume(g, seed=6)
    R = smooth_random_volume(_grid((6, 5, 4), spacing=(1.5, 1, 1)), seed=7)
    with pytest.raises(GridError, match="reference grid"):
        distance_and_gradient(make_identity(g), R, T, build_gather_plan(g, g), NgfParams())


def _layered_chain(y, R, T, plan, params, variant, workers):
    """D and its gradient from the layers composed on whole image-grid arrays:
    P, the trilinear kernel with partials, G, r, q, G^T, the multiply, P^T."""
    g = plan.image_grid
    yhat = apply_P(y, g, workers).field
    dtype = yhat.dtype
    warped, inside, partials = _trilinear(T.values.astype(dtype).ravel(), T.grid, yhat,
                                          partials=True)
    np.copyto(warped, 0, where=~inside)
    gT = image_gradient(Image3(g, warped), workers).field
    gR = image_gradient(R, workers).field
    norm_T, norm_R = _norm(gT, params.tau), _norm(gR, params.rho)
    r = (np.sum(gT * gR, axis=0) + dtype.type(params.tau * params.rho)) / (norm_T * norm_R)
    D = g.cell_volume / 2 * float(np.sum(1 - r * r))
    coef = dtype.type(-g.cell_volume) * r
    q = np.stack([coef * (gR[a] * (1 / (norm_T * norm_R)) - r * gT[a] * (1 / (norm_T * norm_T)))
                  for a in range(3)])
    s = image_gradient_apply_transpose(VectorField3(g, q), g)
    return D, apply_Pt(VectorField3(g, partials * s), plan, variant, workers).field


@pytest.mark.parametrize("dims, def_dims", [((9, 8, 1), (3, 3, 1)), ((9, 8, 2), (3, 3, 2)),
                                            ((9, 8, 3), (3, 3, 2)), ((37, 41, 29), (10, 11, 8))])
def test_sweep_equals_layer_by_layer_chain(rng, monkeypatch, dims, def_dims):
    # at the module's chunk size and at chunks of 2 and 1 planes, where every
    # chunk inside a slab uses the planes carried from the previous one; with
    # 3 workers on nz <= 3 every slab is one plane and all its halo is recomputed
    gi = _grid(dims, (1.0, 1.1, 0.9))
    gd = _def_grid(gi, def_dims)
    T = _extended_template(gi)
    R = make_volume(gi)
    field = make_identity(gd).field + 1.5 * rng.standard_normal((3,) + gd.shape)
    params = NgfParams()
    plan = build_gather_plan(gd, gi)
    plane = dims[0] * dims[1]
    chunks = (parallel._CHUNK_VOXELS, 2 * plane, plane)
    for dtype, d_tol, scatter_tol in ((np.float64, 1e-13, 1e-12), (np.float32, 1e-6, 1e-5)):
        Rd, Td = R.astype(dtype), T.astype(dtype)
        y = DeformationField(gd, field.astype(dtype))
        for variant in PT_VARIANTS:
            D_ref, g_ref = _layered_chain(y, Rd, Td, plan, params, variant, 1)
            scale = np.abs(g_ref).max()
            for chunk in chunks:
                monkeypatch.setattr(parallel, "_CHUNK_VOXELS", chunk)
                for w in (1, 2, 3):
                    D, g = distance_and_gradient(y, Rd, Td, plan, params, variant, w)
                    assert abs(D - D_ref) <= d_tol * abs(D_ref)
                    if variant == "scatter" and w > 1:  # its lock order reassociates
                        assert np.abs(g.field - g_ref).max() <= scatter_tol * scale
                    else:
                        assert g.field.tobytes() == g_ref.tobytes()


def test_evaluation_allocates_no_image_sized_temporaries(rng):
    # A 128^3 f64 level set-up and one evaluation with 2 workers. Composed on
    # whole arrays the chain allocated 176 MiB, eleven image-sized arrays of
    # 16 MiB; a set-up that stored grad R and its norm (64 MiB) peaked at
    # 121 MiB. The sweep measured 54 MiB: the gather plan, y interpolated
    # along x and y (12 MiB), the P^T buffer (3 MiB) and per slab its
    # windows and one chunk's temporaries.
    g = _grid((128, 128, 128))
    gd = _def_grid(g, (32, 32, 32))
    T = Image3(g, rng.standard_normal(g.shape))
    R = Image3(g, rng.standard_normal(g.shape))
    x = (make_identity(gd).field + 2 * rng.standard_normal((3,) + gd.shape)).ravel()
    parallel.run_tasks([lambda: None] * 2, 2)  # the pool exists before tracing
    tracemalloc.start()
    try:
        obj = LevelObjective(template=T, ref=R, plan=build_gather_plan(gd, g),
                             params=NgfParams(), alpha=1.0, workers=2)
        obj(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@pytest.mark.parametrize("n, workers", [(48, 1), (64, 2)])
def test_evaluation_after_the_first_allocates_no_chunk_sized_temporaries(rng, n, workers):
    # Once a worker has run a slab, its chunks take every temporary from its
    # thread's workspace. What an evaluation still allocates is its own:
    # y interpolated along x and y (0.7 MiB at 48^3, 1.5 MiB at 64^3, f64),
    # a buffer of the same size to form it, P^T's buffer and the curvature
    # term. Allocated per chunk, the temporaries peaked at 15.4 MiB (48^3,
    # 1 worker) and 30.6 MiB (64^3, 2 workers). With 2 workers each pool
    # thread must have run a slab before: three evaluations make sure.
    g = _grid((n, n, n))
    gd = _def_grid(g, (n // 4,) * 3)
    T = Image3(g, rng.standard_normal(g.shape))
    R = Image3(g, rng.standard_normal(g.shape))
    x = (make_identity(gd).field + 2 * rng.standard_normal((3,) + gd.shape)).ravel()
    obj = LevelObjective(template=T, ref=R, plan=build_gather_plan(gd, g),
                         params=NgfParams(), alpha=1.0, workers=workers)
    for _ in range(1 if workers == 1 else 3):
        obj(x)
    tracemalloc.start()
    try:
        obj(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
