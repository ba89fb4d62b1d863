import contextlib
import tracemalloc

import numpy as np
import pytest

from ngfreg.geometry import DeformationField, Grid3, Image3, VectorField3, make_identity
from ngfreg.multilevel import deformation_grid_for
from ngfreg.synthetic import smooth_random_field, smooth_random_volume
from ngfreg.transfer import apply_P
from ngfreg.warp import (
    _gradient_planes, _gradient_transpose_planes, _trilinear, image_gradient,
    image_gradient_apply_transpose, warp_image,
)

from conftest import DEFAULT_CHUNK, coarse_plane_grid_pairs, default_chunks


def _grid(dims, spacing=(1, 1, 1), origin=(0, 0, 0)):
    return Grid3(dims, spacing, origin)


def test_warp_identity_reproduces_template():
    g = _grid((6, 5, 4), (0.8, 1.1, 1.5), (-2.0, 1.0, 0.5))
    T = smooth_random_volume(g, seed=7)
    y = make_identity(g)
    assert np.allclose(warp_image(T, y).values, T.values, atol=1e-12)
    assert _trilinear(T.values.ravel(), g, y.field)[1].all()


def test_warp_is_exact_on_trilinear_images(rng):
    # the interpolant reproduces functions linear per axis exactly
    g = _grid((7, 6, 5), (1.0, 1.2, 0.9), (0.0, -1.0, 2.0))
    x = g.axis_centers(0)[None, None, :]
    y = g.axis_centers(1)[None, :, None]
    z = g.axis_centers(2)[:, None, None]
    vals = 2.0 * x - 3.0 * y + 0.5 * z + 0.25 * x * y + 1.0
    T = Image3(g, vals + np.zeros(g.shape))
    field = make_identity(g).field + rng.uniform(-0.3, 0.3, (3,) + g.shape)
    warped = warp_image(T, DeformationField(g, field)).values
    expected = (2.0 * field[0] - 3.0 * field[1] + 0.5 * field[2]
                + 0.25 * field[0] * field[1] + 1.0)
    inside = _trilinear(T.values.ravel(), g, field)[1]
    assert inside.any() and not inside.all()
    assert np.allclose(warped[inside], expected[inside], atol=1e-10)
    assert np.all(warped[~inside] == 0)


def test_warp_outside_hull_is_zero_with_mask():
    g = _grid((4, 4, 4))
    T = Image3(g, np.ones(g.shape))
    field = make_identity(g).field.copy()
    field[0, 0, 0, 0] = -10.0  # far outside in x
    warped = warp_image(T, DeformationField(g, field)).values
    inside = _trilinear(T.values.ravel(), g, field)[1]
    assert warped[0, 0, 0] == 0.0
    assert not inside[0, 0, 0]
    assert inside.sum() == g.num_points - 1


def test_warp_bit_identical_across_workers(rng, one_plane_chunks):
    # y on the image grid, then on the grid pairs whose chunks read coarse
    # z-planes in other patterns; one-plane chunks against the whole grid
    g = _grid((9, 8, 7), (1.1, 0.9, 1.3))
    for gd, gi in [(g, g)] + coarse_plane_grid_pairs():
        T = smooth_random_volume(gi, seed=3)
        y = smooth_random_field(gd, seed=4, amplitude_mm=0.8)
        with default_chunks():  # the whole grid in one chunk
            assert gi.num_points <= DEFAULT_CHUNK
            base = warp_image(T, y)
        assert warp_image(T, y).values.tobytes() == base.values.tobytes()
    assert max(one_plane_chunks) >= 2


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_warp_at_P_y_matches_layered_reference(one_plane_chunks, dtype):
    # y on a coarse grid: the chunked warp against P y on the whole image
    # grid, then the kernel, then zero outside the hull; an f32 y warps the
    # f64 template in f32
    g = _grid((23, 19, 17), (1.1, 0.9, 1.3), (-3.0, 2.0, 0.5))
    T = smooth_random_volume(g, seed=8)
    y = smooth_random_field(deformation_grid_for(g, 4), seed=9, amplitude_mm=2.5)
    y = DeformationField(y.grid, y.field.astype(dtype))
    value, inside, _ = _trilinear(T.values.astype(dtype).ravel(), g, apply_P(y, g).field)
    assert value.dtype == dtype
    assert inside.any() and not inside.all()
    expected = np.where(inside, value, 0)
    for chunks in (default_chunks, contextlib.nullcontext):  # one chunk, then one plane
        with chunks():
            warped = warp_image(T, y).values
            assert warped.dtype == dtype
            assert np.all(warped[~inside] == 0)
            assert warped.tobytes() == expected.tobytes()
    assert max(one_plane_chunks) >= 2


@pytest.mark.parametrize("calls", [1, 2])
def test_warp_memory_is_chunk_sized(rng, calls):
    # a 128^3 f64 warp holds the template, the output and one chunk's
    # temporaries, P y of the chunk's planes among them: 18.1 MiB. y
    # interpolated along x and y on every coarse plane added 12 MiB, and an
    # image-sized P y alone would be 48 MiB. A second warp in the measured
    # window reuses the workspace, so the bound holds for it too
    g = _grid((128, 128, 128))
    T = Image3(g, rng.standard_normal(g.shape))
    y = smooth_random_field(deformation_grid_for(g, 4), seed=2, amplitude_mm=2.0)
    warp_image(T, y)  # the caller's workspace has grown before the measurement
    tracemalloc.start()
    try:
        for _ in range(calls):
            warp_image(T, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2**20


def test_warp_jacobian_matches_fd(rng):
    # FD of sum(w * warp(y)) vs the analytic Jacobian transpose, at
    # positions away from cell centers (trilinear kinks) and the hull edge.
    g = _grid((8, 7, 6), (1.0, 1.0, 1.0))
    T = smooth_random_volume(g, seed=11)
    field = make_identity(g).field + rng.uniform(0.2, 0.4, (3,) + g.shape)
    field = np.clip(field, 0.3, None)
    for a in range(3):
        field[a] = np.minimum(field[a], (g.dims[a] - 1) * g.spacing[a] - 0.3)
    y = DeformationField(g, field)
    w = rng.standard_normal(g.shape)
    grad = _trilinear(T.values.ravel(), g, y.field, partials=True)[2] * w

    eps = 1e-6
    idx = [(0, 0, 0), (3, 2, 4), (5, 6, 1)]
    for (k, j, i) in idx:
        for a in range(3):
            fp = field.copy()
            fp[a, k, j, i] += eps
            fm = field.copy()
            fm[a, k, j, i] -= eps
            vp = warp_image(T, DeformationField(g, fp)).values
            vm = warp_image(T, DeformationField(g, fm)).values
            fd = np.sum(w * (vp - vm)) / (2 * eps)
            assert abs(fd - grad[a, k, j, i]) < 1e-5 * (abs(fd) + 1)


def test_warp_jacobian_zero_outside_and_degenerate_axis():
    g = _grid((4, 4, 1))
    T = Image3(g, np.arange(16, dtype=float).reshape(g.shape))
    field = make_identity(g).field.copy()
    field[0, 0, 0, 0] = 99.0
    grad = _trilinear(T.values.ravel(), g, field, partials=True)[2] * np.ones(g.shape)
    assert np.all(grad[:, 0, 0, 0] == 0)  # outside the hull
    assert np.all(grad[2] == 0)           # nz == 1 -> constant along z


def _reference_trilinear(T, pos):
    """The 8-corner weighted sum and its derivative, one corner at a time:
    the formula the fused kernel replaced, kept here as its oracle. Outside
    the hull the value is extrapolated as the kernel's is (clamp-to-edge)
    and the derivative is zero."""
    g = T.grid
    dtype = pos.dtype
    inside = np.ones(pos.shape[1:], dtype=bool)
    i0, f = [], []
    for a in range(3):
        n = g.dims[a]
        t = (pos[a] - g.origin[a]) / dtype.type(g.spacing[a])
        inside &= (t >= 0) & (t <= n - 1)
        lo = np.clip(np.floor(t).astype(np.intp), 0, max(n - 2, 0))
        i0.append(lo)
        f.append(np.clip(t - lo, 0.0, 1.0).astype(dtype))
    value = np.zeros(pos.shape[1:], dtype=dtype)
    grads = np.zeros(pos.shape, dtype=dtype)
    for dz in (0, 1):
        wz, dwz = (f[2], 1.0) if dz else (1 - f[2], -1.0)
        iz = np.minimum(i0[2] + dz, g.dims[2] - 1)
        for dy in (0, 1):
            wy, dwy = (f[1], 1.0) if dy else (1 - f[1], -1.0)
            iy = np.minimum(i0[1] + dy, g.dims[1] - 1)
            for dx in (0, 1):
                wx, dwx = (f[0], 1.0) if dx else (1 - f[0], -1.0)
                ix = np.minimum(i0[0] + dx, g.dims[0] - 1)
                c = T.values[iz, iy, ix].astype(dtype)
                value += c * (wx * wy * wz)
                grads[0] += c * (dwx * wy * wz)
                grads[1] += c * (wx * dwy * wz)
                grads[2] += c * (wx * wy * dwz)
    for a in range(3):
        scale = 1 / dtype.type(g.spacing[a]) if g.dims[a] > 1 else 0.0
        grads[a] = np.where(inside, grads[a] * scale, 0)
    return value, inside, grads


def test_kernel_matches_reference_formula(rng):
    # random positions inside the hull, outside it, and on a template with
    # a single z-plane (inside only at exactly that plane's z)
    for dims, spacing, origin in (((7, 6, 5), (1.1, 0.8, 1.3), (-2.0, 1.0, 0.5)),
                                  ((6, 5, 1), (0.9, 1.2, 2.0), (1.0, -1.0, 3.0))):
        gt = _grid(dims, spacing, origin)
        T = smooth_random_volume(gt, seed=5)
        gp = _grid((9, 8, 7))
        pos = np.empty((3,) + gp.shape)
        for a in range(3):
            lo, h, n = origin[a], spacing[a], dims[a]
            pos[a] = rng.uniform(lo - 1.5 * h, lo + n * h, gp.shape)
        if dims[2] == 1:
            pos[2].flat[::2] = origin[2]
        for dtype, tol in ((np.float64, 1e-13), (np.float32, 1e-5)):
            p = pos.astype(dtype)
            ref_value, ref_inside, ref_grads = _reference_trilinear(T, p)
            assert ref_inside.any() and not ref_inside.all()
            value, inside, partials = _trilinear(T.values.astype(dtype).ravel(), gt, p,
                                                 partials=True)
            assert value.dtype == dtype and partials.dtype == dtype
            assert np.array_equal(inside, ref_inside)
            vscale = np.abs(T.values).max()
            gscale = np.abs(ref_grads).max()
            assert np.abs(value - ref_value).max() <= tol * vscale
            assert np.abs(partials - ref_grads).max() <= tol * gscale
            assert np.all(partials[:, ~ref_inside] == 0)
            if dims[2] == 1:
                assert np.all(partials[2] == 0)
        # the kernel interpolates every channel of a multi-channel input alike
        flat = np.stack([T.values.ravel(), 2 * T.values.ravel()])
        value, _, _ = _trilinear(flat, gt, pos)
        ref_value, _, _ = _reference_trilinear(T, pos)
        assert np.abs(value[0] - ref_value).max() <= 1e-13 * vscale
        assert np.array_equal(value[1], 2 * value[0])


@pytest.mark.parametrize("dims, spacing, origin", [
    ((7, 6, 5), (1.1, 0.8, 1.3), (-2.0, 1.0, 0.5)),
    ((5, 9, 4), (0.7, 1.9, 0.3), (10.0, -4.0, 7.1)),
    ((6, 1, 5), (0.9, 2.0, 1.2), (1.0, -1.0, 3.0)),  # a degenerate y axis
])
def test_kernel_outside_hull_is_value_at_clamped_position(rng, dims, spacing, origin):
    # the clamp-to-edge extrapolation that landmark sampling and resampling
    # rely on: a position outside the hull gives the value at that position
    # clipped into the hull, up to rounding of the clipped coordinate
    gt = _grid(dims, spacing, origin)
    T = smooth_random_volume(gt, seed=6)
    pos = np.empty((3, 5000))
    clamped = np.empty_like(pos)
    for a in range(3):
        lo, h, n = origin[a], spacing[a], dims[a]
        pos[a] = rng.uniform(lo - 3 * h, lo + (n + 2) * h, pos.shape[1:])
        clamped[a] = np.clip(pos[a], lo, lo + (n - 1) * h)
    value, inside, _ = _trilinear(T.values.ravel(), gt, pos)
    assert (~inside).sum() > 1000
    ref_value, _, _ = _reference_trilinear(T, clamped)
    assert np.abs(value - ref_value).max() <= 1e-15 * np.abs(T.values).max()


def test_kernel_rejects_a_grid_whose_flat_indices_pass_2_53():
    # the lower corner's flat index is formed in float64, exact below 2^53
    g = _grid((2**18, 2**18, 2**18))
    with pytest.raises(ValueError, match="2\\^53"):
        _trilinear(np.zeros(8), g, np.zeros((3, 1)))


def test_image_gradient_exact_on_linear_ramp():
    g = _grid((5, 6, 7), (0.5, 1.0, 2.0), (1.0, 2.0, 3.0))
    x = g.axis_centers(0)[None, None, :]
    y = g.axis_centers(1)[None, :, None]
    z = g.axis_centers(2)[:, None, None]
    img = Image3(g, 3.0 * x - 2.0 * y + 0.5 * z + np.zeros(g.shape))
    grad = image_gradient(img).field
    assert np.allclose(grad[0], 3.0, atol=1e-12)
    assert np.allclose(grad[1], -2.0, atol=1e-12)
    assert np.allclose(grad[2], 0.5, atol=1e-12)


def test_image_gradient_degenerate_axis_is_zero():
    g = _grid((5, 1, 4))
    img = smooth_random_volume(g, seed=2)
    grad = image_gradient(img).field
    assert np.all(grad[1] == 0)


def test_image_gradient_adjoint(rng):
    g = _grid((6, 5, 4), (0.7, 1.3, 0.9))
    v = rng.standard_normal(g.shape)
    w = VectorField3(g, rng.standard_normal((3,) + g.shape))
    lhs = float(np.sum(image_gradient(Image3(g, v)).field * w.field))
    rhs = float(np.sum(v * image_gradient_apply_transpose(w, g)))
    assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + 1)


@pytest.mark.parametrize("nz", [1, 2, 3, 4, 29])
def test_plane_range_stencils_match_full_arrays(rng, nz):
    # nz = 2 and 3 are the grids whose boundary rows overlap in G^T
    g = _grid((6, 5, nz), (0.7, 1.3, 0.9))
    v = rng.standard_normal(g.shape)
    w = rng.standard_normal((3,) + g.shape)
    full_grad = image_gradient(Image3(g, v)).field
    full_gt = image_gradient_apply_transpose(VectorField3(g, w), g)
    # the full-range results against np.gradient's first-order edges and the adjoint identity
    for a in range(3):
        if g.dims[a] > 1:
            ref = np.gradient(v, g.spacing[a], axis=2 - a, edge_order=1)
            assert np.allclose(full_grad[a], ref, rtol=1e-14, atol=1e-14)
        else:
            assert np.all(full_grad[a] == 0)
    lhs, rhs = float(np.sum(full_grad * w)), float(np.sum(v * full_gt))
    assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + 1)
    for chunk in (1, 2, 7):
        grad = np.empty_like(full_grad)
        gt = np.zeros_like(full_gt)
        bounds = [(k0, min(k0 + chunk, nz)) for k0 in range(0, nz, chunk)]
        for k0, k1 in bounds:  # the split the NGF sweeps use: x and y, then z
            _gradient_planes(v, g.spacing, k0, k1, grad[:, k0:k1])
            _gradient_transpose_planes(w[:2, k0:k1], g.spacing, (0, 1), k0, k1, gt[k0:k1])
        for k0, k1 in bounds:
            _gradient_transpose_planes(w[2:], g.spacing, (2,), k0, k1, gt[k0:k1])
        assert grad.tobytes() == full_grad.tobytes()
        assert gt.tobytes() == full_gt.tobytes()

