import numpy as np
import pytest

from ngfreg.geometry import DeformationField, Grid3, Image3, VectorField3, make_identity
from ngfreg.synthetic import smooth_random_field, smooth_random_volume
from ngfreg.warp import (
    _gradient_planes, _gradient_transpose_planes, _trilinear, image_gradient,
    image_gradient_apply_transpose, warp_image,
)


def _grid(dims, spacing=(1, 1, 1), origin=(0, 0, 0)):
    return Grid3(dims, spacing, origin)


def test_warp_identity_reproduces_template():
    g = _grid((6, 5, 4), (0.8, 1.1, 1.5), (-2.0, 1.0, 0.5))
    T = smooth_random_volume(g, seed=7)
    res = warp_image(T, make_identity(g))
    assert np.allclose(res.warped.values, T.values, atol=1e-12)
    assert res.inside_mask.all()


def test_warp_is_exact_on_trilinear_images(rng):
    # the interpolant reproduces functions linear per axis exactly
    g = _grid((7, 6, 5), (1.0, 1.2, 0.9), (0.0, -1.0, 2.0))
    x = g.axis_centers(0)[None, None, :]
    y = g.axis_centers(1)[None, :, None]
    z = g.axis_centers(2)[:, None, None]
    vals = 2.0 * x - 3.0 * y + 0.5 * z + 0.25 * x * y + 1.0
    T = Image3(g, vals + np.zeros(g.shape))
    field = make_identity(g).field + rng.uniform(-0.3, 0.3, (3,) + g.shape)
    yv = DeformationField(g, field)
    res = warp_image(T, yv)
    expected = (2.0 * field[0] - 3.0 * field[1] + 0.5 * field[2]
                + 0.25 * field[0] * field[1] + 1.0)
    inside = res.inside_mask
    assert np.allclose(res.warped.values[inside], expected[inside], atol=1e-10)


def test_warp_outside_hull_is_zero_with_mask():
    g = _grid((4, 4, 4))
    T = Image3(g, np.ones(g.shape))
    field = make_identity(g).field.copy()
    field[0, 0, 0, 0] = -10.0  # far outside in x
    res = warp_image(T, DeformationField(g, field))
    assert res.warped.values[0, 0, 0] == 0.0
    assert not res.inside_mask[0, 0, 0]
    assert res.inside_mask.sum() == g.num_points - 1


def test_warp_bit_identical_across_workers(rng):
    g = _grid((9, 8, 7), (1.1, 0.9, 1.3))
    T = smooth_random_volume(g, seed=3)
    y = smooth_random_field(g, seed=4, amplitude_mm=0.8)
    base = warp_image(T, y, workers=1)
    for w in (2, 8):
        out = warp_image(T, y, workers=w)
        assert np.array_equal(out.warped.values, base.warped.values)
        assert np.array_equal(out.inside_mask, base.inside_mask)


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
            vp = warp_image(T, DeformationField(g, fp)).warped.values
            vm = warp_image(T, DeformationField(g, fm)).warped.values
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
    the formula the fused kernel replaced, kept here as its oracle."""
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
    return np.where(inside, value, 0), inside, grads


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
            res = warp_image(T.astype(dtype), VectorField3(gp, p))
            partials = _trilinear(T.values.astype(dtype).ravel(), gt, p, partials=True)[2]
            assert res.warped.values.dtype == dtype and partials.dtype == dtype
            assert np.array_equal(res.inside_mask, ref_inside)
            vscale = np.abs(T.values).max()
            gscale = np.abs(ref_grads).max()
            assert np.abs(res.warped.values - ref_value).max() <= tol * vscale
            assert np.abs(partials - ref_grads).max() <= tol * gscale
            assert np.all(res.warped.values[~ref_inside] == 0)
            assert np.all(partials[:, ~ref_inside] == 0)
            if dims[2] == 1:
                assert np.all(partials[2] == 0)
        # the kernel interpolates every channel of a multi-channel input alike
        flat = np.stack([T.values.ravel(), 2 * T.values.ravel()])
        value, inside, _ = _trilinear(flat, gt, pos)
        ref_value, _, _ = _reference_trilinear(T, pos)
        assert np.abs(value[0][inside] - ref_value[inside]).max() <= 1e-13 * vscale
        assert np.array_equal(value[1], 2 * value[0])


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


def test_image_gradient_bytes_identical_across_workers(rng):
    g = _grid((37, 41, 29), (0.7, 1.3, 0.9))
    img = Image3(g, rng.standard_normal(g.shape))
    g1 = image_gradient(img, 1).field
    for w in (2, 3):
        assert image_gradient(img, w).field.tobytes() == g1.tobytes()
