import numpy as np
import pytest

from ngfreg.curvature import (
    apply_laplacian,
    apply_laplacian_transpose,
    curvature_value_and_gradient,
)
from ngfreg.geometry import DeformationField, Grid3, make_identity
from ngfreg.synthetic import smooth_random_field


def _grid(dims, spacing=(1, 1, 1)):
    return Grid3(dims, spacing, (0, 0, 0))


def test_identity_has_zero_curvature():
    g = _grid((6, 5, 7), (0.8, 1.2, 1.0))
    S, grad = curvature_value_and_gradient(make_identity(g))
    assert S == 0.0
    assert np.all(grad == 0)


def test_affine_fields_have_zero_curvature():
    # linear extrapolation at the boundary keeps affine maps in the null space
    g = _grid((7, 6, 5), (1.0, 0.9, 1.4))
    A = np.array([[1.1, 0.2, 0.0], [0.0, 0.95, -0.1], [0.05, 0.0, 1.0]])
    b = np.array([2.0, -1.0, 0.5])
    ident = make_identity(g).field
    field = np.einsum("cd,dkji->ckji", A, ident) + b[:, None, None, None]
    y = DeformationField(g, field)
    S, grad = curvature_value_and_gradient(y)
    assert S < 1e-22
    assert np.max(np.abs(grad)) < 1e-12


def test_laplacian_exact_on_quadratic():
    g = _grid((8, 8, 8), (0.5, 0.5, 0.5))
    ident = make_identity(g).field
    u = ident[0] ** 2 + 2.0 * ident[1] ** 2 - ident[2] ** 2
    lap = apply_laplacian(u, g)
    assert np.allclose(lap[1:-1, 1:-1, 1:-1], 2 * (1 + 2 - 1), atol=1e-9)
    # on a z-face only the z second difference is zeroed by the boundary rule
    assert np.allclose(lap[0, 1:-1, 1:-1], 2 * (1 + 2), atol=1e-9)


def test_laplacian_adjoint(rng):
    g = _grid((6, 5, 4), (0.7, 1.1, 1.3))
    u = rng.standard_normal(g.shape)
    w = rng.standard_normal(g.shape)
    lhs = float(np.sum(apply_laplacian(u, g) * w))
    rhs = float(np.sum(u * apply_laplacian_transpose(w, g)))
    assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + 1)


def test_degenerate_axis_contributes_nothing():
    g = _grid((6, 6, 2))
    y = smooth_random_field(g, seed=5, amplitude_mm=1.0)
    # n < 3 along z: the z second difference must be identically zero, so the
    # z spacing cannot change the Laplacian or its transpose
    u = y.displacement()[0]
    g_z = _grid((6, 6, 2), (1, 1, 0.37))
    assert apply_laplacian(u, g).tobytes() == apply_laplacian(u, g_z).tobytes()
    assert (apply_laplacian_transpose(u, g).tobytes()
            == apply_laplacian_transpose(u, g_z).tobytes())
    # and with every axis below 3 points there is nothing left
    g2 = _grid((2, 1, 2))
    assert np.all(apply_laplacian(np.ones(g2.shape), g2) == 0)


def test_curvature_gradient_matches_fd(rng):
    g = _grid((5, 5, 5), (1.0, 1.2, 0.8))
    y = smooth_random_field(g, seed=9, amplitude_mm=0.7)
    _, grad = curvature_value_and_gradient(y)
    eps = 1e-6
    for (c, k, j, i) in [(0, 2, 2, 2), (1, 0, 3, 1), (2, 4, 1, 3), (0, 1, 0, 4)]:
        fp = y.field.copy()
        fp[c, k, j, i] += eps
        fm = y.field.copy()
        fm[c, k, j, i] -= eps
        fd = (curvature_value_and_gradient(DeformationField(g, fp))[0]
              - curvature_value_and_gradient(DeformationField(g, fm))[0]) / (2 * eps)
        assert abs(fd - grad[c, k, j, i]) < 1e-5 * (abs(fd) + 1)


def test_curvature_is_nonnegative(rng):
    for seed in range(5):
        g = _grid((5, 6, 4))
        y = smooth_random_field(g, seed=seed, amplitude_mm=2.0)
        assert curvature_value_and_gradient(y)[0] >= 0.0


# The per-axis formulas the stencils replaced, kept as the reference their
# bytes must match: each axis's second difference and its transpose formed on
# a zeroed array of their own, then summed from zero in the order x, y, z.
def _ref_second_diff(values, h, axis):
    out = np.zeros_like(values)
    if values.shape[axis] < 3:
        return out
    v, o = np.moveaxis(values, axis, 0), np.moveaxis(out, axis, 0)
    o[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / values.dtype.type(h) ** 2
    return out


def _ref_second_diff_transpose(w, h, axis):
    out = np.zeros_like(w)
    if w.shape[axis] < 3:
        return out
    ww, o = np.moveaxis(w, axis, 0), np.moveaxis(out, axis, 0)
    interior = ww[1:-1] / w.dtype.type(h) ** 2
    o[:-2] += interior
    o[1:-1] -= 2 * interior
    o[2:] += interior
    return out


def _ref_sum(fn, arr, grid):
    out = np.zeros_like(arr)
    for a in range(3):
        out += fn(arr, grid.spacing[a], 2 - a)
    return out


def _ref_curvature(y):
    u = y.displacement()
    grad = np.empty_like(u)
    vol = u.dtype.type(y.grid.cell_volume)
    total = u.dtype.type(0)
    for c in range(3):
        lap = _ref_sum(_ref_second_diff, u[c], y.grid)
        total = total + np.sum(lap * lap, dtype=lap.dtype)
        grad[c] = vol * _ref_sum(_ref_second_diff_transpose, lap, y.grid)
    return float(y.grid.cell_volume / 2 * total), grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stencils_match_per_axis_formula_bytes(rng, dtype):
    # Magnitudes over six decades make any reassociation show; zeros of both
    # signs pin the signed-zero results of the sums that start from zero.
    for dims in ((3, 3, 3), (5, 4, 6), (12, 12, 12), (7, 1, 9), (2, 8, 2), (1, 2, 1),
                 (32, 32, 32)):
        g = _grid(dims, (0.8, 1.3, 0.45))
        u = rng.standard_normal((3,) + g.shape) * 10.0 ** rng.uniform(-3, 3, (3,) + g.shape)
        u.flat[::7] = 0.0
        u.flat[3::11] = -0.0
        y = DeformationField(g, (make_identity(g).field + u).astype(dtype))
        for comp in u.astype(dtype):
            assert (apply_laplacian(comp, g).tobytes()
                    == _ref_sum(_ref_second_diff, comp, g).tobytes())
            assert (apply_laplacian_transpose(comp, g).tobytes()
                    == _ref_sum(_ref_second_diff_transpose, comp, g).tobytes())
        S, grad = curvature_value_and_gradient(y)
        S_ref, grad_ref = _ref_curvature(y)
        assert S == S_ref
        assert grad.dtype == dtype and grad.tobytes() == grad_ref.tobytes()
