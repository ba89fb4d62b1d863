import numpy as np
import pytest

from ngfreg.evaluation import (
    LandmarkErrorResult,
    LandmarkSet,
    field_difference_stats,
    landmark_error,
    min_jacobian_det,
    sample_deformation,
)
from ngfreg.geometry import DeformationField, Grid3, GridError, make_identity


def _grid(dims, spacing=(1, 1, 1), origin=(0, 0, 0)):
    return Grid3(dims, spacing, origin)


def test_landmark_set_shapes():
    lm = LandmarkSet(np.arange(12.0))
    assert lm.count == 4
    with pytest.raises(ValueError):
        LandmarkSet(np.array([[np.nan, 0, 0]]))


def test_sample_identity_returns_points():
    g = _grid((8, 8, 8), (1.5, 1.5, 1.5), (1.0, 2.0, 3.0))
    y = make_identity(g)
    pts = np.array([[2.0, 3.0, 4.0], [5.5, 6.25, 7.0], [1.0, 2.0, 3.0]])
    out = sample_deformation(y, pts)
    assert np.allclose(out, pts, atol=1e-12)


def test_sample_clamps_outside_domain():
    g = _grid((4, 4, 4))
    field = make_identity(g).field + 1.0
    y = DeformationField(g, field)
    # far outside: value equals the nearest corner cell value
    out = sample_deformation(y, np.array([[-100.0, -100.0, -100.0]]))
    assert np.allclose(out[0], field[:, 0, 0, 0])


def test_sample_is_linear_between_nodes():
    g = _grid((3, 1, 1), (2.0, 1.0, 1.0))
    field = make_identity(g).field.copy()
    field[1] = np.array([1.0, 3.0, 7.0]).reshape(1, 1, 3)
    y = DeformationField(g, field)
    out = sample_deformation(y, np.array([[1.0, 0.0, 0.0]]))  # halfway node 0-1
    assert np.isclose(out[0, 1], 2.0)


def test_landmark_error_identity_measures_displacement():
    g = _grid((10, 10, 10))
    y = make_identity(g)
    ref = LandmarkSet(np.array([[2.0, 2.0, 2.0], [5.0, 5.0, 5.0]]))
    tmpl = LandmarkSet(np.array([[2.0, 2.0, 5.0], [5.0, 1.0, 5.0]]))
    res = landmark_error(y, ref, tmpl, g)
    assert np.allclose(res.per_landmark_mm, [3.0, 4.0])
    assert np.isclose(res.mean_mm, 3.5)
    assert np.isclose(res.stddev_mm, 0.5)  # population stddev
    assert not res.outside_domain.any()


def test_landmark_error_flags_outside_points():
    g = _grid((4, 4, 4))
    ref = LandmarkSet(np.array([[1.0, 1.0, 1.0], [50.0, 1.0, 1.0]]))
    tmpl = LandmarkSet(np.array([[1.0, 1.0, 1.0], [50.0, 1.0, 1.0]]))
    res = landmark_error(make_identity(g), ref, tmpl, g)
    assert list(res.outside_domain) == [False, True]


def test_landmark_error_count_mismatch():
    g = _grid((4, 4, 4))
    with pytest.raises(ValueError):
        landmark_error(make_identity(g),
                       LandmarkSet(np.zeros((2, 3))),
                       LandmarkSet(np.zeros((3, 3))), g)


def test_field_difference_stats():
    g = _grid((4, 4, 4))
    a = make_identity(g)
    field = a.field.copy()
    field[0, 0, 0, 0] += 3.0
    field[1, 0, 0, 0] += 4.0
    b = DeformationField(g, field)
    mx, mean, vol = field_difference_stats(a, b)
    assert mx == 5.0
    assert np.isclose(mean, 5.0 / g.num_points)
    assert vol.values[0, 0, 0] == 5.0
    with pytest.raises(GridError):
        field_difference_stats(a, make_identity(_grid((5, 4, 4))))


@pytest.mark.parametrize("dims", [(6, 5, 4), (6, 5, 1)])
def test_min_jacobian_det_of_linear_maps(dims):
    # differences are exact on a linear map, so det grad y is det A everywhere;
    # along an axis of one point the map keeps that coordinate
    g = _grid(dims, (1.0, 1.5, 2.0), (0.5, -1.0, 2.0))
    A = np.array([[1.2, 0.3, 0.0], [-0.1, 0.9, 0.0], [0.0, 0.0, 1.0]])
    if dims[2] > 1:
        A[:, 2] = [0.2, 0.1, 0.8]
    x = make_identity(g).field
    y = DeformationField(g, np.einsum("ca,a...->c...", A, x))
    assert min_jacobian_det(make_identity(g)) == pytest.approx(1.0, abs=1e-12)
    assert min_jacobian_det(y) == pytest.approx(np.linalg.det(A), abs=1e-12)
    flipped = y.field.copy()
    flipped[0] *= -1.0
    assert min_jacobian_det(DeformationField(g, flipped)) < 0
