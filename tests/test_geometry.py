import numpy as np
import pytest

from ngfreg.geometry import (
    DeformationField,
    Grid3,
    GridError,
    Image3,
    identity_field_array,
    make_identity,
    precision_dtype,
)


def test_single_cell_identity():
    g = Grid3((1, 1, 1), (1, 1, 1), (0, 0, 0))
    y = make_identity(g)
    assert y.field.shape == (3, 1, 1, 1)
    assert np.array_equal(y.field.ravel(), [0, 0, 0])


def test_two_cell_identity():
    g = Grid3((2, 1, 1), (2, 1, 1), (0, 0, 0))
    y = make_identity(g)
    assert np.array_equal(y.field[0].ravel(), [0, 2])
    assert np.array_equal(y.field[1].ravel(), [0, 0])
    assert np.array_equal(y.field[2].ravel(), [0, 0])


def test_identity_displacement_is_exactly_zero():
    g = Grid3((4, 3, 5), (0.7, 1.3, 2.1), (-1.0, 2.0, 0.5))
    assert np.all(make_identity(g).displacement() == 0)


def test_grid_validation():
    with pytest.raises(GridError):
        Grid3((0, 1, 1), (1, 1, 1), (0, 0, 0))
    with pytest.raises(GridError):
        Grid3((1, 1, 1), (0, 1, 1), (0, 0, 0))
    with pytest.raises(GridError):
        Grid3((1, 1, 1), (1, 1, 1), (float("nan"), 0, 0))


def test_image_validation():
    g = Grid3((2, 2, 2), (1, 1, 1), (0, 0, 0))
    with pytest.raises(GridError):
        Image3(g, np.zeros((2, 2, 3)))
    with pytest.raises(GridError):
        Image3(g, np.full(g.shape, np.inf))


def test_image_astype_returns_itself_or_a_checked_copy():
    g = Grid3((2, 2, 2), (1, 1, 1), (0, 0, 0))
    img = Image3(g, np.full(g.shape, 1e39))
    assert img.astype(np.float64) is img
    assert img.astype("float64") is img
    with pytest.raises(GridError, match="non-finite"):  # 1e39 overflows f32
        img.astype(np.float32)
    small = Image3(g, np.full(g.shape, 3.0))
    assert small.astype(np.float32).values.dtype == np.float32


def test_identity_field_matches_world_coordinates():
    g = Grid3((3, 4, 2), (0.9, 1.1, 2.0), (5.0, -2.0, 1.0))
    f = identity_field_array(g)
    for k in range(2):
        for j in range(4):
            for i in range(3):
                world = tuple(o + n * h for o, n, h in zip(g.origin, (i, j, k), g.spacing))
                assert tuple(f[:, k, j, i]) == world


def test_deformation_rejects_nonfinite():
    g = Grid3((2, 2, 2), (1, 1, 1), (0, 0, 0))
    bad = identity_field_array(g)
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(GridError):
        DeformationField(g, bad)


def test_precision_dtype():
    assert precision_dtype("f32") is np.float32
    assert precision_dtype("f64") is np.float64
    with pytest.raises(ValueError):
        precision_dtype("f16")


def test_same_extent():
    a = Grid3((4, 4, 4), (1, 1, 1), (0.5, 0.5, 0.5))
    b = Grid3((2, 2, 2), (2, 2, 2), (1.0, 1.0, 1.0))
    assert a.same_extent(b)
    c = Grid3((2, 2, 2), (2, 2, 2), (0.5, 1.0, 1.0))
    assert not a.same_extent(c)
