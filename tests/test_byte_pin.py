"""The bytes of whole registrations and of single evaluations, pinned.

A change that claims to keep every byte (a faster or leaner kernel, say)
must leave these hashes as they are. A change that moves bytes on purpose
records the new hashes here and says why. The hashes hold for one numpy
version only: pairwise summation and SIMD loops may round differently in
another, so the test is skipped there.
"""

import hashlib

import numpy as np
import pytest

from ngfreg import multilevel, synthetic
from ngfreg.cli import EXIT_OK, main
from ngfreg.evaluation import sample_deformation
from ngfreg.fileio import read_volume, write_volume
from ngfreg.geometry import Grid3
from ngfreg.ngf import NgfParams
from ngfreg.objective import LevelObjective
from ngfreg.transfer import build_gather_plan

PINNED_NUMPY = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != PINNED_NUMPY,
    reason=f"the pinned hashes were recorded with numpy {PINNED_NUMPY}, not {np.__version__}")


def _hash(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def _bump_register(dims, spacing, sigma, cfg):
    """register on the Gaussian-bump pair of dims^3 voxels at `spacing` mm:
    the hash of the deformation and the evaluations per level."""
    grid = Grid3((dims,) * 3, (spacing,) * 3, (0.0, 0.0, 0.0))
    center = tuple(o + e / 2 for o, e in zip(grid.origin, grid.extent))
    mapping = synthetic.gaussian_bump_mapping(center, sigma, (3.0, -2.0, 1.5))
    R, T = synthetic.make_registration_pair(grid, mapping)
    y, report = multilevel.register(R, T, cfg)
    return _hash(y.field), [1 + sum(r.ls_evals for r in lv.records) for lv in report.levels]


@pytest.mark.parametrize("dims, spacing, sigma, cfg, expected, evals", [
    (48, 1.25, 14.0, multilevel.MultilevelConfig(coarsest_min_dim=12, alpha=1.0, workers=1),
     "af39173505b19a20", [17, 18, 20]),
    (64, 1.0, 18.0, multilevel.MultilevelConfig(workers=2), "b57e51098365d130", [23, 22, 20]),
], ids=["reg48", "reg64"])
def test_register_bytes_and_evaluations(dims, spacing, sigma, cfg, expected, evals):
    assert _bump_register(dims, spacing, sigma, cfg) == (expected, evals)


@pytest.mark.parametrize("dtype, expected_J, expected", [
    (np.float64, 625.3618118334554, "e8a36db324f37d4c"),
    (np.float32, 625.361812889576, "34a885295f86d6fb"),
], ids=["float64", "float32"])
def test_level_objective_bytes(dtype, expected_J, expected):
    # a small anisotropic, off-origin pair whose deformation moves border
    # voxels outside the template's hull
    g = Grid3((13, 11, 9), (1.1, 0.9, 1.3), (-3.0, 2.0, 0.5))
    gd = multilevel.deformation_grid_for(g, 4)
    T = synthetic.smooth_random_volume(g, seed=1).astype(dtype)
    R = synthetic.smooth_random_volume(g, seed=2).astype(dtype)
    x = synthetic.smooth_random_field(gd, seed=3, amplitude_mm=2.0).field.astype(dtype).ravel()
    obj = LevelObjective(template=T, ref=R, plan=build_gather_plan(gd, g), params=NgfParams(),
                         alpha=1.0, pt_variant="gather", workers=1)
    J, grad = obj(x)
    obj.close()
    assert grad.dtype == dtype
    assert (J, _hash(grad)) == (expected_J, expected)


@pytest.mark.parametrize("dtype, expected", [(np.float64, "f2ce946c87806133"),
                                             (np.float32, "89b2ca6f5554173f")],
                         ids=["float64", "float32"])
def test_resample_bytes(tmp_path, dtype, expected):
    # the resampler converts the 1-D axis centres to the input's index
    # coordinates with the kernel's own operations: an anisotropic, off-origin
    # input whose hull the like grid leaves keeps the bytes it had when the
    # kernel converted every position
    src = Grid3((11, 9, 7), (1.3, 0.8, 2.1), (-4.0, 3.5, 10.0))
    like = Grid3((13, 10, 8), (1.05, 0.95, 1.6), (-5.1, 3.0, 9.2))
    a, b, c = (str(tmp_path / name) for name in ("a.mha", "b.mha", "c.mha"))
    write_volume(synthetic.smooth_random_volume(src, seed=4).astype(dtype), a)
    write_volume(synthetic.smooth_random_volume(like, seed=5).astype(dtype), b)
    assert main(["resample", "--input", a, "--like", b, "--out", c]) == EXIT_OK
    out = read_volume(c).values
    assert out.dtype == dtype and _hash(out) == expected


def test_sample_deformation_bytes():
    # world points inside and outside an anisotropic, off-origin grid
    gd = Grid3((7, 6, 5), (2.2, 1.7, 3.1), (-12.0, 4.0, 30.0))
    y = synthetic.smooth_random_field(gd, seed=6, amplitude_mm=3.0)
    lo = np.array(gd.origin)
    hi = lo + np.array(gd.extent)
    points = np.random.default_rng(7).uniform(lo - 3.0, hi + 3.0, (200, 3))
    assert _hash(sample_deformation(y, points)) == "0d3f6c4ccee62254"
