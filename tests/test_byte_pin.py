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
     "4dad263d64fea258", [17, 18, 20]),
    (64, 1.0, 18.0, multilevel.MultilevelConfig(workers=2), "b5efe9ff97864e6a", [23, 22, 20]),
], ids=["reg48", "reg64"])
def test_register_bytes_and_evaluations(dims, spacing, sigma, cfg, expected, evals):
    assert _bump_register(dims, spacing, sigma, cfg) == (expected, evals)


@pytest.mark.parametrize("dtype, expected_J, expected", [
    (np.float64, 625.3618118334555, "2bf5a226fa590651"),
    (np.float32, 625.3617518544197, "179438cf663f1091"),
])
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
