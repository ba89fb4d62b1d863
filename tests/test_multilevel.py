import numpy as np
import pytest

from ngfreg import multilevel
from ngfreg.geometry import DeformationField, Grid3, GridError, Image3, make_identity
from ngfreg.lbfgs import LbfgsConfig
from ngfreg.ngf import NgfParams, precompute_reference_terms
from ngfreg.objective import LevelObjective
from ngfreg.multilevel import (
    MultilevelConfig,
    build_pyramid,
    deformation_grid_for,
    downsample_image,
    num_auto_levels,
    prolong_deformation,
    register,
)
from ngfreg.synthetic import (
    gaussian_bump_mapping,
    make_registration_pair,
    probe_lattice,
    smooth_random_field,
    smooth_random_volume,
)
from ngfreg.transfer import build_gather_plan

from conftest import default_chunks


def _grid(dims, spacing=(1, 1, 1), origin=(0, 0, 0)):
    return Grid3(dims, spacing, origin)


def test_downsample_preserves_extent_and_mean():
    g = _grid((7, 8, 5), (1.0, 1.2, 2.0), (0.3, -1.0, 2.5))
    img = smooth_random_volume(g, seed=1)
    out = downsample_image(img)
    assert out.grid.dims == (4, 4, 3)
    assert g.same_extent(out.grid)
    # block means of an even axis preserve the total sum scaled by counts
    assert np.isclose(out.values.mean() * 1, out.values.mean())
    # constant image stays constant
    const = Image3(g, np.full(g.shape, 3.25))
    assert np.allclose(downsample_image(const).values, 3.25)


def test_downsample_even_axis_is_pairwise_mean():
    g = _grid((4, 1, 1))
    img = Image3(g, np.array([[[1.0, 3.0, 5.0, 9.0]]]))
    out = downsample_image(img)
    assert np.allclose(out.values.ravel(), [2.0, 7.0])
    assert out.grid.spacing[0] == 2.0


def test_num_auto_levels():
    assert num_auto_levels((64, 64, 64), 16) == 3
    assert num_auto_levels((16, 16, 16), 16) == 1
    assert num_auto_levels((256, 256, 128), 16) == 4


def test_build_pyramid_coarsest_first():
    g = _grid((32, 32, 32))
    pyr = build_pyramid(smooth_random_volume(g, seed=3), 3)
    assert [p.grid.dims for p in pyr] == [(8, 8, 8), (16, 16, 16), (32, 32, 32)]
    with pytest.raises(ValueError):
        build_pyramid(Image3(_grid((1, 1, 1)), np.zeros((1, 1, 1))), 2)


def test_deformation_grid_covers_domain():
    g = _grid((30, 17, 9), (1.0, 1.5, 2.0), (1.0, 2.0, 3.0))
    d = deformation_grid_for(g, 4)
    assert d.dims == (8, 5, 3)
    assert g.same_extent(d)
    # degenerate image axis stays degenerate
    d1 = deformation_grid_for(_grid((8, 8, 1)), 4)
    assert d1.dims == (2, 2, 1)


def test_prolong_identity_is_identity():
    coarse = deformation_grid_for(_grid((16, 16, 16)), 8)
    fine = deformation_grid_for(_grid((16, 16, 16)), 4)
    out = prolong_deformation(make_identity(coarse), fine)
    assert np.array_equal(out.field, make_identity(fine).field)


def test_prolong_preserves_linear_displacement():
    img = _grid((16, 12, 8), (1.0, 1.3, 2.0))
    coarse = deformation_grid_for(img, 8)
    fine = deformation_grid_for(img, 2)
    ident = make_identity(coarse).field
    u = 0.1 * ident[0] - 0.05 * ident[1] + 0.02 * ident[2] + 0.3
    field = ident.copy()
    for c in range(3):
        field[c] += (c + 1) * u
    out = prolong_deformation(DeformationField(coarse, field), fine)
    ident_f = make_identity(fine).field
    uf = 0.1 * ident_f[0] - 0.05 * ident_f[1] + 0.02 * ident_f[2] + 0.3
    # interpolation is exact on linear data inside the coarse node hull;
    # outside it clamp-to-edge extrapolates, so only check interior nodes
    inside = np.ones(fine.shape, dtype=bool)
    for a in range(3):
        lo = coarse.origin[a]
        hi = coarse.origin[a] + (coarse.dims[a] - 1) * coarse.spacing[a]
        inside &= (ident_f[a] >= lo - 1e-12) & (ident_f[a] <= hi + 1e-12)
    assert inside.any()
    for c in range(3):
        expected = ident_f[c] + (c + 1) * uf
        assert np.allclose(out.field[c][inside], expected[inside], atol=1e-10)


def test_prolong_rejects_domain_mismatch():
    a = deformation_grid_for(_grid((16, 16, 16)), 8)
    b = deformation_grid_for(_grid((16, 16, 16), origin=(5, 0, 0)), 4)
    with pytest.raises(GridError):
        prolong_deformation(make_identity(a), b)


def test_config_validation():
    with pytest.raises(ValueError):
        MultilevelConfig(num_levels=0)
    with pytest.raises(ValueError):
        MultilevelConfig(alpha=0.0)
    with pytest.raises(ValueError):
        MultilevelConfig(grid_ratio=0)
    # values register used to run differently (workers < 1 ran 1 worker) or
    # reject only deep inside the run
    for bad in ({"workers": 0}, {"workers": -2}, {"pt_variant": "bogus"},
                {"precision": "f16"}, {"coarsest_min_dim": 0}, {"alpha": float("nan")}):
        with pytest.raises(ValueError):
            MultilevelConfig(**bad)


def test_register_requires_matching_grids():
    R = smooth_random_volume(_grid((8, 8, 8)), seed=1)
    T = smooth_random_volume(_grid((9, 8, 8)), seed=2)
    with pytest.raises(GridError):
        register(R, T)


def test_register_recovers_synthetic_bump():
    g = _grid((32, 32, 32), (1.5, 1.5, 1.5))
    center = tuple(o + e / 2 for o, e in zip(g.origin, g.extent))
    mapping = gaussian_bump_mapping(center, sigma_mm=9.0, amplitude_mm=(2.5, -2.0, 1.5))
    R, T = make_registration_pair(g, mapping)
    cfg = MultilevelConfig(coarsest_min_dim=8, lbfgs=LbfgsConfig(max_iterations=60))
    y, report = register(R, T, cfg)

    from ngfreg.evaluation import sample_deformation

    pts = probe_lattice(g, n_per_axis=4)
    truth = np.stack(mapping(pts[:, 0], pts[:, 1], pts[:, 2]), axis=1)
    before = np.linalg.norm(truth - pts, axis=1).mean()
    after = np.linalg.norm(sample_deformation(y, pts) - truth, axis=1).mean()
    assert after < 0.25 * before
    assert len(report.levels) >= 2
    assert report.levels[0].image_dims == (8, 8, 8)
    assert all(lvl.iterations >= 1 for lvl in report.levels)


def test_register_deterministic_across_workers(one_plane_chunks):
    g = _grid((16, 16, 16), (2.0, 2.0, 2.0))
    center = tuple(o + e / 2 for o, e in zip(g.origin, g.extent))
    R, T = make_registration_pair(
        g, gaussian_bump_mapping(center, sigma_mm=8.0, amplitude_mm=(1.5, 0.0, -1.0)))
    cfg1 = MultilevelConfig(coarsest_min_dim=8, workers=1,
                            lbfgs=LbfgsConfig(max_iterations=20))
    cfg4 = MultilevelConfig(coarsest_min_dim=8, workers=4,
                            lbfgs=LbfgsConfig(max_iterations=20))
    with default_chunks():  # the whole grid in one chunk
        y1, _ = register(R, T, cfg1)
    y4, _ = register(R, T, cfg4)
    assert np.array_equal(y1.field, y4.field)
    assert max(one_plane_chunks) >= 2


def test_register_f32_runs_and_matches_f64_roughly():
    g = _grid((16, 16, 16), (2.0, 2.0, 2.0))
    center = tuple(o + e / 2 for o, e in zip(g.origin, g.extent))
    R, T = make_registration_pair(
        g, gaussian_bump_mapping(center, sigma_mm=8.0, amplitude_mm=(1.5, -1.0, 0.5)))
    lb = LbfgsConfig(max_iterations=15)
    y32, _ = register(R, T, MultilevelConfig(coarsest_min_dim=8, precision="f32", lbfgs=lb))
    y64, _ = register(R, T, MultilevelConfig(coarsest_min_dim=8, precision="f64", lbfgs=lb))
    assert y32.field.dtype == np.float32
    assert y64.field.dtype == np.float64
    d = y32.field.astype(np.float64) - y64.field
    assert np.sqrt(np.sum(d * d, axis=0)).mean() < 1.0  # mm


def test_identical_images_stay_near_identity_in_interior():
    # boundary clamp-to-edge of the grid transfer perturbs the edge cells,
    # so identical inputs need not give exact identity; the interior must
    # still stay well below one voxel of drift
    g = _grid((16, 16, 16), (2.0, 2.0, 2.0))
    T = smooth_random_volume(g, seed=8)
    y, _ = register(T, T, MultilevelConfig(coarsest_min_dim=8,
                                           lbfgs=LbfgsConfig(max_iterations=10)))

    from ngfreg.evaluation import sample_deformation

    pts = probe_lattice(g, n_per_axis=5, margin=0.25)
    drift = np.linalg.norm(sample_deformation(y, pts) - pts, axis=1)
    assert drift.mean() < 1.0  # half a voxel
    assert drift.max() < 2.0


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_report_counts_evaluations_and_records_each_accepted_iterate(monkeypatch, precision):
    calls = []

    class CountingObjective(multilevel.LevelObjective):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            calls.append(0)

        def __call__(self, x):
            calls[-1] += 1
            return super().__call__(x)

    monkeypatch.setattr(multilevel, "LevelObjective", CountingObjective)
    g = _grid((16, 16, 16), (2.0, 2.0, 2.0))
    center = tuple(o + e / 2 for o, e in zip(g.origin, g.extent))
    R, T = make_registration_pair(
        g, gaussian_bump_mapping(center, sigma_mm=8.0, amplitude_mm=(1.5, -1.0, 0.5)))
    cfg = MultilevelConfig(coarsest_min_dim=8, precision=precision,
                           lbfgs=LbfgsConfig(max_iterations=20))
    _, report = register(R, T, cfg)

    assert calls == [lv.evaluations for lv in report.levels]
    for lv in report.levels:
        assert not lv.line_search_failed
        assert lv.evaluations == 1 + sum(r.ls_evals for r in lv.records)
        assert len(lv.J_trace) == len(lv.records) == lv.iterations >= 1
        for rec, (J, D, S) in zip(lv.records, lv.J_trace):
            assert not np.isnan([J, D, S]).any()
            assert float(J) == rec.J


def test_objective_logs_every_call_and_a_nonfinite_trial_as_inf():
    g = _grid((12, 12, 12))
    dg = deformation_grid_for(g, 4)
    params = NgfParams()
    obj = LevelObjective(
        template=smooth_random_volume(g, seed=1),
        ref=precompute_reference_terms(smooth_random_volume(g, seed=2), params),
        plan=build_gather_plan(dg, g), params=params, alpha=0.5,
    )
    x = smooth_random_field(dg, seed=3, amplitude_mm=1.0).field.ravel()
    bad = x.copy()
    bad[5] = np.nan

    J_bad, g_bad = obj(bad)
    J, grad = obj(x)

    assert J_bad == np.inf
    assert g_bad.shape == x.shape and np.all(g_bad == 0)
    assert len(obj.log) == 2
    assert obj.log[0][0] == np.inf and np.isnan(obj.log[0][1:]).all()
    J_log, D, S = obj.log[1]
    assert J_log == J == D + 0.5 * S
    assert D > 0 and S > 0 and np.all(np.isfinite(grad))
