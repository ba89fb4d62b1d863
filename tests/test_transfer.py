import numpy as np
import pytest

from ngfreg.geometry import DeformationField, Grid3, GridError, VectorField3, make_identity
from ngfreg import parallel
from ngfreg.transfer import PT_VARIANTS, apply_P, apply_Pt, build_gather_plan, dense_P_oracle

from conftest import random_grid_pair


def _grid(dims, spacing=(1, 1, 1), origin=(0, 0, 0)):
    return Grid3(dims, spacing, origin)


def _def_grid_like(image_grid, dd):
    hd = tuple(n * s / m for n, s, m in zip(image_grid.dims, image_grid.spacing, dd))
    od = tuple(o - s / 2 + sd / 2
               for o, s, sd in zip(image_grid.origin, image_grid.spacing, hd))
    return Grid3(dd, hd, od)


def test_apply_P_identity_when_grids_match(rng):
    g = _grid((4, 3, 5))
    y = DeformationField(g, make_identity(g).field + rng.standard_normal((3,) + g.shape))
    out = apply_P(y, g)
    assert np.array_equal(out.field, y.field)


def test_apply_P_preserves_constants(rng):
    gd, gi = random_grid_pair(rng)
    c = np.array([1.5, -2.25, 0.75])
    y = DeformationField(gd, np.broadcast_to(c[:, None, None, None], (3,) + gd.shape).copy())
    out = apply_P(y, gi)
    for k in range(3):
        assert np.array_equal(out.field[k], np.full(gi.shape, c[k]))


def test_apply_P_matches_dense_oracle_1d():
    gi = _grid((4, 1, 1))
    gd = _def_grid_like(gi, (2, 1, 1))
    P = dense_P_oracle(gd, gi)
    y = DeformationField(gd, make_identity(gd).field * 1.7 + 0.3)
    out = apply_P(y, gi)
    for c in range(3):
        assert np.allclose(out.field[c].ravel(), P @ y.field[c].ravel(), atol=1e-13)


def test_incompatible_grids_rejected():
    gi = _grid((4, 4, 4))
    bad = Grid3((2, 2, 2), (2, 2, 2), (10, 0, 0))
    y = make_identity(bad)
    with pytest.raises(GridError):
        apply_P(y, gi)
    with pytest.raises(GridError):
        build_gather_plan(bad, gi)


def test_gather_plan_equal_grids_is_identity():
    g = _grid((3, 4, 2))
    plan = build_gather_plan(g, g)
    for a, ap in enumerate(plan.axes):
        dense = np.zeros((g.dims[a], g.dims[a]))
        for d in range(g.dims[a]):
            n = ap.counts[d]
            dense[d, ap.start[d]: ap.start[d] + n] = ap.weights[d, :n]
        assert np.allclose(dense, np.eye(g.dims[a]), atol=1e-14)


def test_gather_plan_partition_of_unity(rng):
    for _ in range(10):
        gd, gi = random_grid_pair(rng)
        plan = build_gather_plan(gd, gi)
        for a, ap in enumerate(plan.axes):
            # weights summed per image index over all deformation points == 1
            col = np.zeros(gi.dims[a])
            for d in range(gd.dims[a]):
                n = ap.counts[d]
                col[ap.start[d]: ap.start[d] + n] += ap.weights[d, :n]
            assert np.allclose(col, 1.0, atol=1e-12)
            # total weight mass equals the number of image points on the axis
            assert np.isclose(ap.weights.sum(), gi.dims[a], atol=1e-10)
            # ranges collectively cover every image index
            covered = np.zeros(gi.dims[a], dtype=bool)
            for d in range(gd.dims[a]):
                covered[ap.start[d]: ap.start[d] + ap.counts[d]] = True
            assert covered.all()


def test_pt_identity_when_grids_match(rng):
    g = _grid((3, 5, 4))
    plan = build_gather_plan(g, g)
    r = VectorField3(g, rng.standard_normal((3,) + g.shape))
    for variant in PT_VARIANTS:
        assert np.array_equal(apply_Pt(r, plan, variant).field, r.field)


def test_pt_zero_input(rng):
    gd, gi = random_grid_pair(rng)
    plan = build_gather_plan(gd, gi)
    r = VectorField3(gi, np.zeros((3,) + gi.shape))
    for variant in PT_VARIANTS:
        assert np.all(apply_Pt(r, plan, variant).field == 0)


def test_all_variants_match_dense_oracle(rng):
    for _ in range(15):
        gd, gi = random_grid_pair(rng, max_dim=8)
        P = dense_P_oracle(gd, gi)
        plan = build_gather_plan(gd, gi)
        r = VectorField3(gi, rng.standard_normal((3,) + gi.shape))
        for variant in PT_VARIANTS:
            out = apply_Pt(r, plan, variant)
            for c in range(3):
                ref = (P.T @ r.field[c].ravel()).reshape(gd.shape)
                assert np.max(np.abs(out.field[c] - ref)) < 1e-13 * (np.abs(ref).max() + 1)


def test_adjoint_identity(rng):
    for _ in range(20):
        gd, gi = random_grid_pair(rng)
        plan = build_gather_plan(gd, gi)
        y = DeformationField(gd, make_identity(gd).field + rng.standard_normal((3,) + gd.shape))
        z = VectorField3(gi, rng.standard_normal((3,) + gi.shape))
        px = apply_P(y, gi)
        lhs = float(np.sum(px.field * z.field))
        for variant in PT_VARIANTS:
            rhs = float(np.sum(y.field * apply_Pt(z, plan, variant).field))
            assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + 1)


def test_gather_bit_identical_across_workers(rng, monkeypatch):
    # gather and redblack are bit-identical for any worker count (README);
    # a one-plane chunk size also splits the xy reduction at every z-plane.
    # The second pair feeds about 6 image planes into each output plane, so
    # a summation order that followed the worker partition would show.
    chunks = (parallel._CHUNK_VOXELS, 1)
    gi = _grid((9, 7, 31))
    for gd, gi in (random_grid_pair(rng), (_def_grid_like(gi, (3, 2, 5)), gi)):
        plan = build_gather_plan(gd, gi)
        r = VectorField3(gi, rng.standard_normal((3,) + gi.shape))
        for variant in ("gather", "redblack"):
            base = apply_Pt(r, plan, variant, workers=1).field
            for chunk in chunks:
                monkeypatch.setattr(parallel, "_CHUNK_VOXELS", chunk)
                for w in (1, 2, 8):
                    out = apply_Pt(r, plan, variant, workers=w).field
                    assert out.tobytes() == base.tobytes()


def test_apply_P_bit_identical_across_workers(rng):
    gd, gi = random_grid_pair(rng)
    y = DeformationField(gd, make_identity(gd).field + rng.standard_normal((3,) + gd.shape))
    base = apply_P(y, gi, workers=1).field
    for w in (2, 8):
        assert np.array_equal(apply_P(y, gi, workers=w).field, base)


def test_variants_agree_on_random_inputs(rng):
    for _ in range(10):
        gd, gi = random_grid_pair(rng)
        plan = build_gather_plan(gd, gi)
        r = VectorField3(gi, rng.standard_normal((3,) + gi.shape))
        a = apply_Pt(r, plan, "gather").field
        scale = np.abs(a).max() + 1
        for variant in ("scatter", "redblack"):
            out = apply_Pt(r, plan, variant, workers=4)
            assert np.max(np.abs(out.field - a)) <= 1e-12 * scale


def test_dense_oracle_identity_and_rows():
    g = _grid((2, 2, 2))
    P = dense_P_oracle(g, g)
    assert np.array_equal(P, np.eye(8))
    gd, gi = _def_grid_like(_grid((5, 4, 3)), (2, 2, 2)), _grid((5, 4, 3))
    P = dense_P_oracle(gd, gi)
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-13)


def test_dense_oracle_size_guard():
    big = _grid((9, 9, 9))
    with pytest.raises(ValueError):
        dense_P_oracle(big, big)


def test_pt_rejects_mismatched_plan(rng):
    gd, gi = random_grid_pair(rng)
    plan = build_gather_plan(gd, gi)
    other = Grid3(tuple(d + 1 for d in gi.dims), gi.spacing, gi.origin)
    r = VectorField3(other, np.zeros((3,) + other.shape))
    for variant in PT_VARIANTS:
        with pytest.raises(GridError):
            apply_Pt(r, plan, variant)


def test_pt_rejects_unknown_variant(rng):
    gd, gi = random_grid_pair(rng)
    plan = build_gather_plan(gd, gi)
    r = VectorField3(gi, np.zeros((3,) + gi.shape))
    with pytest.raises(ValueError, match="bogus"):
        apply_Pt(r, plan, "bogus")
