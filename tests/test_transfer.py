import numpy as np
import pytest

from ngfreg.geometry import DeformationField, Grid3, GridError, VectorField3, make_identity
from ngfreg import parallel
from ngfreg.transfer import (
    PT_VARIANTS,
    _axis_factor,
    _axis_transfer,
    apply_P,
    apply_Pt,
    build_gather_plan,
    dense_P_oracle,
)

from conftest import (DEFAULT_CHUNK, coarse_plane_grid_pairs, def_grid_over, default_chunks,
                      random_grid_pair)


def _grid(dims, spacing=(1, 1, 1), origin=(0, 0, 0)):
    return Grid3(dims, spacing, origin)


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
    gd = def_grid_over(gi, (2, 1, 1))
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


def _assembled(blocks, nd, axis):
    """The (n_image, n_def) factor that an AxisBlocks' reduce and interp blocks
    each cut, put back together; each must cover its own part exactly once.
    Along z (axis 2), where P reads the z band, there are no interp blocks and
    only the reduce factor is returned."""
    last = axis == 0
    reduce, interp = np.zeros((blocks.size, nd)), np.zeros((blocks.size, nd))
    seen_d, seen_i = np.zeros(nd, int), np.zeros(blocks.size, int)
    for d, s, B in blocks.reduce:
        assert B.flags.c_contiguous
        reduce[s, d] = B if last else B.T
        seen_d[d] += 1
    assert (seen_d == 1).all()
    if axis == 2:
        assert blocks.interp == ()
        return (reduce,)
    for i, c, A in blocks.interp:
        assert A.flags.c_contiguous
        interp[i, c] = A.T if last else A
        seen_i[i] += 1
    assert (seen_i == 1).all()
    return reduce, interp


def test_gather_plan_equal_grids_is_identity():
    g = _grid((3, 4, 2))
    plan = build_gather_plan(g, g)
    for a, blocks in enumerate(plan.weights(np.float64)[:3]):
        for dense in _assembled(blocks, g.dims[a], a):
            assert np.array_equal(dense, np.eye(g.dims[a]))


def test_gather_plan_partition_of_unity(rng):
    for _ in range(10):
        gd, gi = random_grid_pair(rng)
        plan = build_gather_plan(gd, gi)
        # along each axis each image row of the blocks sums to 1
        for a, blocks in enumerate(plan.weights(np.float64)[:3]):
            for dense in _assembled(blocks, gd.dims[a], a):
                assert np.allclose(dense.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocks_assemble_to_the_axis_factor(rng, dtype):
    # the factor dense_P_oracle is built from, bit for bit, in both cuts;
    # the last pair has several blocks along y and z and a one-point coarse x axis
    gi = _grid((5, 40, 70))
    pairs = [random_grid_pair(rng, max_dim=40) for _ in range(10)]
    pairs.append((def_grid_over(gi, (1, 10, 18)), gi))
    for gd, gi in pairs:
        plan = build_gather_plan(gd, gi)
        for a, blocks in enumerate(plan.weights(dtype)[:3]):
            F = _axis_factor(*_axis_transfer(gi, gd, a), gd.dims[a]).astype(dtype)
            assert blocks.size == gi.dims[a]
            for dense in _assembled(blocks, gd.dims[a], a):
                assert dense.astype(dtype).tobytes() == F.tobytes()


def test_one_point_coarse_axes_match_dense_oracle(rng):
    gi = _grid((6, 5, 7), (0.9, 1.1, 1.3), (1.0, -2.0, 0.5))
    for dd in ((1, 1, 1), (1, 3, 2), (4, 1, 1)):
        gd = def_grid_over(gi, dd)
        P = dense_P_oracle(gd, gi)
        plan = build_gather_plan(gd, gi)
        y = DeformationField(gd, rng.standard_normal((3,) + gd.shape))
        r = VectorField3(gi, rng.standard_normal((3,) + gi.shape))
        px, ptr = apply_P(y, gi).field, apply_Pt(r, plan).field
        for c in range(3):
            assert np.allclose(px[c].ravel(), P @ y.field[c].ravel(), atol=1e-13)
            assert np.allclose(ptr[c].ravel(), P.T @ r.field[c].ravel(), atol=1e-12)


@pytest.mark.parametrize("n", [256, 512])
def test_block_products_stay_below_blas_threading(n):
    # OpenBLAS runs a product with M*N*K <= 2^18 on one thread, so the BLAS
    # thread count cannot change its bits; this holds the blocks to that
    # size at the default grid ratio for grids of 256^3 and 512^3 points
    gi = _grid((n, n, n))
    nd = n // 4
    gd = def_grid_over(gi, (nd, nd, nd))
    bx, by, bz, _ = build_gather_plan(gd, gi).weights(np.float64)
    products = [(n, *B.shape) for _, _, B in bx.reduce]            # P^T along x: (ny, nx) planes
    products += [(*B.shape, nd) for _, _, B in by.reduce]          # then along y: (ny, nx_d)
    products += [(*B.shape, nd) for _, _, B in bz.reduce]          # then along z: (nz, nx_d) rows
    products += [(nd, *A.shape) for _, _, A in bx.interp]          # P along x: (ny_d, nx_d)
    products += [(*A.shape, n) for _, _, A in by.interp]           # then along y: (ny_d, nx)
    assert len(products) == 5 * nd // 8
    assert max(m * k * p for m, k, p in products) <= 1 << 18


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


def test_gather_bit_identical_across_workers(rng, monkeypatch, one_plane_chunks):
    # every variant is bit-identical for any chunk size (README), and so for
    # any worker count of the sweep, whose slabs are runs of chunks; the base
    # runs whole, in one chunk of the module's size, and a one-plane chunk
    # size splits the xy reduction at every z-plane.
    # The second pair feeds about 6 image planes into each output plane, so
    # a summation order that followed the chunks would show.
    gi = _grid((9, 7, 31))
    for gd, gi in (random_grid_pair(rng), (def_grid_over(gi, (3, 2, 5)), gi)):
        plan = build_gather_plan(gd, gi)
        r = VectorField3(gi, rng.standard_normal((3,) + gi.shape))
        for variant in PT_VARIANTS:
            with default_chunks():
                base = apply_Pt(r, plan, variant).field
            for chunk in (DEFAULT_CHUNK, 1):
                monkeypatch.setattr(parallel, "_CHUNK_VOXELS", chunk)
                assert apply_Pt(r, plan, variant).field.tobytes() == base.tobytes()
    assert max(one_plane_chunks) >= 2


def test_apply_P_bit_identical_across_workers(rng, one_plane_chunks):
    # a random pair, then the pairs whose chunks read coarse z-planes in
    # other patterns; one-plane chunks against the whole grid in one chunk
    for gd, gi in [random_grid_pair(rng)] + coarse_plane_grid_pairs():
        y = DeformationField(gd, make_identity(gd).field + rng.standard_normal((3,) + gd.shape))
        with default_chunks():
            assert gi.num_points <= DEFAULT_CHUNK
            base = apply_P(y, gi).field
        assert apply_P(y, gi).field.tobytes() == base.tobytes()
    assert max(one_plane_chunks) >= 2


def test_variants_agree_on_random_inputs(rng, one_plane_chunks):
    for _ in range(10):
        gd, gi = random_grid_pair(rng)
        plan = build_gather_plan(gd, gi)
        r = VectorField3(gi, rng.standard_normal((3,) + gi.shape))
        with default_chunks():
            a = apply_Pt(r, plan, "gather").field
        scale = np.abs(a).max() + 1
        for variant in ("scatter", "redblack"):
            out = apply_Pt(r, plan, variant)
            assert np.max(np.abs(out.field - a)) <= 1e-12 * scale
    assert max(one_plane_chunks) >= 2


def test_dense_oracle_identity_and_rows():
    g = _grid((2, 2, 2))
    P = dense_P_oracle(g, g)
    assert np.array_equal(P, np.eye(8))
    gd, gi = def_grid_over(_grid((5, 4, 3)), (2, 2, 2)), _grid((5, 4, 3))
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
