import os
from contextlib import contextmanager

import numpy as np
import pytest

from ngfreg import cli, ngf, parallel, transfer, warp
from ngfreg.geometry import Grid3
from ngfreg.ngf import LevelSweep, distance_and_gradient


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# the module's chunk size, read before any test patches it
DEFAULT_CHUNK = parallel._CHUNK_VOXELS


@contextmanager
def default_chunks():
    """The module's own chunk size for a block inside a one_plane_chunks test,
    where a grid of one chunk or less runs whole, in one slab."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parallel, "_CHUNK_VOXELS", DEFAULT_CHUNK)
        yield


@pytest.fixture
def one_plane_chunks(monkeypatch):
    """Chunks of one z-plane, so that grids of one chunk or less still split
    into several chunks and slabs: run_planes walks more than one chunk and a
    LevelSweep built while the fixture is active forks. Returns the chunk
    count of every run_planes call and the slab count of every LevelSweep
    built while the fixture is active."""
    monkeypatch.setattr(parallel, "_CHUNK_VOXELS", 1)
    counts = []
    run_planes, slab_partition = parallel.run_planes, ngf.slab_partition

    def counting_run_planes(fn, nz, plane_voxels):
        counts.append(-(-nz // parallel.plane_step(plane_voxels)))
        run_planes(fn, nz, plane_voxels)

    def counting_slab_partition(n, voxels, workers):
        slabs = slab_partition(n, voxels, workers)
        counts.append(len(slabs))
        return slabs

    # the modules that import run_planes by name
    for module in (parallel, transfer, warp, cli):
        monkeypatch.setattr(module, "run_planes", counting_run_planes)
    monkeypatch.setattr(ngf, "slab_partition", counting_slab_partition)
    return counts


def sweep_once(y, ref, template, plan, params, pt_variant="gather", workers=1):
    """distance_and_gradient of y with a LevelSweep built for this call and
    closed after it."""
    sweep = LevelSweep(ref, template, plan, params, pt_variant, workers)
    try:
        return distance_and_gradient(y, sweep)
    finally:
        sweep.close()


def random_grid_pair(rng, max_dim=9):
    """Random (def_grid, image_grid) pair covering the same world domain."""
    di = tuple(int(x) for x in rng.integers(1, max_dim + 1, 3))
    dd = tuple(int(rng.integers(1, v + 1)) for v in di)
    h = tuple(float(x) for x in rng.uniform(0.5, 3.0, 3))
    o = tuple(float(x) for x in rng.uniform(-5, 5, 3))
    image_grid = Grid3(di, h, o)
    return image_grid.with_dims(dd), image_grid


def def_grid_over(image_grid, def_dims):
    """The deformation grid of def_dims points over the image grid's domain."""
    return image_grid.with_dims(def_dims)


def coarse_plane_grid_pairs():
    """(def_grid, image_grid) pairs whose chunks of image z-planes read
    coarse z-planes in other patterns than at grid ratio 4: grid ratios 3
    and 5, a z axis of one coarse plane (its upper coarse plane is clipped),
    and an anisotropic, off-origin grid of DIR-lab shape."""
    g = Grid3((23, 19, 17), (1.1, 0.9, 1.3), (-3.0, 2.0, 0.5))
    one = Grid3((9, 8, 5), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    aniso = Grid3((40, 37, 15), (0.97, 0.97, 2.5), (-120.3, -80.0, 310.0))
    return [(def_grid_over(g, (8, 7, 6)), g), (def_grid_over(g, (5, 4, 4)), g),
            (def_grid_over(one, (3, 3, 1)), one), (def_grid_over(aniso, (10, 10, 4)), aniso)]


@pytest.fixture
def forks(monkeypatch):
    """The pids of every child process forked while the fixture is active."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    """Each of the pids has exited and been reaped: it is no child of this process."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
