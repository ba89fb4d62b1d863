import os
from contextlib import contextmanager

import numpy as np
import pytest

from ngfreg import parallel
from ngfreg.geometry import Grid3


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
    into several slabs and take the threaded paths; returns the number of
    slabs of every run_slabs call made while the fixture is active."""
    monkeypatch.setattr(parallel, "_CHUNK_VOXELS", 1)
    counts = []
    slab_ranges = parallel.slab_ranges

    def counting_slab_ranges(n, workers):
        ranges = slab_ranges(n, workers)
        counts.append(len(ranges))
        return ranges

    monkeypatch.setattr(parallel, "slab_ranges", counting_slab_ranges)
    return counts


def random_grid_pair(rng, max_dim=9):
    """Random (def_grid, image_grid) pair covering the same world domain."""
    di = tuple(int(x) for x in rng.integers(1, max_dim + 1, 3))
    dd = tuple(int(rng.integers(1, v + 1)) for v in di)
    h = tuple(float(x) for x in rng.uniform(0.5, 3.0, 3))
    o = tuple(float(x) for x in rng.uniform(-5, 5, 3))
    image_grid = Grid3(di, h, o)
    hd = tuple(n * s / m for n, s, m in zip(di, h, dd))
    od = tuple(oo - s / 2 + sd / 2 for oo, s, sd in zip(o, h, hd))
    return Grid3(dd, hd, od), image_grid


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
