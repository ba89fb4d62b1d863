import sys
import threading
import time

import numpy as np
import pytest

from ngfreg import parallel
from ngfreg.geometry import Grid3, make_identity
from ngfreg.multilevel import deformation_grid_for
from ngfreg.ngf import NgfParams, distance_and_gradient
from ngfreg.synthetic import smooth_random_volume
from ngfreg.transfer import build_gather_plan

# voxels per index that make every index one chunk, so the slab count is
# min(workers, n) as the pool tests expect
CHUNK = parallel._CHUNK_VOXELS


@pytest.fixture
def fresh_pools(monkeypatch):
    """Start from no pools and count the executors created and the calls
    submitted to each (`submitted`); shut them down after."""
    created = []

    class CountingPool(parallel.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(self)
            self.submitted = 0
            super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            self.submitted += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(parallel, "_pools", {})
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", CountingPool)
    yield created
    for pool in created:
        pool.shutdown(wait=False)


def test_one_pool_per_worker_count(fresh_pools):
    out = np.zeros(20)

    def fill(lo, hi):
        out[lo:hi] += np.arange(lo, hi)

    for i in range(50):
        parallel.run_slabs(fill, 20, CHUNK, 2 + i % 2)
    assert np.array_equal(out, 50 * np.arange(20))
    assert parallel.run_tasks([lambda: 1, lambda: 2, lambda: 3], 2) == [1, 2, 3]
    assert len(fresh_pools) == 2
    assert sorted(p._max_workers for p in fresh_pools) == [2, 3]


def test_nested_call_runs_inline(fresh_pools):
    out = np.zeros((6, 8))

    def outer(lo, hi):
        def inner(c0, c1):
            out[lo:hi, c0:c1] = np.arange(lo, hi)[:, None] * 10 + np.arange(c0, c1)

        parallel.run_slabs(inner, 8, CHUNK, 2)

    # a deadlock would hang the caller, so it runs on a thread with a deadline
    caller = threading.Thread(target=parallel.run_slabs, args=(outer, 6, CHUNK, 2), daemon=True)
    caller.start()
    caller.join(timeout=20)
    assert not caller.is_alive(), "nested run_slabs deadlocked"
    assert np.array_equal(out, np.arange(6)[:, None] * 10 + np.arange(8))
    assert len(fresh_pools) == 1


def test_error_waits_for_every_slab(fresh_pools):
    finished = []
    lock = threading.Lock()

    def fn(lo, hi):
        if lo == 0:
            raise RuntimeError("slab 0 failed")
        time.sleep(0.2)
        with lock:
            finished.append(lo)

    with pytest.raises(RuntimeError, match="slab 0 failed"):
        parallel.run_slabs(fn, 3, CHUNK, 3)
    assert sorted(finished) == [1, 2]
    out = np.zeros(3)
    parallel.run_slabs(lambda lo, hi: out.__setitem__(slice(lo, hi), 1.0), 3, CHUNK, 3)
    assert np.all(out == 1.0)
    assert len(fresh_pools) == 1


def test_concurrent_callers_share_one_pool(fresh_pools):
    # more callers and workers than cores, with frequent thread switches: the
    # lock must leave exactly one pool and every caller its own correct result
    outs = [np.zeros(60) for _ in range(6)]

    def caller(out):
        for _ in range(20):
            parallel.run_slabs(lambda lo, hi: out.__setitem__(slice(lo, hi), out[lo:hi] + 1),
                               60, CHUNK, 3)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(o,), daemon=True) for o in outs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(np.all(o == 20) for o in outs)
    assert len(fresh_pools) == 1


def test_grid_of_one_chunk_runs_inline(fresh_pools):
    # a whole 16^3 evaluation is less than one chunk: with workers=2 every
    # slab call of the sweep and of P^T runs on the caller's thread
    g = Grid3((16, 16, 16), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    plan = build_gather_plan(deformation_grid_for(g, 2), g)
    distance_and_gradient(make_identity(plan.def_grid), smooth_random_volume(g, seed=1),
                          smooth_random_volume(g, seed=2), plan, NgfParams(), workers=2)
    assert sum(p.submitted for p in fresh_pools) == 0


def test_workers_are_a_cap(fresh_pools):
    plane = 64 * 64
    step = parallel.plane_step(plane)
    chunks = []
    parallel.run_planes(lambda k0, k1: chunks.append((k0, k1)), 64, plane, 2)
    assert sorted(chunks) == [(k, k + step) for k in range(0, 64, step)]
    assert sum(p.submitted for p in fresh_pools) == 2  # a 64^3 sweep: 2 slabs

    slabs = []
    parallel.run_slabs(lambda lo, hi: slabs.append((lo, hi)), 3 * step, plane, 8)
    assert sorted(slabs) == [(0, step), (step, 2 * step), (2 * step, 3 * step)]
    assert sum(p.submitted for p in fresh_pools) == 5


def test_workspace_is_a_stack_that_grows_to_its_deepest_frame_once():
    ws = parallel.Workspace()

    def use():
        """Two frames at depth 1 that reach the same depth; returns their arrays."""
        a = ws.array((5, 7), np.float64)
        with ws.frame():
            b = ws.array((3,), np.int64)
        c = ws.array((3,), np.int64)  # b's bytes again
        return a, b, c

    with ws.frame():  # first use: arrays of their own, no buffer yet
        a, b, c = use()
        assert not np.shares_memory(a, ws._buf) and not np.shares_memory(b, c)
    size = ws._buf.size  # the outermost frame closed: the deepest stack's size
    assert size >= a.nbytes + b.nbytes
    with ws.frame():
        a, b, c = use()
        assert np.shares_memory(a, ws._buf) and np.shares_memory(b, c)
        assert not np.shares_memory(a, b)
        assert a.shape == (5, 7) and c.dtype == np.int64
        assert a.ctypes.data % 64 == 0 and b.ctypes.data % 64 == 0
    assert ws._buf.size == size  # nothing deeper: the same buffer
    with ws.frame():
        ws.array((2,), np.float64)
        with ws.frame():
            ws.array((1000,), np.float64)  # deeper: an array of its own for now
        assert ws._buf.size == size  # an array is still taken
    assert ws._buf.size >= 64 + 8000
