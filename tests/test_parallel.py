import gc
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from ngfreg import ngf, parallel
from ngfreg.geometry import DeformationField, Grid3, Image3, make_identity
from ngfreg.lbfgs import LbfgsConfig
from ngfreg.multilevel import MultilevelConfig, deformation_grid_for, register
from ngfreg.ngf import NgfParams, distance_and_gradient
from ngfreg.objective import LevelObjective
from ngfreg.synthetic import gaussian_bump_mapping, make_registration_pair, smooth_random_volume
from ngfreg.transfer import build_gather_plan

from conftest import assert_reaped

SRC = Path(__file__).resolve().parents[1] / "src"

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


def test_grid_of_one_chunk_runs_inline(fresh_pools, forks):
    # a whole 16^3 evaluation is less than one chunk: with workers=2 every
    # slab call of the sweep and of P^T runs on the caller's thread
    g = Grid3((16, 16, 16), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    plan = build_gather_plan(deformation_grid_for(g, 2), g)
    distance_and_gradient(make_identity(plan.def_grid), smooth_random_volume(g, seed=1),
                          smooth_random_volume(g, seed=2), plan, NgfParams(), workers=2)
    assert sum(p.submitted for p in fresh_pools) == 0
    assert forks == []


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


def _objective(workers, n=8):
    """A LevelObjective on an n^3 grid, its deformation grid n/2 per axis, and a
    point x; with one-plane chunks its sweep has `workers` slabs."""
    g = Grid3((n, n, n), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    plan = build_gather_plan(deformation_grid_for(g, 2), g)
    obj = LevelObjective(template=smooth_random_volume(g, seed=1),
                         ref=smooth_random_volume(g, seed=2), plan=plan, params=NgfParams(),
                         alpha=1.0, workers=workers)
    rng = np.random.default_rng(3)
    x = (make_identity(plan.def_grid).field
         + 0.3 * rng.standard_normal((3,) + plan.def_grid.shape)).ravel()
    return obj, x


def test_objective_keeps_its_children_until_closed(one_plane_chunks, forks):
    obj, x = _objective(3)
    J1, g1 = _objective(1)[0](x)
    for _ in range(3):
        J, g = obj(x)
        assert J == J1 and g.tobytes() == g1.tobytes()
    assert len(forks) == 2  # one child per slab after the first, forked once
    obj.close()
    assert_reaped(forks)
    obj(x)  # a call after close() forks again
    assert len(forks) == 4
    obj.close()
    assert_reaped(forks)


def test_children_of_a_collected_objective_are_reaped(one_plane_chunks, forks):
    obj, x = _objective(2)
    obj(x)
    assert len(forks) == 1
    del obj
    gc.collect()
    assert_reaped(forks)


def test_bare_call_reaps_its_children(one_plane_chunks, forks):
    obj, x = _objective(2)
    grid = obj.plan.def_grid
    y = DeformationField(grid, x.reshape((3,) + grid.shape))
    distance_and_gradient(y, obj.ref, obj.template, obj.plan, obj.params, workers=2)
    assert len(forks) == 1
    assert_reaped(forks)


def test_sweep_on_a_pool_thread_runs_inline(one_plane_chunks, forks):
    obj, x = _objective(2)
    grid = obj.plan.def_grid
    y = DeformationField(grid, x.reshape((3,) + grid.shape))

    def sweep():
        return distance_and_gradient(y, obj.ref, obj.template, obj.plan, obj.params, workers=2)

    (D1, g1), (D2, g2) = parallel.run_tasks([sweep, sweep], 2)
    assert forks == []
    assert D1 == D2 and g1.field.tobytes() == g2.field.tobytes()


def test_register_reaps_every_level_s_children(one_plane_chunks, forks):
    g = Grid3((16, 16, 16), (2.0, 2.0, 2.0), (0.0, 0.0, 0.0))
    center = tuple(o + e / 2 for o, e in zip(g.origin, g.extent))
    R, T = make_registration_pair(
        g, gaussian_bump_mapping(center, sigma_mm=8.0, amplitude_mm=(1.5, -1.0, 0.5)))
    cfg = MultilevelConfig(coarsest_min_dim=8, workers=2, lbfgs=LbfgsConfig(max_iterations=3))
    register(R, T, cfg)
    assert len(forks) == 2  # one child per level
    assert_reaped(forks)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_register_that_raises_in_the_sweep_reaps_its_children(one_plane_chunks, forks):
    # planes of +-3e38 are finite in f32, but their differences overflow
    g = Grid3((8, 7, 6), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    sign = np.where(np.arange(6) % 2 == 0, 1.0, -1.0)[:, None, None]
    huge = Image3(g, (3e38 * sign + np.zeros(g.shape)).astype(np.float32))
    smooth = smooth_random_volume(g, seed=5).astype(np.float32)
    cfg = MultilevelConfig(num_levels=1, grid_ratio=1, precision="f32", workers=2)
    with pytest.raises(FloatingPointError, match="reference gradient"):
        register(huge, smooth, cfg)
    assert len(forks) == 1
    assert_reaped(forks)


def test_killed_child_fails_the_next_evaluation_and_is_reaped(one_plane_chunks, forks):
    obj, x = _objective(3)
    J, g = obj(x)
    os.kill(forks[1], signal.SIGKILL)
    with pytest.raises(RuntimeError,
                       match=r"worker process for image z-planes 6:8 was killed by signal 9"):
        obj(x)
    assert_reaped(forks)
    J2, g2 = obj(x)  # the next one forks again
    assert J2 == J and g2.tobytes() == g.tobytes()
    assert len(forks) == 4
    obj.close()
    assert_reaped(forks)


def test_error_in_a_child_reaches_the_caller(one_plane_chunks, forks, monkeypatch):
    caller = os.getpid()
    ratio = ngf._ratio

    def failing_ratio(*args):
        if os.getpid() != caller:
            raise KeyError("no ratio in a child")
        return ratio(*args)

    monkeypatch.setattr(ngf, "_ratio", failing_ratio)
    obj, x = _objective(2)
    with pytest.raises(KeyError, match="no ratio in a child") as info:
        obj(x)
    assert any("image z-planes 4:8" in note for note in info.value.__notes__)
    assert any("failing_ratio" in note for note in info.value.__notes__)  # the child's traceback
    with pytest.raises(KeyError):  # the child lives on, and fails again
        obj(x)
    assert len(forks) == 1
    obj.close()
    assert_reaped(forks)


_EXIT_SCRIPT = """
import atexit, os
# registered before any weakref.finalize exists, so it runs after their exit hook
atexit.register(lambda: print("unreaped", [p for p in pids if not reaped(p)]))

def reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False

pids = []
fork = os.fork
def recording_fork():
    pid = fork()
    if pid:
        pids.append(pid)
    return pid
os.fork = recording_fork

from ngfreg import geometry, multilevel, ngf, objective, parallel, synthetic, transfer
parallel._CHUNK_VOXELS = 1  # one-plane chunks: an 8^3 sweep has two slabs
g = geometry.Grid3((8, 8, 8), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
plan = transfer.build_gather_plan(multilevel.deformation_grid_for(g, 2), g)
obj = objective.LevelObjective(
    template=synthetic.smooth_random_volume(g, seed=1),
    ref=synthetic.smooth_random_volume(g, seed=2), plan=plan, params=ngf.NgfParams(),
    alpha=1.0, workers=2)
obj(geometry.make_identity(plan.def_grid).field.ravel())
print("forked", len(pids))
"""


def test_children_of_an_objective_never_closed_are_reaped_at_exit():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", _EXIT_SCRIPT], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["forked 1", "unreaped []"]
