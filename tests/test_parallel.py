import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from ngfreg import ngf, objective, parallel
from ngfreg.geometry import DeformationField, Grid3, Image3, VectorField3, make_identity
from ngfreg.multilevel import MultilevelConfig, deformation_grid_for, register
from ngfreg.ngf import NgfParams
from ngfreg.objective import LevelObjective
from ngfreg.synthetic import (gaussian_bump_mapping, make_registration_pair, smooth_random_field,
                              smooth_random_volume)
from ngfreg.transfer import PT_VARIANTS, apply_P, apply_Pt, build_gather_plan
from ngfreg.warp import warp_image

from conftest import assert_reaped, sweep_once

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def threads(monkeypatch):
    """Every thread started while the fixture is active, by any module."""
    started = []
    start = threading.Thread.start

    def recording_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


def test_no_library_call_starts_a_thread(one_plane_chunks, threads):
    # run_planes walks its chunks in order on the caller, and P, P^T and the
    # warp chunk their work through it; run_tasks and the workers of apply_P
    # and apply_Pt are kept for perfbench/ and do nothing. register is
    # checked by test_register_starts_no_helper_thread
    g = Grid3((8, 8, 8), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    plan = build_gather_plan(deformation_grid_for(g, 2), g)
    y = make_identity(plan.def_grid)
    r = VectorField3(g, np.ones((3,) + g.shape))
    chunks = []
    parallel.run_planes(lambda k0, k1, ws: chunks.append((k0, k1, ws, threading.current_thread())),
                        8, 1)
    assert chunks == [(k, k + 1, parallel.workspace(), threading.current_thread())
                      for k in range(8)]
    assert parallel.run_tasks([lambda i=i: i for i in range(3)], 2) == [0, 1, 2]
    warp_image(smooth_random_volume(g, seed=1), y)
    apply_P(y, g, 2)
    for variant in PT_VARIANTS:
        apply_Pt(r, plan, variant, 2)
    assert threads == []
    assert max(one_plane_chunks) >= 2


def test_concurrent_callers_each_get_their_own_results(one_plane_chunks):
    # more callers than cores warp and apply P^T at once, on one-plane chunks
    # with frequent thread switches: each thread's chunks take their
    # temporaries from its own Workspace, so every caller gets the bytes of a
    # call made alone
    g = Grid3((12, 11, 10), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    plan = build_gather_plan(deformation_grid_for(g, 2), g)
    rng = np.random.default_rng(3)
    inputs = [(smooth_random_volume(g, seed=s),
               smooth_random_field(plan.def_grid, seed=s + 10, amplitude_mm=0.8),
               VectorField3(g, rng.standard_normal((3,) + g.shape))) for s in range(6)]

    def call(T, y, r):
        return warp_image(T, y).values.tobytes(), apply_Pt(r, plan, "scatter").field.tobytes()

    expected = [call(*args) for args in inputs]
    results = [[] for _ in inputs]

    def caller(i):
        for _ in range(5):
            results[i].append(call(*inputs[i]))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(i,), daemon=True)
                   for i in range(len(inputs))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in callers)
    assert results == [[e] * 5 for e in expected]
    assert max(one_plane_chunks) >= 2


def test_grid_of_one_chunk_runs_inline(threads, forks):
    # a whole 16^3 evaluation is less than one chunk: with 2 workers its
    # sweep is one slab, run on the caller's thread as 1 worker runs it
    g = Grid3((16, 16, 16), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    plan = build_gather_plan(deformation_grid_for(g, 2), g)
    args = (make_identity(plan.def_grid), smooth_random_volume(g, seed=1),
            smooth_random_volume(g, seed=2), plan, NgfParams())
    D, grad = sweep_once(*args, workers=2)
    assert threads == []
    assert forks == []
    D1, grad1 = sweep_once(*args)
    assert D == D1 and grad.field.tobytes() == grad1.field.tobytes()


def test_workers_are_a_cap():
    plane = 64 * 64
    step = parallel.plane_step(plane)
    assert parallel.slab_partition(64, plane, 2) == [(0, 32), (32, 64)]  # a 64^3 sweep
    assert parallel.slab_partition(3 * step, plane, 8) == [
        (0, step), (step, 2 * step), (2 * step, 3 * step)]  # no slab below one chunk


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
                         alpha=1.0, pt_variant="gather", workers=workers)
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


def test_closing_one_objective_leaves_another_s_children_alive(one_plane_chunks, forks):
    # each child holds none of the caller's connections of the other group, so
    # closing the first objective ends its child while the second's lives on
    (first, x), (second, _) = _objective(2), _objective(2)
    first(x)
    second(x)
    assert len(forks) == 2
    closer = threading.Thread(target=first.close, daemon=True)
    closer.start()
    closer.join(timeout=10)
    assert not closer.is_alive(), "close() of the first objective did not return"
    assert_reaped(forks[:1])
    assert os.waitpid(forks[1], os.WNOHANG) == (0, 0)  # alive, and not reaped here
    second.close()
    assert_reaped(forks)


def _sweep(workers=1):
    """D and the gradient's bytes of a sweep of an _objective(2)'s point."""
    obj, x = _objective(2)
    grid = obj.plan.def_grid
    y = DeformationField(grid, x.reshape((3,) + grid.shape))
    D, g = sweep_once(y, obj.ref, obj.template, obj.plan, obj.params, workers=workers)
    return D, g.field.tobytes()


def _sweep_and_send(conn, forks):
    conn.send((*_sweep(2), len(forks)))


def test_sweep_in_a_daemonic_process_runs_inline(one_plane_chunks, forks):
    # multiprocessing lets no daemonic process, a Pool's worker say, start children
    context = multiprocessing.get_context("fork")
    conn, child_conn = context.Pipe()
    process = context.Process(target=_sweep_and_send, args=(child_conn, forks), daemon=True)
    process.start()
    child_conn.close()
    assert conn.poll(60), "the daemonic process sent no result"
    D, g, child_forks = conn.recv()
    process.join(timeout=60)
    assert not process.is_alive()
    assert child_forks == 0 and len(forks) == 1  # the daemonic process only
    assert (D, g) == _sweep()


def test_register_starts_no_helper_thread(one_plane_chunks, threads, forks):
    # the pyramids are built one after the other on the caller, and the
    # sweep's slabs after the first run in child processes: one per level
    g = Grid3((32, 32, 32), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    center = tuple(o + e / 2 for o, e in zip(g.origin, g.extent))
    R, T = make_registration_pair(
        g, gaussian_bump_mapping(center, sigma_mm=10.0, amplitude_mm=(1.5, -1.0, 0.5)))
    register(R, T, MultilevelConfig(coarsest_min_dim=16, workers=2,
                                    max_iterations=2))
    assert threads == []
    assert len(forks) == 2  # one child per level


def test_register_forks_with_no_other_thread_alive(monkeypatch):
    # Python 3.12 and later warn when a process with threads forks
    live = []
    fork = os.fork

    def recording_fork():
        live.append(threading.active_count())
        return fork()

    monkeypatch.setattr(os, "fork", recording_fork)
    g = Grid3((64, 64, 64), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    center = tuple(o + e / 2 for o, e in zip(g.origin, g.extent))
    R, T = make_registration_pair(
        g, gaussian_bump_mapping(center, sigma_mm=18.0, amplitude_mm=(3.0, -2.0, 1.5)))
    register(R, T, MultilevelConfig(workers=2, max_iterations=2))
    assert live and live == [1] * len(live)


def test_register_reaps_every_level_s_children(one_plane_chunks, forks):
    g = Grid3((16, 16, 16), (2.0, 2.0, 2.0), (0.0, 0.0, 0.0))
    center = tuple(o + e / 2 for o, e in zip(g.origin, g.extent))
    R, T = make_registration_pair(
        g, gaussian_bump_mapping(center, sigma_mm=8.0, amplitude_mm=(1.5, -1.0, 0.5)))
    cfg = MultilevelConfig(coarsest_min_dim=8, workers=2, max_iterations=3)
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


def test_curvature_runs_while_the_child_sweeps(one_plane_chunks, forks, monkeypatch):
    # with 2 slabs the caller runs the curvature term after its own slab and
    # before it waits for the child, and the result has the 1-worker bytes;
    # a curvature term that raises is handled as the caller's slab: the child
    # is waited for, and the sweep serves the next call without a new fork
    caller, order = os.getpid(), []
    sweep_slab, wait = ngf._sweep_slab, parallel.ProcessGroup.wait
    curvature = objective.curvature_value_and_gradient

    def recording_slab(*args):
        sweep_slab(*args)
        if os.getpid() == caller:
            order.append("slab")

    def recording_wait(self):
        order.append("wait")
        wait(self)

    def recording_curvature(y):
        order.append("curvature")
        return curvature(y)

    def failing_curvature(y):
        order.append("curvature")
        raise KeyError("no curvature")

    monkeypatch.setattr(ngf, "_sweep_slab", recording_slab)
    monkeypatch.setattr(parallel.ProcessGroup, "wait", recording_wait)
    monkeypatch.setattr(objective, "curvature_value_and_gradient", recording_curvature)
    one, x = _objective(1)
    J1, g1 = one(x)
    assert order == ["slab", "curvature"]  # one slab: after the sweep
    obj, _ = _objective(2)
    for curvature_term in (recording_curvature, failing_curvature, recording_curvature):
        order.clear()
        monkeypatch.setattr(objective, "curvature_value_and_gradient", curvature_term)
        if curvature_term is failing_curvature:
            with pytest.raises(KeyError, match="no curvature"):
                obj(x)
        else:
            J, g = obj(x)
            assert J == J1 and g.tobytes() == g1.tobytes()
        assert order == ["slab", "curvature", "wait"]
    assert len(forks) == 1
    seconds = obj.seconds
    assert seconds["distance"] > 0 and seconds["curvature"] > 0
    obj.close()
    assert_reaped(forks)


_EXIT_SCRIPT = """
import atexit, multiprocessing, os
# registered before any weakref.finalize exists, so it runs after their exit hook
atexit.register(lambda: print("unreaped", [p for p in pids if not reaped(p)],
                              "exit codes", [c.exitcode for c in children]))

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
    alpha=1.0, pt_variant="gather", workers=2)
obj(geometry.make_identity(plan.def_grid).field.ravel())
children = multiprocessing.active_children()
print("forked", len(pids))
"""


def _run_script(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run a Python script in a new interpreter that imports ngfreg from SRC."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_children_of_an_objective_never_closed_are_reaped_at_exit():
    proc = _run_script(_EXIT_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    # the child reads end of file (status 0) if the group's finalizer runs
    # first, or gets SIGTERM if multiprocessing's exit hook does
    assert proc.stdout.splitlines() in (["forked 1", f"unreaped [] exit codes [{code}]"]
                                        for code in (0, -signal.SIGTERM))


_NEVER_CLOSED_SWEEP = """
import multiprocessing, sys
from ngfreg import geometry, multilevel, ngf, synthetic, transfer
g = geometry.Grid3((64, 64, 64), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
plan = transfer.build_gather_plan(multilevel.deformation_grid_for(g, 4), g)
sweep = ngf.LevelSweep(synthetic.smooth_random_volume(g, seed=1),
                       synthetic.smooth_random_volume(g, seed=2), plan, ngf.NgfParams(), "gather", 2)
assert len(sweep._slabs) == 2  # at the module's own chunk size
ngf.distance_and_gradient(geometry.make_identity(plan.def_grid), sweep)
with open(sys.argv[1], "w") as fh:
    fh.write(" ".join(str(p.pid) for p in multiprocessing.active_children()))
"""


def test_children_of_a_sweep_never_closed_end_with_the_caller(tmp_path):
    # the caller exits without close(): its exit neither fails nor writes to
    # stderr, and no child outlives it
    pid_file = tmp_path / "pids"
    proc = _run_script(_NEVER_CLOSED_SWEEP, str(pid_file))
    assert proc.returncode == 0
    assert proc.stderr == ""
    pids = [int(pid) for pid in pid_file.read_text().split()]
    assert len(pids) == 1
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
