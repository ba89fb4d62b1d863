"""Slab-based parallelism: helper threads, and the NGF sweep's forked processes.

Heavy operations are data-parallel over contiguous index ranges ("slabs").
Each slab computation is a pure function writing to a disjoint output region,
so results are independent of the worker count; for the gather-style
operations they are bit-identical by construction.

`workers` is a cap, not a demand: no slab gets less work than one chunk of
about _CHUNK_VOXELS voxels (slab_partition), so a range of one chunk or less
(a whole 32^3 grid, say) runs inline on the caller's thread.

run_planes splits each slab further into chunks of whole z-planes of a fixed
size (plane_step planes); the warp, P and P^T chunk their work through it,
and the NGF sweep walks its slabs' chunks itself.

Each thread has one Workspace (workspace()): a LIFO stack of arrays over one
buffer that a chunk takes its temporaries from and gives back when its frame
closes, so the next chunk, and the next evaluation, reuses the same memory
while it is still in cache, and a chunk allocates nothing once the buffer has
grown to the deepest stack that a chunk of the grid needs. A thread's first
chunk of a larger grid allocates its temporaries as numpy would, and the
buffer grows when that chunk's outermost frame closes.

run_planes and run_tasks deal their calls to at most `workers` lanes: the
caller runs the first, and a helper thread started for the call each other
one. The library calls run_planes only: register builds its two pyramids
one after the other on the caller. A call made inside a lane runs inline,
so nested calls cannot deadlock and a sweep there never forks. Every
helper is joined before the call returns or raises: no thread outlives its
call.

The NGF sweep makes hundreds of numpy calls of tens of microseconds per
chunk, and threads running it spend their time handing the interpreter lock
to each other. So an ngf.LevelSweep runs its slabs in kept processes
(ProcessGroup): the caller runs the first slab itself, and each other slab
runs in a daemonic child of multiprocessing's fork context, which inherits
the sweep's inputs copy-on-write and exchanges its data through one
anonymous shared mapping (shared_arrays); one connection per child carries
its go messages and its replies. multiprocessing flushes the caller's
stdout and stderr before each fork. A daemonic process may start no
children, so a sweep in a Pool's worker, say, runs whole on it. A child
starts no helper thread and no nested group (can_fork is false in it),
closes the caller's connections of every group, its own included, writes
nothing to stdout or stderr and ignores SIGINT; it exits when its
connection to the caller reaches end of file, so also when the caller
dies, or at interpreter exit by SIGTERM if multiprocessing's exit hook
runs before the group's finalizer.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
import os
import pickle
import signal
import threading
import traceback
import weakref
from contextlib import contextmanager

import numpy as np

# Voxels per chunk of whole z-planes in run_planes and the NGF sweep: the
# kernels' temporaries stay small and cache-resident instead of slab-sized.
# A chunk takes its temporaries from its thread's Workspace, which also holds
# a sweep slab's windows of planes: measured in f64, 5.7 MiB at 48^3 with 1
# worker, 6.1 MiB at 64^3 and 8.1 MiB at 128^3 per process with 2. It grows
# with the plane, not with the number of planes. On a 2-core machine a 64^3
# registration with 2 threads peaked at 75 MB resident; halving the chunk
# saved 19 MB there but took 35-50% longer at 64^3 and 128^3.
_CHUNK_VOXELS = 1 << 15

_local = threading.local()


class Workspace:
    """Scratch arrays for one thread: a LIFO stack of views over one buffer.

    array() hands out the next free bytes of the buffer, and a frame() gives
    back, when it closes, every array taken inside it; an array is valid only
    until its frame closes. A request beyond the end of the buffer gets an
    array of its own, and when the outermost frame closes the buffer is
    replaced by one as large as the deepest stack seen so far: it grows to
    the deepest chunk and never holds a second copy.
    """

    _ALIGN = 64  # bytes: every array starts on a cache line

    def __init__(self):
        self._buf = np.empty(0, dtype=np.uint8)
        self._top = 0
        self._peak = 0

    def array(self, shape, dtype) -> np.ndarray:
        """An uninitialized array that lives until the enclosing frame closes."""
        dtype = np.dtype(dtype)
        start = self._top
        self._top = start + -(-math.prod(shape) * dtype.itemsize // self._ALIGN) * self._ALIGN
        self._peak = max(self._peak, self._top)
        if self._top > self._buf.size:
            return np.empty(shape, dtype=dtype)
        return np.ndarray(shape, dtype=dtype, buffer=self._buf, offset=start)

    @contextmanager
    def frame(self):
        """Give back, on exit, every array taken inside this block."""
        top = self._top
        try:
            yield self
        finally:
            self._top = top
            if top == 0 and self._peak > self._buf.size:  # nothing is taken: resize
                raw = np.empty(self._peak + self._ALIGN, dtype=np.uint8)
                skip = -raw.ctypes.data % self._ALIGN
                self._buf = raw[skip:skip + self._peak]


def workspace() -> Workspace:
    """This thread's Workspace, created on first use and kept for the thread's life."""
    ws = getattr(_local, "workspace", None)
    if ws is None:
        ws = _local.workspace = Workspace()
    return ws


def can_fork() -> bool:
    """Whether a call here may fork a ProcessGroup: os.fork exists, this
    thread runs no lane of a slab call and is no forked child, and this is no
    daemonic multiprocessing process (a Pool's worker, say), which may start none."""
    return (hasattr(os, "fork") and not getattr(_local, "inline", False)
            and not multiprocessing.current_process().daemon)


def _run_all(calls, workers: int) -> list:
    """Run (fn, args) pairs in at most `workers` lanes, inline inside a lane;
    join every helper, then return the results or raise the first error in
    call order."""
    if workers <= 1 or len(calls) <= 1 or getattr(_local, "inline", False):
        return [fn(*args) for fn, args in calls]
    lanes = min(workers, len(calls))
    results, errors = [None] * len(calls), [None] * len(calls)

    def run_lane(lane):
        _local.inline = True
        for i in range(lane, len(calls), lanes):
            try:
                results[i] = calls[i][0](*calls[i][1])
            except BaseException as exc:
                errors[i] = exc

    helpers = [threading.Thread(target=run_lane, args=(lane,)) for lane in range(1, lanes)]
    try:
        for helper in helpers:
            helper.start()
        run_lane(0)
    finally:
        _local.inline = False
        for helper in helpers:
            if helper.ident is not None:  # it started
                helper.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def slab_ranges(n: int, workers: int) -> list[tuple[int, int]]:
    """Split range(n) into at most `workers` contiguous chunks."""
    workers = max(1, min(workers, n))
    base, rem = divmod(n, workers)
    bounds = [w * base + min(w, rem) for w in range(workers + 1)]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def slab_partition(n: int, voxels: int, workers: int) -> list[tuple[int, int]]:
    """The slabs of range(n) where each index is about `voxels` voxels of work:
    at most `workers`, and no more than there are chunks of _CHUNK_VOXELS voxels."""
    return slab_ranges(n, min(workers, -(-n // plane_step(voxels))))


def run_tasks(tasks, workers: int) -> list:
    """Run a list of zero-argument callables, threaded when workers > 1."""
    return _run_all([(t, ()) for t in tasks], workers)


def plane_step(plane_voxels: int) -> int:
    """Whole z-planes per chunk of about _CHUNK_VOXELS voxels."""
    return max(1, _CHUNK_VOXELS // plane_voxels)


def run_planes(fn, nz: int, plane_voxels: int, workers: int) -> None:
    """Run fn(k0, k1) over chunks of whole z-planes of about _CHUNK_VOXELS
    voxels; the slabs of the worker partition are split into such chunks."""
    step = plane_step(plane_voxels)

    def do_slab(lo, hi):
        for k0 in range(lo, hi, step):
            fn(k0, min(k0 + step, hi))

    _run_all([(do_slab, r) for r in slab_partition(nz, plane_voxels, workers)], workers)


def shared_arrays(specs) -> list[np.ndarray]:
    """Uninitialized arrays, one per (shape, dtype) of specs, over one anonymous
    shared mapping: a child forked after this writes the caller's memory."""
    offsets, size = [], 0
    for shape, dtype in specs:
        offsets.append(size)
        size += -(-math.prod(shape) * np.dtype(dtype).itemsize // 64) * 64
    buf = mmap.mmap(-1, max(size, 1))
    return [np.ndarray(shape, dtype, buffer=buf, offset=offset)
            for (shape, dtype), offset in zip(specs, offsets)]


# The caller's connections of every open ProcessGroup of this process; a
# child closes them, so that only the caller holds them.
_caller_ends = weakref.WeakSet()


class ProcessGroup:
    """Children forked from the caller, one per task, each of which runs its
    task whenever the caller starts the group.

    A task is a callable without arguments, run in the child on the memory it
    inherited at the fork: it exchanges data with the caller through
    shared_arrays made before the fork. Each child is a daemonic process of
    multiprocessing's fork context with one connection to the caller, and
    multiprocessing flushes the caller's stdout and stderr before each fork.
    start() sends every child an empty go message; wait() receives, in task
    order, None or the exception of each child's task and raises the first
    error: an exception of a task, with its type, message and the child's
    traceback as a note, or an error naming the task's `label` if its child
    died, which wait() joins before it closes the group. close() ends and
    joins every child: each exits when its connection to the caller reaches
    end of file. A group that is never closed is closed when it is
    garbage-collected or at interpreter exit, where multiprocessing's exit
    hook may end its children with SIGTERM first.
    """

    def __init__(self, tasks, labels):
        context = multiprocessing.get_context("fork")
        self._labels = list(labels)
        self._children = []  # (process, the caller's connection)
        self._close = weakref.finalize(self, _close_children, self._children, os.getpid())
        try:
            for task in tasks:
                conn, child_conn = context.Pipe()
                _caller_ends.add(conn)  # the child closes its copy too
                process = context.Process(target=_child, args=(task, child_conn), daemon=True)
                process.start()
                child_conn.close()
                self._children.append((process, conn))
        except BaseException:
            self.close()
            raise

    @property
    def closed(self) -> bool:
        return not self._close.alive

    def start(self) -> None:
        """Tell every child to run its task once."""
        for _, conn in self._children:
            try:
                conn.send_bytes(b"")
            except ConnectionError:  # it died: wait() reports it
                pass

    def wait(self) -> None:
        """Wait until every child started has replied; raise the first error.
        A child that died, or a wait cut short, closes the group."""
        errors, died = [], False
        try:
            for i, (process, conn) in enumerate(self._children):
                try:
                    exc = conn.recv()
                except (EOFError, ConnectionError):  # the child is gone
                    died = True
                    process.join()
                    code = process.exitcode
                    how = (f"was killed by signal {-code}" if code < 0
                           else f"exited with status {code}")
                    exc = RuntimeError(f"the worker process for {self._labels[i]} {how}")
                else:
                    if exc is None:
                        continue
                    exc.add_note(f"raised in the worker process for {self._labels[i]}")
                errors.append(exc)
        except BaseException:
            self.close()  # replies may be left unread in the connections
            raise
        if died:
            self.close()
        if errors:
            raise errors[0]

    def close(self) -> None:
        """End and join every child; the group cannot be started again."""
        self._close()


def _close_children(children: list, owner: int) -> None:
    """Close the caller's connections, so each child reads end of file and
    exits, then join the children. Only the process that forked them does this."""
    if os.getpid() != owner:
        return
    for _, conn in children:
        conn.close()
    for process, _ in children:
        process.join()
    children.clear()


def _child(task, conn) -> None:
    """The body of a child: run the task on each go message until end of file,
    and reply None or the exception."""
    for end in _caller_ends:
        end.close()
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.dup2(devnull, 2)
    os.close(devnull)
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles an interrupt
    _local.inline = True
    _local.workspace = None  # the caller's buffer stays the caller's
    while True:
        try:
            conn.recv_bytes()
        except EOFError:  # the caller closed the group, or died
            return
        reply = None
        try:
            task()
        except Exception as exc:
            exc.add_note("in the worker process:\n" + "".join(traceback.format_exception(exc)))
            reply = exc
            try:
                pickle.loads(pickle.dumps(exc))  # the caller must be able to load it
            except Exception:
                reply = RuntimeError(f"{type(exc).__name__}: {exc}")
        conn.send(reply)
