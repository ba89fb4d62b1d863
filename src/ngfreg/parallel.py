"""Slab-based parallelism: a thread pool, and forked processes for the NGF sweep.

Heavy operations are data-parallel over contiguous index ranges ("slabs").
Each slab computation is a pure function writing to a disjoint output region,
so results are independent of the worker count; for the gather-style
operations they are bit-identical by construction.

`workers` is a cap, not a demand: no slab gets less work than one chunk of
about _CHUNK_VOXELS voxels (slab_partition), so a range of one chunk or less
(a whole 32^3 grid, say) runs inline on the caller's thread.

run_planes splits each slab further into chunks of whole z-planes of a fixed
size (plane_step planes); the warp, P, the image gradient and P^T chunk
their work through it, and the NGF sweep walks its slabs' chunks itself.

Each thread has one Workspace (workspace()): a LIFO stack of arrays over one
buffer that a chunk takes its temporaries from and gives back when its frame
closes, so the next chunk, and the next evaluation, reuses the same memory
while it is still in cache, and a chunk allocates nothing once the buffer has
grown to the deepest stack that a chunk of the grid needs. A thread's first
chunk of a larger grid allocates its temporaries as numpy would, and the
buffer grows when that chunk's outermost frame closes.

run_slabs, run_planes and run_tasks run on one persistent thread pool per
worker count, created on first use. A call made from inside a pool thread
runs inline, so nested calls cannot deadlock, and a call returns or raises
only after all of its work has finished, so no thread is still writing into
an output when the caller moves on.

The NGF sweep makes hundreds of numpy calls of tens of microseconds per
chunk, and threads running it spend their time handing the interpreter lock
to each other. So its slabs run in processes instead (ProcessGroup): the
caller runs the first slab itself, and each other slab runs in a child
forked from it, which inherits the sweep's inputs copy-on-write and exchanges
its data through one anonymous shared mapping (shared_arrays). A child runs
no pool and no nested group (can_fork is false in it), closes the pipes of
every other group, writes nothing to stdout or stderr, ignores SIGINT and
ends only through os._exit, so it never flushes the caller's copied stdio
buffers or runs its exit handlers; it exits when its pipe from the caller
reaches end of file, so also when the caller dies. Idle pool threads may
exist when a group forks: a child takes no lock that they could hold. Python
3.12 and later warn (DeprecationWarning) when a process with threads forks.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import signal
import struct
import threading
import traceback
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

import numpy as np

# Voxels per chunk of whole z-planes in run_planes and the NGF sweep: the
# kernels' temporaries stay small and cache-resident instead of slab-sized.
# A chunk takes its temporaries from its thread's Workspace, which also holds
# a sweep slab's windows of planes and y interpolated along x and y: measured
# in f64, 6.3 MiB at 48^3 with 1 worker, 6.9 MiB at 64^3 and 14.5 MiB at 128^3
# per process with 2. On a 2-core machine a 64^3 registration with 2 threads
# peaked at 75 MB resident; halving the chunk saved 19 MB there but took
# 35-50% longer at 64^3 and 128^3.
_CHUNK_VOXELS = 1 << 15

_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()
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


def _mark_inline() -> None:
    """Make every slab call of this thread run inline: a pool thread's, a child's."""
    _local.inline = True


def can_fork() -> bool:
    """Whether a call here may fork a ProcessGroup: os.fork exists and this
    thread is neither a pool thread nor a forked child, which run inline."""
    return hasattr(os, "fork") and not getattr(_local, "inline", False)


def _pool(workers: int) -> ThreadPoolExecutor:
    with _pools_lock:
        pool = _pools.get(workers)
        if pool is None:
            pool = _pools[workers] = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"ngfreg-{workers}",
                initializer=_mark_inline)
        return pool


def _run_all(calls, workers: int) -> list:
    """Run (fn, args) pairs, on the pool unless this is a pool thread or there
    is only one; wait for all of them, then raise the first error in call order."""
    if workers <= 1 or len(calls) <= 1 or getattr(_local, "inline", False):
        return [fn(*args) for fn, args in calls]
    pool = _pool(workers)
    futures = [pool.submit(fn, *args) for fn, args in calls]
    wait(futures)
    return [f.result() for f in futures]


def slab_ranges(n: int, workers: int) -> list[tuple[int, int]]:
    """Split range(n) into at most `workers` contiguous chunks."""
    workers = max(1, min(workers, n))
    base, rem = divmod(n, workers)
    ranges = []
    lo = 0
    for w in range(workers):
        hi = lo + base + (1 if w < rem else 0)
        if hi > lo:
            ranges.append((lo, hi))
        lo = hi
    return ranges


def slab_partition(n: int, voxels: int, workers: int) -> list[tuple[int, int]]:
    """The slabs of range(n) where each index is about `voxels` voxels of work:
    at most `workers`, and no more than there are chunks of _CHUNK_VOXELS voxels."""
    return slab_ranges(n, min(workers, -(-n // plane_step(voxels))))


def run_slabs(fn, n: int, voxels: int, workers: int) -> None:
    """Run fn(lo, hi) over the slab_partition of range(n), possibly threaded."""
    _run_all([(fn, r) for r in slab_partition(n, voxels, workers)], workers)


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

    run_slabs(do_slab, nz, plane_voxels, workers)


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


# The caller's ends of the pipes of every open ProcessGroup of this process;
# a child closes them, so that only the caller holds them.
_group_fds: set[int] = set()

_GO, _DONE, _ERROR = b"g", b"d", b"e"


class ProcessGroup:
    """Children forked from the caller, one per task, each of which runs its
    task whenever the caller starts the group.

    A task is a callable without arguments, run in the child on the memory it
    inherited at the fork: it exchanges data with the caller through
    shared_arrays made before the fork. start() tells every child to run its
    task; wait() waits until every child has finished it and raises the first
    error in task order: an exception of a task, with its type, message and
    the child's traceback as a note, or an error naming the task's `label`
    if its child died, which wait() reaps before it closes the group. Pipes
    carry one-byte go and done messages, and the pickled exception of a
    failed task. close() ends and reaps every child: each exits when its pipe
    from the caller reaches end of file. A group that is never closed is
    closed when it is garbage-collected or at interpreter exit.
    """

    def __init__(self, tasks, labels):
        self._labels = list(labels)
        self._children: list[tuple[int, int, int]] = []  # (pid, go fd, done fd)
        self._close = weakref.finalize(self, _close_children, self._children, os.getpid())
        try:
            for task in tasks:
                self._fork(task)
        except BaseException:
            self.close()
            raise

    def _fork(self, task) -> None:
        go_r, go_w = os.pipe()
        done_r, done_w = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (go_r, go_w, done_r, done_w):
                os.close(fd)
            raise
        if pid == 0:
            _child(task, go_r, done_w, (go_w, done_r))  # never returns
        os.close(go_r)
        os.close(done_w)
        self._children.append((pid, go_w, done_r))
        _group_fds.update((go_w, done_r))

    @property
    def closed(self) -> bool:
        return not self._close.alive

    def start(self) -> None:
        """Tell every child to run its task once."""
        for _, go, _ in self._children:
            try:
                os.write(go, _GO)
            except BrokenPipeError:  # it died: wait() reports it
                pass

    def wait(self) -> None:
        """Wait until every child started has replied; raise the first error.
        A child that died, or a wait cut short, closes the group."""
        errors, died = [], False
        try:
            for i, (pid, _, done) in enumerate(self._children):
                reply = os.read(done, 1)
                if reply == _DONE:
                    continue
                if reply == _ERROR:
                    (n,) = struct.unpack("<Q", _read_exactly(done, 8))
                    exc = pickle.loads(_read_exactly(done, n))
                    exc.add_note(f"raised in the worker process for {self._labels[i]}")
                else:  # end of file: the child is gone
                    died = True
                    _, status = os.waitpid(pid, 0)
                    self._children[i] = (0, *self._children[i][1:])  # reaped
                    code = os.waitstatus_to_exitcode(status)
                    how = (f"was killed by signal {-code}" if code < 0
                           else f"exited with status {code}")
                    exc = RuntimeError(f"the worker process for {self._labels[i]} {how}")
                errors.append(exc)
        except BaseException:
            self.close()  # replies may be left unread in the pipes
            raise
        if died:
            self.close()
        if errors:
            raise errors[0]

    def close(self) -> None:
        """End and reap every child; the group cannot be started again."""
        self._close()


def _read_exactly(fd: int, n: int) -> bytes:
    parts = []
    while n:
        part = os.read(fd, n)
        if not part:
            raise EOFError("a worker process closed its pipe inside a message")
        parts.append(part)
        n -= len(part)
    return b"".join(parts)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _close_children(children: list, owner: int) -> None:
    """Close the caller's pipe ends, so each child reads end of file and exits,
    then reap the children. Only the process that forked them does this."""
    if os.getpid() != owner:
        return
    for _, go, done in children:
        for fd in (go, done):
            os.close(fd)
            _group_fds.discard(fd)
    for pid, _, _ in children:
        if pid:
            os.waitpid(pid, 0)
    children.clear()


def _child(task, go: int, done: int, caller_fds) -> None:
    """The body of a forked child: run the task on each go message until end of
    file, reply done or the pickled exception, and leave through os._exit."""
    status = 1
    try:
        for fd in (*caller_fds, *_group_fds):
            os.close(fd)
        _group_fds.clear()
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.dup2(devnull, 2)
        os.close(devnull)
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles an interrupt
        _mark_inline()
        _local.workspace = None  # the caller's buffer stays the caller's
        while os.read(go, 1):
            try:
                task()
                reply = _DONE
            except Exception as exc:
                exc.add_note("in the worker process:\n" + "".join(traceback.format_exception(exc)))
                try:
                    payload = pickle.dumps(exc)
                    pickle.loads(payload)  # the caller must be able to load it
                except Exception:
                    payload = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
                reply = _ERROR + struct.pack("<Q", len(payload)) + payload
            _write_all(done, reply)
        status = 0
    finally:
        os._exit(status)
