"""Slab-based parallelism: the NGF sweep's forked processes.

The NGF sweep works over contiguous ranges ("slabs") of whole image
z-planes. Each slab computation is a pure function writing to a disjoint
output region, so its results are bit-identical for any worker count.

`workers` is a cap, not a demand: no slab gets less work than one chunk of
about _CHUNK_VOXELS voxels (slab_partition), so a range of one chunk or less
(a whole 32^3 grid, say) is one slab, run on the caller.

run_planes walks a range of z-planes in chunks of a fixed size (plane_step
planes) on the caller, and opens a frame of the thread's Workspace for each
chunk: the warp, P, P^T and the CLI's resampling chunk their work through
it and take their temporaries from the Workspace it passes. The NGF sweep
walks its slabs' chunks itself, and the curvature term opens its own frames.

Each thread has one Workspace (workspace()): a LIFO stack of arrays over one
buffer that a chunk takes its temporaries from and gives back when its frame
closes, so the next chunk, and the next evaluation, reuses the same memory
while it is still in cache, and a chunk allocates nothing once the buffer has
grown to the deepest stack that a chunk of the grid needs. A thread's first
chunk of a larger grid allocates its temporaries as numpy would, and the
buffer grows when that chunk's outermost frame closes. The library starts no
thread, but a caller's own threads may call it at once: each chunks its work
through its own Workspace.

The NGF sweep makes hundreds of numpy calls of tens of microseconds per
chunk, and threads running it spend their time handing the interpreter lock
to each other. So an ngf.LevelSweep runs its slabs in kept processes
(ProcessGroup), the library's only parallel mechanism: the caller runs the
first slab itself, and each other slab runs in a daemonic child of
multiprocessing's fork context, which inherits the sweep's inputs
copy-on-write and exchanges its data through one anonymous shared mapping
(shared_arrays); one connection per child carries its go messages and its
replies. multiprocessing flushes the caller's stdout and stderr before each
fork. A daemonic process may start no children, so a sweep in a Pool's
worker, say, runs whole on it, and so does a sweep in a child (can_fork is
false in both). A child closes the caller's connections of every group, its
own included, writes nothing to stdout or stderr and ignores SIGINT; it
exits when its connection to the caller reaches end of file, so also when
the caller dies, or at interpreter exit by SIGTERM if multiprocessing's exit
hook runs before the group's finalizer.
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
# a sweep slab's windows of planes: measured in f64, 4.1 MiB at 48^3 with 1
# worker, 4.6 MiB at 64^3 and 8.0 MiB at 128^3 per process with 2. It grows
# with the plane, not with the number of planes. On a 2-core machine a 64^3
# registration with 2 threads peaked at 75 MB resident; halving the chunk
# saved 19 MB there but took 35-50% longer at 64^3 and 128^3.
_CHUNK_VOXELS = 1 << 15

_local = threading.local()

_LINE = 64  # bytes: every Workspace array and shared array starts on a cache line


def _line_bytes(shape, dtype) -> int:
    """The bytes of an array of shape and dtype, rounded up to whole cache lines."""
    return -(-math.prod(shape) * np.dtype(dtype).itemsize // _LINE) * _LINE


class Workspace:
    """Scratch arrays for one thread: a LIFO stack of views over one buffer.

    array() hands out the next free bytes of the buffer, and a frame() gives
    back, when it closes, every array taken inside it; an array is valid only
    until its frame closes. A request beyond the end of the buffer gets an
    array of its own, and when the outermost frame closes the buffer is
    replaced by one as large as the deepest stack seen so far: it grows to
    the deepest chunk and never holds a second copy.
    """

    def __init__(self):
        self._buf = np.empty(0, dtype=np.uint8)
        self._top = 0
        self._peak = 0

    def array(self, shape, dtype) -> np.ndarray:
        """An uninitialized array that lives until the enclosing frame closes."""
        start = self._top
        self._top = start + _line_bytes(shape, dtype)
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
                raw = np.empty(self._peak + _LINE, dtype=np.uint8)
                skip = -raw.ctypes.data % _LINE
                self._buf = raw[skip:skip + self._peak]


def workspace() -> Workspace:
    """This thread's Workspace, created on first use and kept for the thread's life."""
    ws = getattr(_local, "workspace", None)
    if ws is None:
        ws = _local.workspace = Workspace()
    return ws


def can_fork() -> bool:
    """Whether a call here may fork a ProcessGroup: os.fork exists and this is
    no daemonic multiprocessing process (a sweep's child, or a Pool's worker,
    say), which may start none."""
    return hasattr(os, "fork") and not multiprocessing.current_process().daemon


def slab_partition(n: int, voxels: int, workers: int) -> list[tuple[int, int]]:
    """The slabs of range(n) where each index is about `voxels` voxels of work:
    at most `workers` ranges of lengths within one, and no more than there are
    chunks of _CHUNK_VOXELS voxels."""
    slabs = max(1, min(workers, n, -(-n // plane_step(voxels))))
    base, rem = divmod(n, slabs)
    bounds = [w * base + min(w, rem) for w in range(slabs + 1)]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def plane_step(plane_voxels: int) -> int:
    """Whole z-planes per chunk of about _CHUNK_VOXELS voxels."""
    return max(1, _CHUNK_VOXELS // plane_voxels)


def run_planes(fn, nz: int, plane_voxels: int) -> None:
    """Run fn(k0, k1, ws) on the caller over range(nz) in chunks of whole
    z-planes of about _CHUNK_VOXELS voxels, each in a frame of this thread's
    Workspace ws: the arrays fn takes from ws live until fn returns."""
    step = plane_step(plane_voxels)
    ws = workspace()
    for k0 in range(0, nz, step):
        with ws.frame():
            fn(k0, min(k0 + step, nz), ws)


def run_tasks(tasks, workers: int) -> list:
    """The results of a list of zero-argument callables, run in order on the
    caller; `workers` does nothing. Kept only for perfbench/, which still
    calls it; ROADMAP item 2 deletes it with that call."""
    return [task() for task in tasks]


def shared_arrays(specs) -> list[np.ndarray]:
    """Uninitialized arrays, one per (shape, dtype) of specs, over one anonymous
    shared mapping: a child forked after this writes the caller's memory."""
    offsets, size = [], 0
    for shape, dtype in specs:
        offsets.append(size)
        size += _line_bytes(shape, dtype)
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
