"""Slab-based worker pool helpers.

Heavy operations are data-parallel over contiguous index ranges ("slabs").
Each slab computation is a pure function writing to a disjoint output region,
so results are independent of the worker count; for the gather-style
operations they are bit-identical by construction.

`workers` is a cap, not a demand: no slab gets less work than one chunk of
about _CHUNK_VOXELS voxels, so a range of one chunk or less (a whole 32^3
grid, say) runs inline on the caller's thread and never reaches the pool.

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

Every threaded call runs on one persistent pool per worker count, created on
first use. A call made from inside a pool thread runs inline, so nested calls
cannot deadlock, and a call returns or raises only after all of its work has
finished, so no thread is still writing into an output when the caller moves on.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

import numpy as np

# Voxels per chunk of whole z-planes in run_planes and the NGF sweep: the
# kernels' temporaries stay small and cache-resident instead of slab-sized.
# A chunk takes its temporaries from its thread's Workspace, which also holds
# the NGF sweep's windows of planes: measured per worker in f64, 5.4 MiB at
# 48^3, 5.8 MiB at 64^3 and 8.0 MiB at 128^3. On a 2-core machine a 64^3
# registration with 2 workers peaked at 75 MB resident; halving the chunk
# saved 19 MB there but took 35-50% longer at 64^3 and 128^3.
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


def _mark_pool_thread() -> None:
    _local.in_pool = True


def _pool(workers: int) -> ThreadPoolExecutor:
    with _pools_lock:
        pool = _pools.get(workers)
        if pool is None:
            pool = _pools[workers] = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"ngfreg-{workers}",
                initializer=_mark_pool_thread)
        return pool


def _run_all(calls, workers: int) -> list:
    """Run (fn, args) pairs, on the pool unless this is a pool thread or there
    is only one; wait for all of them, then raise the first error in call order."""
    if workers <= 1 or len(calls) <= 1 or getattr(_local, "in_pool", False):
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


def run_slabs(fn, n: int, voxels: int, workers: int) -> None:
    """Run fn(lo, hi) over a slab partition of range(n), possibly threaded,
    where each index is about `voxels` voxels of work: at most `workers`
    slabs, and no more than there are chunks of _CHUNK_VOXELS voxels."""
    slabs = min(workers, -(-n // plane_step(voxels)))
    _run_all([(fn, r) for r in slab_ranges(n, slabs)], workers)


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
