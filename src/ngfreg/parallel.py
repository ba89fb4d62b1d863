"""Slab-based worker pool helpers.

Heavy operations are data-parallel over contiguous index ranges ("slabs").
Each slab computation is a pure function writing to a disjoint output region,
so results are independent of the worker count; for the gather-style
operations they are bit-identical by construction.

`workers` is a cap, not a demand: no slab gets less work than one chunk of
about _CHUNK_VOXELS voxels, so a range of one chunk or less (a whole 32^3
grid, say) runs inline on the caller's thread and never reaches the pool.

run_planes splits each slab further into chunks of whole z-planes of a fixed
size (plane_step planes); the warp, the image gradient and P^T chunk their
work through it, and the NGF sweep walks its slabs' chunks itself.

Every threaded call runs on one persistent pool per worker count, created on
first use. A call made from inside a pool thread runs inline, so nested calls
cannot deadlock, and a call returns or raises only after all of its work has
finished, so no thread is still writing into an output when the caller moves on.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait

# Voxels per chunk of whole z-planes in run_planes and the NGF sweep: the
# kernels' temporaries stay small and cache-resident instead of slab-sized.
# The trilinear kernel holds about 25 arrays of a chunk's size per worker: on
# a 2-core machine a 64^3 registration with 2 workers peaked at 115 MB
# resident with 1 << 16 and at 91 MB with 1 << 15.
_CHUNK_VOXELS = 1 << 15

_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()
_local = threading.local()


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
