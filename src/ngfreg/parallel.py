"""Slab-based worker pool helpers.

Heavy operations are data-parallel over contiguous index ranges ("slabs").
Each slab computation is a pure function writing to a disjoint output region,
so results are independent of the worker count; for the gather-style
operations they are bit-identical by construction.

Every threaded call runs on one persistent pool per worker count, created on
first use. A call made from inside a pool thread runs inline, so nested calls
cannot deadlock, and a call returns or raises only after all of its work has
finished, so no thread is still writing into an output when the caller moves on.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait

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


def run_slabs(fn, n: int, workers: int) -> None:
    """Run fn(lo, hi) over a slab partition of range(n), possibly threaded."""
    _run_all([(fn, r) for r in slab_ranges(n, workers)], workers)


def run_tasks(tasks, workers: int) -> list:
    """Run a list of zero-argument callables, threaded when workers > 1."""
    return _run_all([(t, ()) for t in tasks], workers)
