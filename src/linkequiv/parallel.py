"""Replicate-level parallel map that preserves index order.

Because every replicate derives its own random stream from its index,
results are identical whether replicates run sequentially or across a
process pool, and in whatever order the pool schedules them.
``replicate_map`` alone decides how many workers a pool starts, for the
CLI and for library callers alike; its docstring states the rule.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

from .errors import _check_count


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform reports one, else the CPU count."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def replicate_map(fn, args_list, jobs: int = 1) -> list:
    """Apply ``fn`` to each element of ``args_list``, in index order.

    The pool-size rule: a process pool of ``min(jobs, len(args_list),
    usable CPUs)`` workers runs the elements, where the usable CPUs are
    the process's affinity set where the platform reports one (under
    ``taskset -c 0`` on a 2-CPU host, ``jobs=2`` starts no pool), else
    the CPU count.  The CPUs are read only when ``jobs`` and the element
    count both exceed 1.  When the rule gives one worker, everything runs
    in the calling process and no pool starts.  The pool starts every
    worker up front, so none is started without a task or a CPU, and
    hands out one element at a time: each is a whole replicate or a
    memory-budget block.  ``fn`` must be a module-level function when a
    pool runs, so it can be pickled.  ``jobs`` must be an integer of at
    least 1.
    """
    _check_count(jobs, "jobs", 1)
    items = list(args_list)
    cpus = _usable_cpus() if jobs > 1 and len(items) > 1 else 1
    workers = min(jobs, len(items), cpus)
    if workers <= 1:
        return [fn(a) for a in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
