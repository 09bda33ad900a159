"""Replicate-level parallel map that preserves index order.

Because every replicate derives its own random stream from its index,
results are identical whether replicates run sequentially or across a
process pool, and in whatever order the pool schedules them.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor


def replicate_map(fn, args_list, jobs: int = 1) -> list:
    """Apply ``fn`` to each element of ``args_list``, in index order.

    With ``jobs > 1`` and more than one element, a process pool of
    ``min(jobs, len(args_list))`` workers runs them: the pool starts
    every worker up front, so none is started without a task, and hands
    out one element at a time: each is a whole replicate or a
    memory-budget block.  Otherwise everything runs in the calling
    process and no pool starts.  ``fn`` must be a module-level function
    when a pool runs, so it can be pickled.
    """
    items = list(args_list)
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(a) for a in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
