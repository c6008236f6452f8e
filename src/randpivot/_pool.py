"""The package's one process pool: an ordered map over worker processes."""
from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, Iterator


def ordered_map(fn: Callable[[Any], Any], tasks: Iterable[Any],
                workers: int) -> Iterator[tuple[Any, Any]]:
    """(task, fn(task)) for each task, in task order.

    Below 2 workers each call runs in this process.  Otherwise a
    default-context pool of `workers` processes starts at the first task,
    at most workers + 1 tasks are held (the one handed on next, and one
    running or queued per worker), and the pool is shut down, its queued
    tasks cancelled, on every way out, the consumer closing this generator
    included.  fn must be importable (a module-level function or a partial
    of one): on Python 3.11 an fn that cannot be pickled can hang shutdown().
    """
    if workers < 2:
        yield from ((task, fn(task)) for task in tasks)
        return
    pool, held = None, deque()
    try:
        for task in tasks:
            if pool is None:  # only a pooled run loads the executor's modules
                from concurrent.futures import ProcessPoolExecutor
                pool = ProcessPoolExecutor(max_workers=workers)
            held.append((task, pool.submit(fn, task)))
            if len(held) > workers:
                task, future = held.popleft()
                yield task, future.result()
        while held:
            task, future = held.popleft()
            yield task, future.result()
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
