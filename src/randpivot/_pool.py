"""The package's parallel helpers: an ordered map over worker processes, and
a large job cut in two halves over this thread and one helper thread.  The
CPUs this process may run on (cpus) decide both.  Big-data fetches and
in-process studies of wide units are cut in halves."""
from __future__ import annotations

import contextvars
import os
import pickle
import threading
from collections import deque
from typing import Any, Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")

# Records or drawn elements above which a job is cut in halves over two
# threads: the fetch crossover on 2 cores (medians of 15-25 calls).  Split
# against serial, a fetch of 2^17 records took 4.4 against 4.0 ms and one
# of 2^18 5.4 against 7.0 ms
_SPLIT_ITEMS = 1 << 18


def cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def halves(fn: Callable[[int, int], T], size: int, mid: int, items: int | None = None) -> list[T]:
    """[fn(0, size)], or [fn(0, mid), fn(mid, size)] for a job of more than
    _SPLIT_ITEMS items (size, or the caller's count, as a study's drawn
    elements), cut at 0 < mid < size, with 2 or more CPUs to run on.

    The second half runs on one helper thread, in a copy of this thread's
    context (numpy's errstate with it), while the first runs here.  The
    helper is joined before this returns, on every way out, so no thread
    outlives the call and ordered_map never forks a process that has one.
    A half's exception is raised here; this thread's own if both raise.
    A split pays only where most of fn's work releases the GIL, as numpy's
    gathers, bincounts and ufunc loops do.
    """
    if (size if items is None else items) <= _SPLIT_ITEMS or not 0 < mid < size or cpus() < 2:
        return [fn(0, size)]
    out: list[Any] = [None, None]
    failed: list[BaseException] = []

    def second() -> None:
        try:
            out[1] = fn(mid, size)
        except BaseException as exc:  # raised in the caller once joined
            failed.append(exc)

    helper = threading.Thread(target=contextvars.copy_context().run, args=(second,),
                              name="randpivot-half")
    helper.start()
    try:
        out[0] = fn(0, mid)
    finally:
        helper.join()
    if failed:
        raise failed[0]
    return out


def ordered_map(fn: Callable[[Any], Any], tasks: Iterable[Any],
                workers: int) -> Iterator[tuple[Any, Any]]:
    """(task, fn(task)) for each task, in task order.

    Below 2 workers each call runs in this process.  Otherwise a pool of
    `workers` processes, forked where the platform can, starts at the first
    task, at most workers + 1 tasks are held (the one handed on next, and one
    running or queued per worker), and the pool is shut down, its queued
    tasks cancelled, on every way out, the consumer closing this generator
    included.  fn must be importable (a module-level function or a partial
    of one): on Python 3.11 an fn that cannot be pickled can hang shutdown(),
    so it is pickled once, and its error raised, before a pool starts.
    """
    if workers < 2:
        yield from ((task, fn(task)) for task in tasks)
        return
    pickle.dumps(fn)
    pool, held = None, deque()
    try:
        for task in tasks:
            if pool is None:  # only a pooled run loads the executor's modules
                import multiprocessing as mp
                from concurrent.futures import ProcessPoolExecutor
                fork = "fork" in mp.get_all_start_methods()  # as the cuts were measured
                pool = ProcessPoolExecutor(workers, mp.get_context("fork" if fork else None))
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
