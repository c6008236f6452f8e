"""Tests for the package's parallel helpers: the process pool,
_pool.ordered_map, and the two-thread split, _pool.halves.

Every fn that reaches a pool here is importable: on Python 3.11 a task
whose fn cannot be pickled can leave the pool's shutdown() waiting
forever, so ordered_map refuses such an fn before a pool starts.
"""
import concurrent.futures
import contextlib
import math
import multiprocessing
import os
import pickle
import threading
import time
from unittest import mock

import numpy as np
import pytest

from randpivot import _pool
from randpivot._pool import ordered_map

# Long tasks first, so that with two workers later tasks finish earlier.
RANGES = [range(n) for n in (400_000, 3, 250_000, 0, 7, 120_000, 1, 60_000, 9)]


@pytest.mark.parametrize("workers", [0, 1, 2, 3])
def test_results_come_back_in_task_order(workers):
    assert list(ordered_map(sum, RANGES, workers)) == [(r, sum(r)) for r in RANGES]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_tasks_held_are_bounded(workers):
    drawn = []

    def tasks():
        for i in range(12):
            drawn.append(i)
            yield float(i)

    held = workers if workers >= 2 else 0  # running or queued beside the one handed on
    for handed, (task, root) in enumerate(ordered_map(math.sqrt, tasks(), workers), 1):
        assert root == math.sqrt(task)
        assert len(drawn) == min(12, handed + held)


def test_a_failing_task_raises_and_stops_the_pool():
    with pytest.raises(ValueError, match="math domain error"):
        list(ordered_map(math.sqrt, [4.0, 9.0, -1.0, 16.0, 25.0, 36.0], 2))
    assert multiprocessing.active_children() == []


def test_closing_after_one_result_stops_the_pool():
    results = ordered_map(math.sqrt, [float(i) for i in range(40)], 2)
    assert next(results) == (0.0, 0.0)
    results.close()
    assert multiprocessing.active_children() == []


def test_a_pool_starts_at_the_first_task_and_only_from_two_workers():
    real, pools, contexts = concurrent.futures.ProcessPoolExecutor, [], []

    def spy(max_workers, mp_context=None):
        contexts.append(mp_context)
        pools.append(real(max_workers, mp_context))
        return pools[-1]

    with mock.patch.object(concurrent.futures, "ProcessPoolExecutor", spy):
        for workers in (-1, 0, 1):
            assert list(ordered_map(math.sqrt, [1.0, 4.0], workers)) == [(1.0, 1.0), (4.0, 2.0)]
        assert list(ordered_map(math.sqrt, [], 2)) == []
        assert pools == []
        assert list(ordered_map(math.sqrt, [1.0, 4.0], 2)) == [(1.0, 1.0), (4.0, 2.0)]
    assert len(pools) == 1
    if "fork" in multiprocessing.get_all_start_methods():  # the cuts were measured under fork
        assert contexts[0].get_start_method() == "fork"
    assert multiprocessing.active_children() == []


def test_an_unpicklable_fn_is_refused_before_a_pool_starts():
    pools = []
    with mock.patch.object(concurrent.futures, "ProcessPoolExecutor",
                           lambda *args: pools.append(args)):
        # Python 3.11 raises AttributeError for a local object, later ones PicklingError
        with pytest.raises((pickle.PicklingError, AttributeError), match="Can't pickle"):
            list(ordered_map(lambda x: x, [1.0, 4.0], 2))
        assert list(ordered_map(lambda x: x, [1.0, 4.0], 1)) == [(1.0, 1.0), (4.0, 4.0)]
    assert pools == []
    assert multiprocessing.active_children() == []


@contextlib.contextmanager
def started_threads():
    """Collect the name of each thread _pool starts."""
    real, names = threading.Thread, []

    def spy(*args, **kwargs):
        thread = real(*args, **kwargs)
        names.append(thread.name)
        return thread

    with mock.patch.object(_pool.threading, "Thread", spy):
        yield names


class TestHalves:
    """_pool.halves: a large job's second half on one helper thread."""

    def test_a_large_job_is_cut_once_at_mid(self):
        with started_threads() as names, \
                mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True):
            count = threading.active_count()
            assert _pool.halves(range, _pool._SPLIT_ITEMS + 1, 7) == [
                range(7), range(7, _pool._SPLIT_ITEMS + 1)]
            assert threading.active_count() == count
        assert names == ["randpivot-half"]

    @pytest.mark.parametrize("size, mid, cpus", [
        (_pool._SPLIT_ITEMS, 7, {0, 1}),  # at the cut
        (_pool._SPLIT_ITEMS + 1, 7, {0}),  # one CPU
        (_pool._SPLIT_ITEMS + 1, 0, {0, 1}),  # an empty half
        (_pool._SPLIT_ITEMS + 1, _pool._SPLIT_ITEMS + 1, {0, 1}),
    ])
    def test_no_thread_below_the_cut_on_one_cpu_or_for_an_empty_half(self, size, mid, cpus):
        with started_threads() as names, \
                mock.patch.object(os, "sched_getaffinity", lambda pid: cpus, create=True):
            assert _pool.halves(range, size, mid) == [range(size)]
        assert names == []

    def test_no_thread_where_the_cpus_are_unknown(self):
        with started_threads() as names, mock.patch.object(_pool, "_SPLIT_ITEMS", 0), \
                pytest.MonkeyPatch.context() as patch:
            patch.delattr(os, "sched_getaffinity", raising=False)
            assert _pool.cpus() == 1
            assert _pool.halves(range, 10, 5) == [range(10)]
        assert names == []

    @pytest.mark.parametrize("failing", ["second", "first", "both"])
    def test_a_failing_half_is_raised_here_after_the_join(self, failing):
        done = []

        def fn(start, stop):
            half = "first" if start == 0 else "second"
            if failing in (half, "both"):
                raise ValueError(half)
            time.sleep(0.05)  # still running when the other half raises
            done.append(half)

        count = threading.active_count()
        with mock.patch.object(_pool, "_SPLIT_ITEMS", 0), \
                mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True), \
                pytest.raises(ValueError, match="first" if failing == "both" else failing):
            _pool.halves(fn, 10, 5)
        assert threading.active_count() == count
        assert done == ([] if failing == "both" else ["first" if failing == "second" else "second"])

    def test_the_helper_runs_in_the_callers_context(self):
        # numpy's errstate is a context variable: the helper's half keeps it
        def fn(start, stop):
            return np.geterr()["over"]

        with mock.patch.object(_pool, "_SPLIT_ITEMS", 0), \
                mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True), \
                np.errstate(over="ignore"):
            assert _pool.halves(fn, 10, 5) == ["ignore", "ignore"]
