"""Tests for the package's one process pool, _pool.ordered_map.

Every fn that reaches a pool here is importable: on Python 3.11 a task
whose fn cannot be pickled can leave the pool's shutdown() waiting
forever, so ordered_map refuses such an fn before a pool starts.
"""
import concurrent.futures
import math
import multiprocessing
import pickle
from unittest import mock

import pytest

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
