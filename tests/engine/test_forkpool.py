"""Direct coverage for the fork fan-out helper.

:mod:`repro.engine.forkpool` backs the one process fan-out in the
project (the forced ``blocks`` driver), so its edge cases — worker
exceptions, platforms without ``fork``, empty fan-outs — are pinned here
rather than discovered through the driver.
"""

from __future__ import annotations

import threading

import pytest

from repro.datagraph import generators
from repro.engine import default_engine, forkpool, partition
from repro.engine.forkpool import fork_available, run_forked


def _double(payload, index):
    return payload * index


def _scaled(payload, index):
    _lock, factor = payload
    return factor * index


def _explode(payload, index):
    if index == 1:
        raise ValueError(f"worker {index} exploded on purpose")
    return index


needs_fork = pytest.mark.skipif(not fork_available(), reason="platform has no fork")


class TestRunForked:
    @needs_fork
    def test_results_come_back_in_task_order(self):
        assert run_forked(3, _double, 4) == [0, 3, 6, 9]

    @needs_fork
    def test_more_tasks_than_cores_still_come_back_in_order(self):
        assert run_forked(1, _double, 9) == list(range(9))

    @needs_fork
    def test_payload_reaches_workers_by_fork_not_by_pickle(self):
        # A lock cannot be pickled: the payload must travel by the fork.
        payload = (threading.Lock(), 4)
        assert run_forked(payload, _scaled, 3) == [0, 4, 8]

    @needs_fork
    def test_state_is_cleared_after_a_fan_out(self):
        assert run_forked(2, _double, 2) == [0, 2]
        assert forkpool._STATE is None

    @needs_fork
    def test_worker_exception_propagates_to_the_caller(self):
        with pytest.raises(ValueError, match="exploded on purpose"):
            run_forked(None, _explode, 3)

    @needs_fork
    def test_state_is_cleared_even_after_a_worker_failure(self):
        with pytest.raises(ValueError):
            run_forked(None, _explode, 3)
        assert forkpool._STATE is None

    @needs_fork
    def test_concurrent_fan_outs_do_not_cross_wires(self):
        # Two threads forking at once: the lock keeps each pool on its
        # own payload.
        outcomes = {}

        def fan_out(payload):
            outcomes[payload] = run_forked(payload, _double, 3)

        threads = [threading.Thread(target=fan_out, args=(payload,)) for payload in (2, 5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes == {2: [0, 2, 4], 5: [0, 5, 10]}

    def test_empty_task_list_short_circuits(self):
        # No pool (ProcessPoolExecutor would reject max_workers=0) and no
        # fork needed: an empty fan-out must work on every platform.
        assert run_forked(None, _explode, 0) == []


class TestForkUnavailableFallbacks:
    """Callers must degrade — with identical answers — when fork is absent."""

    def _relation(self):
        graph = generators.random_graph(20, 50, labels=("a", "b"), rng=11)
        index = graph.label_index()
        automaton = default_engine().compile_rpq("a.(a|b)*")
        return index, automaton

    def test_parallel_driver_auto_backend_degrades_to_threads(self, monkeypatch):
        index, automaton = self._relation()
        expected = partition.product.full_relation(index, automaton)
        monkeypatch.setattr(partition, "fork_available", lambda: False)
        monkeypatch.setattr(
            partition, "run_forked", lambda *a, **k: pytest.fail("forked despite no fork")
        )
        assert partition.parallel_full_relation(index, automaton, num_blocks=3) == expected
