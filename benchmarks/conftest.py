"""Shared configuration for the benchmark suite.

Each ``bench_e*.py`` file regenerates one experiment of the reproduction
(see DESIGN.md §9; ``python -m repro experiment <name>`` runs one).
Experiments are wrapped with ``benchmark.pedantic(..., rounds=1)``
because a single run already aggregates many internal measurements; the
micro-benchmarks in ``bench_micro_operations.py`` use the default
calibration instead.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pytest


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under the benchmark timer and return its result."""

    def runner(function, *args, **kwargs):
        return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
