"""The benchmark suite: pytest-benchmark timings behind the CI gates.

Each file times one layer of the engine; the gate steps of
``.github/workflows/ci.yml`` read ratios of those timings.  The paper's
experiments are not re-run here: ``python -m repro experiment all
--quick`` prints them and ``EXPERIMENTS.md`` records them (DESIGN.md §9).

Run with::

    pytest benchmarks -o python_files='bench_*.py' -o python_functions='bench_*'
"""
