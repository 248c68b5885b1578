#!/usr/bin/env python3
"""Run the full experiment suite (E1–E10) and print the result tables.

This is the presentation-sized reproduction driver: each experiment in
``repro.experiments`` validates one of the paper's claims (see DESIGN.md
§9 for the index; ``python -m repro experiment <name>`` runs one).  With
the default parameters the whole run takes a few minutes on a laptop;
pass ``--quick`` to use the reduced parameters the test suite uses.

Run with::

    python examples/reproduce_paper_claims.py [--quick] [--only E4 E5]
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import EXPERIMENTS
from repro.experiments import (
    e1_bounded_search,
    e2_three_coloring,
    e3_single_inequality,
    e4_universal_solution,
    e5_least_informative,
    e6_null_approximation,
    e7_pcp_gadget,
    e8_datapath_arbitrary,
    e9_gxpath_gadget,
    e10_query_eval,
)

#: Reduced parameter sets used with --quick (mirrors the test suite).
QUICK_PARAMETERS = {
    "E1": lambda: e1_bounded_search.run(sizes=(2, 4)),
    "E2": lambda: e2_three_coloring.run(),
    "E3": lambda: e3_single_inequality.run(small_sizes=(2, 4), large_sizes=(50,)),
    "E4": lambda: e4_universal_solution.run(chain_lengths=(5, 10), agreement_chain_length=2),
    "E5": lambda: e5_least_informative.run(small_people=4, scaling_people=(20,)),
    "E6": lambda: e6_null_approximation.run(sizes=(3, 4), instances_per_setting=1),
    "E7": lambda: e7_pcp_gadget.run(max_solution_length=5),
    "E8": lambda: e8_datapath_arbitrary.run(sizes=(3, 5)),
    "E9": lambda: e9_gxpath_gadget.run(max_solution_length=5),
    "E10": lambda: e10_query_eval.run(sizes=(20, 50)),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="use reduced parameters")
    parser.add_argument(
        "--only", nargs="*", default=None, help="run only the listed experiments (e.g. E4 E5)"
    )
    arguments = parser.parse_args(argv)

    selected = arguments.only or list(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; available: {list(EXPERIMENTS)}")

    overall_start = time.perf_counter()
    for name in selected:
        runner = QUICK_PARAMETERS[name] if arguments.quick else EXPERIMENTS[name]
        started = time.perf_counter()
        result = runner()
        elapsed = time.perf_counter() - started
        print()
        print(result.to_table())
        print(f"[{name} finished in {elapsed:.1f}s]")
    print(f"\ntotal time: {time.perf_counter() - overall_start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
