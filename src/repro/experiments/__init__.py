"""The experiment suite: one module per validated claim of the paper.

Each ``eN_*`` module exposes a ``run(...)`` function returning an
:class:`~repro.experiments.harness.ExperimentResult`; see DESIGN.md §9
for the experiment index, and ``python -m repro experiment <name>`` to
print one experiment's observations.
:func:`run_all` executes every experiment with its default (small)
parameters — this is what ``examples/reproduce_paper_claims.py`` and the
benchmark suite build on.
"""

from typing import Callable, Dict, List

from . import (
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
from .harness import ExperimentResult, render_table

__all__ = ["EXPERIMENTS", "run_all", "ExperimentResult", "render_table"]

#: Registry of experiment entry points, in presentation order.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "E1": e1_bounded_search.run,
    "E2": e2_three_coloring.run,
    "E3": e3_single_inequality.run,
    "E4": e4_universal_solution.run,
    "E5": e5_least_informative.run,
    "E6": e6_null_approximation.run,
    "E7": e7_pcp_gadget.run,
    "E8": e8_datapath_arbitrary.run,
    "E9": e9_gxpath_gadget.run,
    "E10": e10_query_eval.run,
}


def run_all() -> List[ExperimentResult]:
    """Run every experiment with its default parameters and return the results."""
    return [run() for run in EXPERIMENTS.values()]
