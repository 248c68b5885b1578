"""The experiment suite: one module per validated claim of the paper.

Each ``eN_*`` module exposes a ``run(...)`` function returning an
:class:`~repro.experiments.harness.ExperimentResult`; see DESIGN.md §9
for the experiment index.  :data:`EXPERIMENTS` is the one table of
experiments: each entry's ``run``, its quick keyword arguments (small
enough for tier-1) and its verdict columns, the claim columns that must
read ``yes`` wherever they are defined.  :func:`run_all` is the one
runner; ``python -m repro experiment all --quick`` prints its tables,
and that output is committed as ``EXPERIMENTS.md``, which
``tests/experiments/test_experiments_run.py`` holds every quick run to.
"""

from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Tuple

from ..exceptions import ReproError
from ..reductions.three_coloring import complete_graph_k4, triangle
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

__all__ = ["EXPERIMENTS", "Experiment", "run_all", "refuted", "ExperimentResult", "render_table"]


class Experiment(NamedTuple):
    """One row of :data:`EXPERIMENTS`."""

    run: Callable[..., ExperimentResult]
    #: The keyword arguments of ``--quick`` (and of the tier-1 record test).
    quick: Mapping[str, Any]
    #: Claim columns that must read ``yes`` on every row that defines them.
    verdicts: Tuple[str, ...]


#: Registry of experiments, in presentation order.
EXPERIMENTS: Dict[str, Experiment] = {
    "E1": Experiment(
        e1_bounded_search.run,
        {"sizes": (2, 3)},
        ("exact_equals_least_informative", "nulls_subset_of_exact", "repeat_query_agrees"),
    ),
    "E2": Experiment(
        e2_three_coloring.run, {"inputs": (triangle, complete_graph_k4)}, ("matches_claim",)
    ),
    "E3": Experiment(
        e3_single_inequality.run, {"small_sizes": (2, 3), "large_sizes": (20,)}, ("agree",)
    ),
    "E4": Experiment(
        e4_universal_solution.run,
        {"chain_lengths": (4, 8), "agreement_chain_length": 2},
        ("sound",),
    ),
    "E5": Experiment(e5_least_informative.run, {"scaling_people": (10,)}, ("agree",)),
    # E6 measures recall, which may be below 1; soundness is asserted inside the run.
    "E6": Experiment(
        e6_null_approximation.run,
        {"sizes": (3, 4), "query_tests": ("equal", "unequal"), "instances_per_setting": 1},
        (),
    ),
    "E7": Experiment(
        e7_pcp_gadget.run,
        {"max_solution_length": 5},
        ("witness_is_solution", "decodes_back", "error_free"),
    ),
    "E8": Experiment(e8_datapath_arbitrary.run, {"sizes": (3, 4)}, ("agree",)),
    "E9": Experiment(
        e9_gxpath_gadget.run,
        {"max_solution_length": 5},
        (
            "preconditions_hold",
            "bare_tree_flagged",
            "extension_is_solution",
            "extension_error_free",
            "corrupted_flagged",
        ),
    ),
    "E10": Experiment(e10_query_eval.run, {"sizes": (10, 20)}, ("engines_agree",)),
}


def run_all(names: Optional[Iterable[str]] = None, quick: bool = False) -> Iterator[ExperimentResult]:
    """Run the named experiments (every one by default) in the order given.

    Names are case-insensitive and ``all`` stands for the whole table.
    Every name is checked before anything runs; the experiments
    themselves run lazily, one per item drawn from the returned iterator.
    """
    selected: List[str] = []
    for name in names or ["all"]:
        name = name.upper()
        selected.extend(EXPERIMENTS if name == "ALL" else [name])
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        raise ReproError(
            f"unknown experiment {', '.join(unknown)}; available: {', '.join(EXPERIMENTS)}, all"
        )
    return (
        EXPERIMENTS[name].run(**(EXPERIMENTS[name].quick if quick else {})) for name in selected
    )


def refuted(result: ExperimentResult) -> List[str]:
    """The verdict columns of *result* that read ``no`` on some row."""
    return [
        column
        for column in EXPERIMENTS[result.experiment].verdicts
        if any(value is False for value in result.column(column))
    ]
