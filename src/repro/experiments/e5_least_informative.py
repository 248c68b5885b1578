"""E5 — Theorem 5 / Corollary 1: least informative solutions are exact for REE=/REM=.

Claim validated: on equality-only queries the least-informative-solution
algorithm returns exactly the certain answers (checked against the
adversarial enumeration on small instances) and runs in polynomial time
on much larger ones.
"""

from __future__ import annotations

from typing import Sequence

from ..core.certain_answers import certain_answers_equality_only, certain_answers_naive
from ..core.least_informative import least_informative_solution
from ..query.data_rpq import equality_rpq, memory_rpq
from ..workloads.scenarios import social_network_scenario
from .harness import ExperimentResult, timed

__all__ = ["run"]

_EQUALITY_QUERIES = {
    "same-city-friends": equality_rpq("(knows)="),
    "same-city-2hop": equality_rpq("(knows.knows)="),
    "city-repeats": equality_rpq("knows* . (knows+)= . knows*"),
    "memory-same-city": memory_rpq("!x.((knows)+[x=])"),
}


def run(
    small_people: int = 4,
    scaling_people: Sequence[int] = (20, 50, 100),
    seed: int = 17,
) -> ExperimentResult:
    """Run E5 on social-network workloads.

    *small_people* sizes the agreement phase, whose exact side is the
    adversarial enumeration :func:`certain_answers_naive`: at 5 people
    its counter-solutions exceed ``DEFAULT_NAIVE_BUDGET`` and it raises
    :class:`~repro.exceptions.CertainAnswerError`, so the default stays
    at 4.
    """
    result = ExperimentResult(
        experiment="E5",
        claim="least informative solutions compute exact certain answers for equality-only queries",
    )
    small = social_network_scenario(num_people=small_people, rng=seed)
    for name, query in _EQUALITY_QUERIES.items():
        exact, exact_time = timed(lambda: certain_answers_naive(small.mapping, small.source, query))
        fast, fast_time = timed(
            lambda: certain_answers_equality_only(small.mapping, small.source, query)
        )
        result.add_row(
            phase="agreement",
            people=small_people,
            query=name,
            answers=len(fast),
            agree=(exact == fast),
            exact_seconds=exact_time,
            fast_seconds=fast_time,
        )
    for people in scaling_people:
        scenario = social_network_scenario(num_people=people, rng=seed)
        query = _EQUALITY_QUERIES["same-city-2hop"]
        solution, build_time = timed(
            lambda: least_informative_solution(scenario.mapping, scenario.source)
        )
        answers, answer_time = timed(
            lambda: certain_answers_equality_only(scenario.mapping, scenario.source, query)
        )
        result.add_row(
            phase="scaling",
            people=people,
            query="same-city-2hop",
            answers=len(answers),
            agree=None,
            exact_seconds=None,
            fast_seconds=build_time + answer_time,
        )
    result.add_note("Theorem 5 predicts agree = yes on every agreement row.")
    return result
