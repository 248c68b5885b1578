"""Workloads: scenario bundles and random sweeps for experiments and examples."""

from .random_workloads import (
    CRPQ_SHAPES,
    RandomWorkload,
    random_crpq,
    random_equality_query,
    random_relational_mapping,
    workload_sweep,
)
from .scenarios import (
    Scenario,
    multi_community_scenario,
    provenance_scenario,
    social_network_scenario,
)

__all__ = [
    "Scenario",
    "social_network_scenario",
    "provenance_scenario",
    "multi_community_scenario",
    "RandomWorkload",
    "random_relational_mapping",
    "random_equality_query",
    "random_crpq",
    "CRPQ_SHAPES",
    "workload_sweep",
]
