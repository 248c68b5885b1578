"""Workloads: scenario bundles and random sweeps for experiments and examples."""

from .random_workloads import random_crpq, workload_sweep
from .scenarios import multi_community_scenario, provenance_scenario, social_network_scenario

__all__ = [
    "social_network_scenario",
    "provenance_scenario",
    "multi_community_scenario",
    "random_crpq",
    "workload_sweep",
]
