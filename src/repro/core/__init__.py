"""Core of the paper: graph schema mappings, solutions and certain answers.

This sub-package implements Definition 1 (graph schema mappings and their
LAV / GAV / relational / reachability sub-classes), Definition 2 (certain
answers), the universal solutions with SQL nulls of Section 7, the least
informative solutions of Section 8, the Proposition 1 relational
encoding, the Proposition 5 mapping simplification, and end-to-end data
exchange / virtual integration façades.
"""

from .certain_answers import (
    certain_answers,
    certain_answers_data_path,
    certain_answers_equality_only,
    certain_answers_naive,
    certain_answers_with_nulls,
    is_certain_answer,
    simplify_mapping_for_data_path_query,
)
from .exchange import DataExchangeEngine
from .gsm import GraphSchemaMapping, MappingRule, copy_mapping, gav_mapping, lav_mapping
from .integration import VirtualIntegrationSystem
from .least_informative import least_informative_solution
from .solutions import is_solution
from .universal import homomorphism_to_solution, universal_solution

__all__ = [
    "GraphSchemaMapping",
    "MappingRule",
    "lav_mapping",
    "gav_mapping",
    "copy_mapping",
    "is_solution",
    "universal_solution",
    "homomorphism_to_solution",
    "least_informative_solution",
    "certain_answers",
    "certain_answers_naive",
    "certain_answers_with_nulls",
    "certain_answers_equality_only",
    "certain_answers_data_path",
    "simplify_mapping_for_data_path_query",
    "is_certain_answer",
    "DataExchangeEngine",
    "VirtualIntegrationSystem",
]
