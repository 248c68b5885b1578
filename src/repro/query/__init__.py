"""Query evaluation over data graphs: RPQs, data RPQs, CRPQs.

This sub-package implements the evaluation side of Sections 2–3: ordinary
regular path queries via an NFA×graph product, data RPQs via either a
bottom-up relational algebra (equality RPQs) or a register-automaton
product (memory RPQs), conjunctive combinations of both, and the
homomorphism-preservation checks used by Propositions 2 and 6.
"""

from .crpq import (
    Atom,
    ConjunctiveRPQ,
    evaluate_crpq_naive,
    evaluate_crpq_with_engine,
    parse_crpq,
)
from .data_rpq import DataRPQ, data_path_query, data_rpq, equality_rpq, memory_rpq
from .data_rpq_eval import evaluate_data_rpq_naive
from .homomorphism_closure import is_preserved_on, violates_homomorphism_preservation
from .rpq import RPQ, atomic_rpq, reachability_rpq, rpq, word_rpq
from .rpq_eval import evaluate_rpq_naive, witness_path_labels

__all__ = [
    "RPQ",
    "rpq",
    "atomic_rpq",
    "word_rpq",
    "reachability_rpq",
    "evaluate_rpq_naive",
    "witness_path_labels",
    "DataRPQ",
    "data_rpq",
    "equality_rpq",
    "memory_rpq",
    "data_path_query",
    "evaluate_data_rpq_naive",
    "Atom",
    "ConjunctiveRPQ",
    "parse_crpq",
    "evaluate_crpq_naive",
    "evaluate_crpq_with_engine",
    "is_preserved_on",
    "violates_homomorphism_preservation",
]
