"""Relational data-exchange substrate: schemas, conjunctive queries, tgds, chase.

Section 6 of the paper relates relational graph schema mappings to
classical relational mappings over the encoding ``D_G`` of data graphs
(Proposition 1).  This sub-package provides the classical side: relation
schemas and instances, marked nulls, atom patterns, st-tgds / target
tgds / egds and the standard chase.  The graph-side encoding lives in
:mod:`repro.datagraph.relational_view`; the Proposition 1 translation of
a relational GSM into dependencies lives in
:mod:`repro.core.relational_encoding`.
"""

from .chase import chase, solution_satisfies
from .conjunctive import AtomPattern, Variable
from .schema import Instance, MarkedNull, RelationSchema, Schema
from .tgds import EGD, TGD

__all__ = [
    "Schema",
    "RelationSchema",
    "Instance",
    "MarkedNull",
    "Variable",
    "AtomPattern",
    "TGD",
    "EGD",
    "chase",
    "solution_satisfies",
]
