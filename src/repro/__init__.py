"""repro — Schema mappings, data exchange and integration for data graphs.

A faithful, executable reproduction of *Schema Mappings for Data Graphs*
(Nadime Francis and Leonid Libkin, PODS 2017).  See README.md for a tour
and DESIGN.md for the module inventory.

The top-level package re-exports the main user-facing API, in the order
of ``__all__``:

* the data model (:class:`DataGraph`, :class:`Node`, :class:`Path`,
  :class:`DataPath`, :class:`GraphBuilder`, :class:`PropertyGraph`, the
  :data:`NULL` value and the JSON (de)serialisers);
* the unified execution API (:class:`Query`, :class:`QueryKind`,
  :class:`GraphSession`, :class:`Result`, :class:`ExecutionPolicy`) —
  every query language evaluated through one session with a versioned
  result cache;
* query construction for each language (RPQs via :func:`rpq` and
  friends, data RPQs via :func:`equality_rpq` / :func:`memory_rpq` /
  :func:`data_path_query`, regular-expression parsing via
  :func:`parse_regex`, GXPath via :func:`parse_gxpath_node` /
  :func:`parse_gxpath_path`);
* the evaluation engine seam (:class:`EvaluationEngine`,
  :func:`default_engine`);
* schema mappings and certain answers (:class:`GraphSchemaMapping`,
  :func:`certain_answers`, :func:`universal_solution`,
  :func:`least_informative_solution`, ...);
* the end-to-end façades (:class:`DataExchangeEngine`,
  :class:`VirtualIntegrationSystem`).

Heavier sub-systems (reductions, workloads, experiments) are imported via
their sub-packages, e.g. ``from repro.reductions import pcp``.
"""

from __future__ import annotations

__version__ = "2.0.0"

from .api import ExecutionPolicy, GraphSession, Query, QueryKind, Result
from .core import (
    DataExchangeEngine,
    GraphSchemaMapping,
    MappingRule,
    VirtualIntegrationSystem,
    certain_answers,
    certain_answers_data_path,
    certain_answers_equality_only,
    certain_answers_naive,
    certain_answers_with_nulls,
    copy_mapping,
    is_certain_answer,
    is_solution,
    lav_mapping,
    least_informative_solution,
    universal_solution,
)
from .core.solutions import mapping_domain
from .datagraph import (
    NULL,
    DataGraph,
    DataPath,
    GraphBuilder,
    Node,
    PropertyGraph,
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
)
from .datagraph.paths import Path
from .deltas import DeltaJournal, GraphDelta, MutationBatch
from .engine import EvaluationEngine, default_engine
from .gxpath import parse_gxpath_node, parse_gxpath_path
from .query import (
    RPQ,
    ConjunctiveRPQ,
    DataRPQ,
    atomic_rpq,
    data_path_query,
    equality_rpq,
    memory_rpq,
    parse_crpq,
    reachability_rpq,
    rpq,
    word_rpq,
)
from .regular import parse_regex

__all__ = [
    "__version__",
    # data model
    "DataGraph",
    "Node",
    "Path",
    "DataPath",
    "GraphBuilder",
    "PropertyGraph",
    "NULL",
    "graph_to_dict",
    "graph_from_dict",
    "graph_to_json",
    "graph_from_json",
    # incremental maintenance (repro.deltas)
    "GraphDelta",
    "MutationBatch",
    "DeltaJournal",
    # unified execution API (repro.api)
    "Query",
    "QueryKind",
    "GraphSession",
    "Result",
    "ExecutionPolicy",
    # query construction per language
    "RPQ",
    "DataRPQ",
    "ConjunctiveRPQ",
    "rpq",
    "atomic_rpq",
    "word_rpq",
    "reachability_rpq",
    "equality_rpq",
    "memory_rpq",
    "data_path_query",
    "parse_regex",
    "parse_gxpath_node",
    "parse_gxpath_path",
    "parse_crpq",
    # evaluation engine seam
    "EvaluationEngine",
    "default_engine",
    # mappings and certain answers
    "GraphSchemaMapping",
    "MappingRule",
    "lav_mapping",
    "copy_mapping",
    "is_solution",
    "mapping_domain",
    "universal_solution",
    "least_informative_solution",
    "certain_answers",
    "certain_answers_naive",
    "certain_answers_with_nulls",
    "certain_answers_equality_only",
    "certain_answers_data_path",
    "is_certain_answer",
    # façades
    "DataExchangeEngine",
    "VirtualIntegrationSystem",
]
