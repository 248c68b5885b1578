"""The shared query-evaluation engine (compiled-automaton cache + indexed product BFS).

This sub-package is the seam between the query languages (RPQ, data RPQ,
GXPath) and the data store (:class:`~repro.datagraph.graph.DataGraph`).
It provides:

* :class:`EvaluationEngine` — the facade every evaluator routes through,
  owning LRU-bounded caches of parsed regexes and compiled automata plus
  batched entry points (``evaluate_many`` / ``holds_many``);
* :func:`default_engine` — the process-wide instance used by the
  module-level functions in :mod:`repro.query` and by the certain-answer
  algorithms, so all call sites share one compilation cache;
* :class:`CompiledAutomaton` — ε-free tabular automata built once per
  query;
* the bit-row algebra (:mod:`repro.engine.data`) behind every
  sequential RPQ, scoped data RPQ and GXPath expression, and the
  :class:`ProductSpace` protocol (:mod:`repro.engine.spaces`) —
  :class:`NfaProductSpace` for plain RPQs, :class:`RegisterProductSpace`
  for data RPQs — evaluated by the phase kernels
  (:mod:`repro.engine.product`) over each graph's lazily built
  :class:`~repro.datagraph.index.LabelIndex`, all handing their answer
  over as a :class:`BitRelation` (:mod:`repro.engine.bitrelation`) —
  per-target source bitmasks, decoded exactly once by the one decoder;
* the forced ``blocks`` driver (:mod:`repro.engine.partition`) — the
  source-block parallel pass over forked workers, generic over any
  product space.

Quickstart::

    from repro.engine import default_engine

    engine = default_engine()
    answers = engine.evaluate_rpq(graph, "a.(a|b)*.b")      # full e(G)
    many = engine.evaluate_many(graph, ["a.b", "b*", "a*"])  # shared index
    engine.stats()["automata"].hits                          # cache telemetry
"""

from .bitrelation import BitRelation
from .cache import CacheStats, LRUCache
from .compiled import CompiledAutomaton, compile_nfa
from .engine import EvaluationEngine, default_engine, set_default_engine
from .partition import parallel_full_relation, parallel_product_relation, split_blocks
from .spaces import NfaProductSpace, ProductSpace, RegisterProductSpace

__all__ = [
    "EvaluationEngine",
    "default_engine",
    "set_default_engine",
    "BitRelation",
    "CompiledAutomaton",
    "compile_nfa",
    "CacheStats",
    "LRUCache",
    "ProductSpace",
    "NfaProductSpace",
    "RegisterProductSpace",
    "split_blocks",
    "parallel_full_relation",
    "parallel_product_relation",
]
