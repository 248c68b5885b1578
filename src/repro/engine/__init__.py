"""The shared query-evaluation engine (compiled-automaton cache + indexed product BFS).

This sub-package is the seam between the query languages (RPQ, data RPQ,
GXPath) and the data store (:class:`~repro.datagraph.graph.DataGraph`).
It provides:

* :class:`EvaluationEngine` — the facade every evaluator routes through,
  owning LRU-bounded caches of parsed regexes and compiled automata plus
  a batched entry point (``evaluate_many``);
* :func:`default_engine` — the process-wide instance used by sessions
  without an engine of their own, :func:`repro.query.witness_path_labels`
  and the certain-answer algorithms, so all call sites share one
  compilation cache;
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
  per-target source bitmasks, decoded exactly once by the one decoder.

Every query runs sequentially.  :mod:`repro.engine.partition` (a
source-block pass over forked workers) is imported by nothing here; see
its docstring for why it is kept.

Quickstart::

    from repro.engine import default_engine

    engine = default_engine()
    answers = engine.evaluate_rpq(graph, "a.(a|b)*.b")      # full e(G)
    many = engine.evaluate_many(graph, ["a.b", "b*", "a*"])  # shared index
    engine.stats()["automata"].hits                          # cache telemetry
"""

from .bitrelation import BitRelation
from .cache import CacheStats, LRUCache
from .compiled import CompiledAutomaton
from .engine import EvaluationEngine, default_engine
from .spaces import NfaProductSpace, ProductSpace, RegisterProductSpace

__all__ = [
    "EvaluationEngine",
    "default_engine",
    "BitRelation",
    "CompiledAutomaton",
    "CacheStats",
    "LRUCache",
    "ProductSpace",
    "NfaProductSpace",
    "RegisterProductSpace",
]
