"""Query planning for conjunctive (data) RPQs — and, since v2, routing
and adaptive execution for every dialect.

The planner sits between the unified :class:`repro.api.Query` IR and
the engine kernels, turning a CRPQ's atom conjunction into an explicit
logical plan — cost-ordered scans, semijoin-seeded scans and hash joins
— instead of the retired nested-loop join
(:func:`repro.query.crpq.evaluate_crpq_naive`, kept as the executable
specification).

* :mod:`repro.planner.logical` — the plan IR (``AtomScan``,
  ``SeededScan``, ``HashJoin``, ``Filter``, ``Project``) and the
  ``render_plan`` explain text;
* :mod:`repro.planner.stats` — per-label degree summaries and the value
  histogram (``GraphStatistics``), cached on the graph and
  invalidated per touched label from the delta journal;
* :mod:`repro.planner.cost` — cardinality estimates from label-index
  edge counts, sharpened by the statistics catalogue when present;
* :mod:`repro.planner.planner` — :func:`plan_crpq`: existential-variable
  elimination (chain fusion, live columns), then the greedy
  cost-ordered join-order search producing a cacheable
  ``CrpqPlan``;
* :mod:`repro.planner.execute` — :func:`execute_plan`, adaptive
  hash-join execution with semijoin pushdown into the seeded engine
  kernels (:func:`repro.engine.product.seeded_product_relation`),
  mid-join re-planning on misestimates and cached-relation reuse;
* :mod:`repro.planner.router` — :func:`route_query`, the one step that
  resolves the kernel family (compact, unless the policy forces dict or
  SQL) for all five dialects.
"""

from .execute import PlanTrace, execute_plan
from .logical import AtomScan, Filter, HashJoin, Project, SeededScan
from .planner import plan_crpq
from .router import Route, route_query
from .stats import graph_statistics

__all__ = [
    "AtomScan",
    "SeededScan",
    "HashJoin",
    "Filter",
    "Project",
    "plan_crpq",
    "execute_plan",
    "PlanTrace",
    "Route",
    "route_query",
    "graph_statistics",
]
