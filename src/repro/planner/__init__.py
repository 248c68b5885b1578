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
  histogram (:class:`GraphStatistics`), cached on the graph and
  invalidated per touched label from the delta journal;
* :mod:`repro.planner.cost` — cardinality estimates from label-index
  edge counts, sharpened by the statistics catalogue when present;
* :mod:`repro.planner.planner` — :func:`plan_crpq`: existential-variable
  elimination (chain fusion, live columns), then the greedy
  cost-ordered join-order search producing a cacheable
  :class:`CrpqPlan`;
* :mod:`repro.planner.execute` — :func:`execute_plan`, adaptive
  hash-join execution with semijoin pushdown into the seeded engine
  kernels (:func:`repro.engine.product.seeded_product_relation`),
  mid-join re-planning on misestimates and cached-relation reuse;
* :mod:`repro.planner.router` — :func:`route_query`, the cost step that
  picks sequential / compact / SQL execution for all five dialects (a
  ``blocks`` driver only when the policy forces it),
  demoting the policy knobs to overrides.
"""

from .cost import atom_estimate, regex_estimate
from .execute import ADAPTIVE_REPLAN_RATIO, PlanTrace, execute_plan
from .logical import (
    AtomScan,
    Filter,
    HashJoin,
    PlanNode,
    Project,
    SeededScan,
    render_plan,
)
from .planner import CrpqPlan, plan_crpq, reorder_remaining
from .router import Route, route_query
from .stats import GraphStatistics, LabelStats, graph_statistics

__all__ = [
    "AtomScan",
    "SeededScan",
    "HashJoin",
    "Filter",
    "Project",
    "PlanNode",
    "render_plan",
    "atom_estimate",
    "regex_estimate",
    "CrpqPlan",
    "plan_crpq",
    "reorder_remaining",
    "execute_plan",
    "PlanTrace",
    "ADAPTIVE_REPLAN_RATIO",
    "Route",
    "route_query",
    "GraphStatistics",
    "LabelStats",
    "graph_statistics",
]
