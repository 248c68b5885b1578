"""Cost-based selection of the SQL backend under ``backend="auto"``.

One shape still beats the compact kernels in SQL: a plain RPQ that is a
concatenation of letter-set steps and closures
(:func:`repro.sqlbackend.compile.concat_parts`) with a very selective
step.  The factored plan materialises that *pivot* first and grows the
closures around it as fixpoints seeded by the pivot's endpoints, so its
work is bounded by the answer's neighbourhood, while the mask kernels
flow every source through the whole closure before the rare step
filters it away.  Everything else — small graphs, bare closures,
closure-free paths, point lookups, CRPQ plans — stays on the
dict/compact kernels, which measure 1.2-72x faster there on 1-4k-node
graphs (the ratios are in DESIGN.md, "How a query is routed"); a forced
``backend="sql"`` still runs RPQs and CRPQs.  GXPath never reaches this
rule: its one route is the bit-row algebra, and a forced ``sql``
backend is declined for it by the router.

Answers are bit-identical either way — the selection is purely a
performance policy, enforced as such by the equivalence suite in
``tests/sqlbackend``.
"""

from __future__ import annotations

from typing import Optional

from ..datagraph.index import LabelIndex
from ..regular import Regex
from .compile import STEP, concat_parts

__all__ = ["SQL_AUTO_MIN_NODES", "SQL_PIVOT_SELECTIVITY", "rpq_pays"]

#: Below this many nodes ``"auto"`` never selects SQL: the per-query
#: seeding/decoding overhead and the kernels' low constants dominate.
SQL_AUTO_MIN_NODES = 1024

#: ``"auto"`` selects SQL only when the cheapest step factor has at most
#: ``|V| / SQL_PIVOT_SELECTIVITY`` edges.  Measured sql vs compact, full
#: relation, 2-core container (``compact / sql``, > 1 means SQL wins):
#:
#: * ``(cites)*.tagged`` on a 1,200-node citation chain (deep closure,
#:   ``bench_sql_backend``), pivot share 0.66 % / 1.0 % / 1.6 % / 2.3 % /
#:   4.8 % / 9.1 % of ``|V|``: **9.9x / 6.5x / 3.0x / 2.4x / 1.1x / 0.8x**
#:   (2,400 nodes: 16x at 0.33 %, 7.0x at 0.8 %, 3.3x at 1.5 %);
#: * ``flag.supplies_to+`` / ``supplies_to*.flag`` on tiered supplier
#:   graphs (shallow closure, 8 tiers, 1,048-2,088 nodes): 0.8-1.45x up
#:   to 0.8 %, 0.8-1.3x at 1.5 %, 0.6-0.9x at 3 %, 0.5-0.6x at 6 %; on 16
#:   tiers (bigger answers) SQL loses 1.05-1.9x below 0.8 % and 2.3-3.4x
#:   at 1.5 %.
#:
#: So the win needs a *deep* closure behind a pivot under about 1 % of
#: ``|V|``; no label statistic sees depth, so the rule keeps only the
#: selectivity half and sets it where the deep case wins >= 6x and the
#: shallow case is a tie (the old ``|V| / 4`` sent 20 %-share pivots to a
#: 3.6x loss).
SQL_PIVOT_SELECTIVITY = 128


def rpq_pays(expression: Regex, index: Optional[LabelIndex]) -> bool:
    """Whether ``"auto"`` should run this RPQ through the SQL backend:
    the graph clears the size floor and the factored plan applies with a
    closure to seed and a pivot selective enough to bound its work."""
    if index is None:
        return False
    num_nodes = len(index.nodes)
    if num_nodes < SQL_AUTO_MIN_NODES:
        return False
    parts = concat_parts(expression)
    if parts is None:
        return False
    step_counts = [
        sum(index.edge_count(label) for label in labels)
        for kind, labels in parts
        if kind == STEP
    ]
    if not step_counts or len(step_counts) == len(parts):
        return False  # no pivot, or no closure for it to seed
    return min(step_counts) * SQL_PIVOT_SELECTIVITY <= num_nodes
