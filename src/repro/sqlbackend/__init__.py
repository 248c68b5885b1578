"""The SQL execution backend: query IR compiled to recursive CTEs.

The third storage/execution backend next to the dict index and the
compact CSR (``ExecutionPolicy(backend="sql")``, only when forced): the
paper's relational encoding ``D_G`` materialised in an embedded SQL
engine (stdlib sqlite3 always, DuckDB when importable) and kept current
through the graph's delta journal, with RPQs and whole CRPQ plans
compiled to ``WITH RECURSIVE`` product-reachability statements.  See
``DESIGN.md`` §7.
"""

from .backend import (
    clear_sql_caches,
    closure_pairs,
    evaluate_plan_rows,
    evaluate_rpq_pairs,
    sql_cache_stats,
    store_for,
)
from .schema import SQL_DIALECTS, SqlStore, duckdb_available

__all__ = [
    "SQL_DIALECTS",
    "SqlStore",
    "duckdb_available",
    "store_for",
    "evaluate_rpq_pairs",
    "closure_pairs",
    "evaluate_plan_rows",
    "sql_cache_stats",
    "clear_sql_caches",
]
