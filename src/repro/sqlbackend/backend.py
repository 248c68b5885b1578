"""Execution of compiled SQL: stores, statement cache, decode boundary.

This module owns the runtime half of the SQL backend:

* a **weak-keyed store registry** — one :class:`~repro.sqlbackend.
  schema.SqlStore` per live graph, refreshed to the graph's version by
  every statement (incrementally, through the delta journal) and
  rebuilt after ``fork`` (an inherited sqlite connection must not be
  reused, so stores are pinned to the pid that created them);
* a **compiled-SQL LRU** keyed on the structural query key plus the
  seeding shape, mirroring the engine's automaton caches: two queries
  parsed from different texts but with equal ASTs share one SQL string,
  and sqlite's per-connection prepared-statement cache then skips the
  SQL parse on re-execution because the statement text is byte-identical
  (seeds live in the ``_src_seeds`` / ``_dst_seeds`` tables, never in
  the statement);
* the **decode boundary**: compiled statements join on the store's dense
  ints; public :class:`~repro.datagraph.node.NodeId` values appear only
  when seeding and when decoding fetched rows, exactly like the compact
  CSR backend.

The entry points mirror the engine seams they plug into:
:func:`evaluate_rpq_pairs` (full or seeded RPQ relations, the
``evaluate_rpq`` / ``evaluate_atom_ids`` twin) and
:func:`evaluate_plan_rows` (whole CRPQ plans for
:func:`repro.planner.execute.execute_plan`), plus :func:`closure_pairs`,
which no route runs (see its docstring).
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import FrozenSet, Iterable, Optional, Set, Tuple

from ..datagraph.graph import DataGraph
from ..datagraph.node import NodeId
from ..engine.cache import CacheStats, LRUCache
from ..query.data_rpq import DataRPQ
from ..regular import Regex
from .compile import (
    DST_SEEDS,
    SRC_SEEDS,
    atom_table_name,
    closure_sql,
    concat_parts,
    crpq_sql,
    factored_rpq_sql,
    pick_pivot,
    rpq_sql,
)
from .schema import SqlStore

__all__ = [
    "store_for",
    "evaluate_rpq_pairs",
    "closure_pairs",
    "evaluate_plan_rows",
    "sql_cache_stats",
    "clear_sql_caches",
]

Pair = Tuple[NodeId, NodeId]

#: One store per live graph.  Weak keys: dropping the last graph
#: reference drops its database (stores hold no graph reference back).
_STORES: "weakref.WeakKeyDictionary[DataGraph, SqlStore]" = weakref.WeakKeyDictionary()
_STORES_LOCK = threading.Lock()

#: Compiled statements, keyed on ``(shape, structural plan, seeded
#: sources?, seeded targets?)``.
_SQL_CACHE: LRUCache[str] = LRUCache(256)


def store_for(graph: DataGraph, dialect: str = "auto") -> SqlStore:
    """The graph's ``D_G`` store, built on first use.  Callers bring it
    to the graph's current version themselves — ``store.refresh(graph)``
    under ``store.lock``, so the refresh and the statement that needs it
    are one critical section.

    A store created before a ``fork`` is discarded in the child; an
    explicit *dialect* differing from the cached store's also rebuilds
    (sessions pin one dialect, so this never thrashes in practice).
    """
    with _STORES_LOCK:
        store = _STORES.get(graph)
        if store is not None and (
            store.pid != os.getpid()
            or (dialect != "auto" and store.dialect != dialect)
        ):
            store.close()
            store = None
        if store is None:
            store = SqlStore(graph, dialect)
            _STORES[graph] = store
    return store


def _expression_key(engine, query) -> Regex:
    """The structural regex AST behind any RPQ-like query value."""
    if isinstance(query, str):
        return engine.parse(query)
    if isinstance(query, Regex):
        return query
    return query.expression


def _decode_pairs(store: SqlStore, rows) -> FrozenSet[Pair]:
    ids = store.node_id
    return frozenset((ids(source), ids(target)) for source, target in rows)


def _seed(
    store: SqlStore, table: str, node_ids: Optional[Iterable[NodeId]]
) -> Optional[bool]:
    """Fill one seeding table; ``False`` means the seed set died (no
    surviving known ids), ``None`` means unseeded."""
    if node_ids is None:
        return None
    ints = store.ints_of(set(node_ids))
    if not ints:
        return False
    store.seed(table, sorted(ints))
    return True


def evaluate_rpq_pairs(
    graph: DataGraph,
    query,
    engine=None,
    sources: Optional[Iterable[NodeId]] = None,
    targets: Optional[Iterable[NodeId]] = None,
    dialect: str = "auto",
) -> FrozenSet[Pair]:
    """One RPQ's relation ``e(G)`` as id pairs, via the recursive CTE.

    *sources* / *targets* restrict the relation exactly like the seeded
    kernels (unknown ids are dropped); the compiled statement is shared
    across seed sets of the same shape.

    Full-relation queries whose regex is a concatenation of letter-set
    steps and closures compile to the **factored** plan instead of the
    product CTE: the store's label statistics pick the most selective
    step factor as the base relation, and the closures around it run as
    seeded fixpoints — work bounded by the pivot's reachable
    neighbourhood rather than ``|V| x closure``.
    """
    if engine is None:
        from ..engine.engine import default_engine

        engine = default_engine()
    expression = _expression_key(engine, query)
    store = store_for(graph, dialect)
    with store.lock:
        store.refresh(graph)
        if sources is None and targets is None:
            parts = concat_parts(expression)
            if parts is not None:
                pivot = pick_pivot(parts, store.label_counts())
                sql = _SQL_CACHE.get_or_build(
                    ("rpq-factored", expression, pivot),
                    lambda: factored_rpq_sql(parts, pivot),
                )
                return _decode_pairs(store, store.rows(sql))
        automaton = engine.compile_rpq(expression)
        key = ("rpq", expression, sources is not None, targets is not None)
        sql = _SQL_CACHE.get_or_build(
            key,
            lambda: rpq_sql(
                automaton,
                seeded_sources=sources is not None,
                seeded_targets=targets is not None,
            ),
        )
        if _seed(store, SRC_SEEDS, sources) is False:
            return frozenset()
        if _seed(store, DST_SEEDS, targets) is False:
            return frozenset()
        rows = store.rows(sql)
        return _decode_pairs(store, rows)


def closure_pairs(
    graph: DataGraph,
    label: str,
    inverse: bool = False,
    dialect: str = "auto",
) -> FrozenSet[Pair]:
    """The reflexive-transitive closure of one axis as id pairs.

    For ``inverse=True`` the statement traverses the transposed edges
    directly.  No route runs it (GXPath's ``a*`` is the bit-row algebra's
    closure); kept only because the frozen e2e tracer resolves it by
    name, it goes with that tracer row.
    """
    sql = _SQL_CACHE.get_or_build(
        ("closure", label, inverse), lambda: closure_sql(label, inverse)
    )
    store = store_for(graph, dialect)
    with store.lock:
        store.refresh(graph)
        rows = store.rows(sql)
        return _decode_pairs(store, rows)


def evaluate_plan_rows(
    root,
    graph: DataGraph,
    engine=None,
    null_semantics: bool = False,
    dialect: str = "auto",
) -> Set[Tuple[NodeId, ...]]:
    """A whole CRPQ plan's answer rows (head-order id tuples) in SQL.

    The plan tree lowers once (the statement is cached on the structural
    plan — frozen dataclasses, hashable); RPQ atoms run as recursive
    CTEs inside the statement, data-RPQ atoms are materialised through
    the engine into per-atom temp tables and joined in SQL.  A Boolean
    head returns ``{()}`` / empty, matching ``execute_plan``.
    """
    if engine is None:
        from ..engine.engine import default_engine

        engine = default_engine()
    store = store_for(graph, dialect)
    data_scans, head = _prepare_plan(root, engine)
    sql = _SQL_CACHE.get_or_build(("crpq", root), lambda: crpq_sql(root))
    with store.lock:
        store.refresh(graph)
        for scan in data_scans:
            pairs = engine.evaluate_atom_ids(
                graph, scan.atom.query, null_semantics=null_semantics
            )
            table = atom_table_name(scan.index)
            store.connection.execute(f"DROP TABLE IF EXISTS {table}")
            store.connection.execute(f"CREATE TABLE {table} (a INTEGER, b INTEGER)")
            ints = store.node_int
            store.connection.executemany(
                f"INSERT INTO {table} VALUES (?, ?)",
                [
                    (source_int, target_int)
                    for source, target in pairs
                    if (source_int := ints(source)) is not None
                    and (target_int := ints(target)) is not None
                ],
            )
        rows = store.rows(sql)
    if not head:
        return {()} if rows else set()
    ids = store.node_id
    return {tuple(ids(value) for value in row) for row in rows}


def _prepare_plan(root, engine):
    """Attach compiled automata to the plan's RPQ scans and collect its
    data-RPQ scans (which need Python-side materialisation).

    Plan nodes are frozen dataclasses; the automaton rides in the node's
    ``__dict__`` via ``object.__setattr__`` — it is a pure function of
    the atom's regex (graph-independent), so a cached plan keeps a valid
    attachment across graphs and versions.
    """
    from ..planner.logical import AtomScan, Filter, HashJoin, Project, SeededScan

    data_scans = []

    def walk(node):
        if isinstance(node, (AtomScan, SeededScan)):
            if isinstance(node.atom.query, DataRPQ):
                data_scans.append(node)
            elif getattr(node, "_compiled", None) is None:
                object.__setattr__(
                    node, "_compiled", engine.compile_rpq(node.atom.query)
                )
        elif isinstance(node, (Project, Filter)):
            walk(node.child)
        elif isinstance(node, HashJoin):
            walk(node.left)
            walk(node.right)

    walk(root)
    return data_scans, root.head


def sql_cache_stats() -> CacheStats:
    """Hit/miss snapshot of the compiled-SQL LRU (for tests and repr)."""
    return _SQL_CACHE.stats()


def clear_sql_caches() -> None:
    """Drop all compiled SQL and all graph stores (mainly for tests)."""
    _SQL_CACHE.clear()
    with _STORES_LOCK:
        for store in list(_STORES.values()):
            store.close()
        _STORES.clear()
