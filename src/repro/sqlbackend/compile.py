"""Compiling query IR to SQL over the ``D_G`` schema.

The compile pipeline mirrors the engine's: a regex is parsed and
compiled (through the shared :class:`~repro.engine.engine.
EvaluationEngine` caches) into an ε-free
:class:`~repro.engine.compiled.CompiledAutomaton`, whose transition
table is then emitted as an inline relation and joined against the
``edges`` table inside a ``WITH RECURSIVE`` product-reachability CTE —
the set-at-a-time twin of the Python worklist kernels::

    WITH RECURSIVE
    trans(state, label, next) AS (...automaton moves...),
    reach(src, node, state) AS (
        SELECT n.node, n.node, i.state FROM nodes AS n CROSS JOIN (...initial...) AS i
        UNION
        SELECT r.src, e.target, t.next
        FROM reach AS r CROSS JOIN trans AS t CROSS JOIN edges AS e
        WHERE t.state = r.state AND e.label = t.label AND e.source = r.node
    )
    SELECT DISTINCT r.src, r.node FROM reach AS r WHERE r.state IN (...accepting...)

``UNION`` (not ``UNION ALL``) dedupes configurations, so the fixpoint
terminates on cyclic graphs exactly like the kernels' visited sets.
Seeded variants replace the base relation with the ``_src_seeds`` table
and/or filter accepting rows against ``_dst_seeds`` — the statement text
is identical for every seed set, which is what lets sqlite's prepared-
statement cache (and this module's LRU) amortise compilation across
point queries.

GXPath axis stars compile to the degenerate one-state closure CTE, and
CRPQ plans from :func:`repro.planner.planner.plan_crpq` lower
operator-by-operator: every scan becomes a named reachability CTE
selecting its live columns only (a one-column scan is the ``SELECT
DISTINCT`` of that endpoint; a seeded scan's base case selects from the
*already lowered* left join side — semijoin pushdown expressed as SQL),
hash joins become equi-joins on the shared variables, filters become
``WHERE`` equalities, and the projection becomes the final ``SELECT
DISTINCT``.  Fused atoms are plain RPQs like any other.  Data-RPQ atoms have
register valuations no first-order CTE can carry, so their relations are
materialised Python-side into per-plan temp tables and joined like any
other CTE — the join itself still runs inside the SQL engine.

Everything emitted here is engine-portable: plain SQL-92 joins plus
recursive CTEs, accepted verbatim by both sqlite and DuckDB.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..engine.compiled import CompiledAutomaton
from ..exceptions import EvaluationError
from ..planner.logical import (
    AtomScan,
    Filter,
    HashJoin,
    PlanOp,
    Project,
    SeededScan,
    atom_columns,
)
from ..query.data_rpq import DataRPQ
from ..regular import Concat, Epsilon, Letter, Plus, Regex, Star, Union

__all__ = [
    "rpq_sql",
    "closure_sql",
    "crpq_sql",
    "atom_table_name",
    "letter_set",
    "concat_parts",
    "pick_pivot",
    "factored_rpq_sql",
]

#: Seeding tables of :class:`~repro.sqlbackend.schema.SqlStore`.
SRC_SEEDS = "_src_seeds"
DST_SEEDS = "_dst_seeds"


def _text(value: str) -> str:
    """A SQL string literal (labels only; never user data values)."""
    return "'" + value.replace("'", "''") + "'"


def _ident(name: str) -> str:
    """A quoted SQL identifier (CRPQ variables, including the planner's
    primed loop columns)."""
    return '"' + name.replace('"', '""') + '"'


def _select_list(items: List[str]) -> str:
    """A select list; a relation with no live column (an existence test)
    selects a constant, which no parent operator ever names."""
    return ", ".join(items) if items else "1 AS _exists"


def _inline_rows(rows: List[Tuple], columns: Tuple[str, ...]) -> str:
    """An inline relation as a UNION ALL of literal selects.

    ``VALUES`` row-constructor aliasing differs between engines;
    ``SELECT ... UNION ALL SELECT ...`` is the portable spelling and
    these relations are tiny (automaton transitions and states).
    """
    selects = []
    for index, row in enumerate(rows):
        parts = []
        for column, value in zip(columns, row):
            literal = _text(value) if isinstance(value, str) else str(value)
            parts.append(f"{literal} AS {column}" if index == 0 else literal)
        selects.append("SELECT " + ", ".join(parts))
    return " UNION ALL ".join(selects)


# ----------------------------------------------------------------------
# Plain RPQs: the product-reachability CTE
# ----------------------------------------------------------------------
def rpq_sql(
    automaton: CompiledAutomaton,
    seeded_sources: bool = False,
    seeded_targets: bool = False,
    prefix: str = "q",
) -> str:
    """The full SQL statement of one RPQ's (possibly seeded) relation.

    The result set is ``(src_int, dst_int)`` pairs over the store's
    dense ids.  *prefix* namespaces the CTEs so several compiled RPQs
    can coexist in one statement (the CRPQ lowering).
    """
    parts = _rpq_ctes(automaton, seeded_sources, prefix)
    if parts is None:
        return "SELECT 0 AS src, 0 AS node WHERE 1 = 0"
    ctes, select = _rpq_select(automaton, seeded_targets, prefix)
    if ctes is None:
        return select
    return f"WITH RECURSIVE {', '.join(parts + ctes)} {select}"


def _transition_rows(automaton: CompiledAutomaton) -> List[Tuple[int, str, int]]:
    rows: List[Tuple[int, str, int]] = []
    for state, by_symbol in enumerate(automaton.moves):
        for symbol, targets in by_symbol:
            for target in targets:
                rows.append((state, symbol, target))
    return rows


def _rpq_ctes(
    automaton: CompiledAutomaton, seeded_sources: bool, prefix: str
) -> Optional[List[str]]:
    """The ``trans`` and ``reach`` CTE definitions, or ``None`` for an
    automaton with no initial states (an empty relation)."""
    if not automaton.initial:
        return None
    initial = " UNION ALL ".join(
        f"SELECT {state} AS state" if index == 0 else f"SELECT {state}"
        for index, state in enumerate(automaton.initial)
    )
    base_table = SRC_SEEDS if seeded_sources else "nodes"
    base = (
        f"SELECT n.node AS src, n.node AS node, i.state AS state "
        f"FROM {base_table} AS n CROSS JOIN ({initial}) AS i"
    )
    transitions = _transition_rows(automaton)
    reach = f"{prefix}_reach(src, node, state)"
    if not transitions:
        return [f"{reach} AS ({base})"]
    trans_rows = _inline_rows(transitions, ("state", "label", "next"))
    step = _step_sql(prefix)
    return [
        f"{prefix}_trans(state, label, next) AS ({trans_rows})",
        f"{reach} AS ({base} UNION {step})",
    ]


def _step_sql(prefix: str) -> str:
    """One product-reachability step.

    ``CROSS JOIN`` is sqlite's join-order directive: the recursive queue
    row must be the outermost loop (its frontier rows arrive one at a
    time) with ``edges`` probed innermost through the
    ``(label, source)`` prefix of ``edges_forward`` — left to its own
    statistics sqlite has been seen scanning the whole queue per edge
    instead, turning the fixpoint quadratic.
    """
    return (
        f"SELECT r.src, e.target, t.next FROM {prefix}_reach AS r "
        f"CROSS JOIN {prefix}_trans AS t CROSS JOIN edges AS e "
        f"WHERE t.state = r.state AND e.label = t.label AND e.source = r.node"
    )


def _rpq_select(
    automaton: CompiledAutomaton, seeded_targets: bool, prefix: str
) -> Tuple[Optional[List[str]], str]:
    """The final accepting-row select over the reach CTE."""
    if not automaton.accepting:
        return None, "SELECT 0 AS src, 0 AS node WHERE 1 = 0"
    accepting = ", ".join(str(state) for state in sorted(automaton.accepting))
    where = f"r.state IN ({accepting})"
    if seeded_targets:
        where += f" AND r.node IN (SELECT node FROM {DST_SEEDS})"
    return [], (
        f"SELECT DISTINCT r.src, r.node FROM {prefix}_reach AS r WHERE {where}"
    )


# ----------------------------------------------------------------------
# GXPath axis stars: the one-state closure CTE
# ----------------------------------------------------------------------
def closure_sql(
    label: str,
    inverse: bool = False,
    seeded_sources: bool = False,
    seeded_targets: bool = False,
) -> str:
    """The reflexive-transitive closure of one label's edge relation.

    The inverse axis traverses the transposed edges (``target -> source``)
    directly, which equals the transpose of the forward closure — exactly
    the semantics of :class:`~repro.gxpath.ast.AxisStar` with
    ``inverse=True``.
    """
    base_table = SRC_SEEDS if seeded_sources else "nodes"
    base = f"SELECT n.node AS src, n.node AS node FROM {base_table} AS n"
    # CROSS JOIN pins the queue row as the outer loop (see _step_sql).
    if inverse:
        step = (
            f"SELECT r.src, e.source FROM closure AS r CROSS JOIN edges AS e "
            f"WHERE e.label = {_text(label)} AND e.target = r.node"
        )
    else:
        step = (
            f"SELECT r.src, e.target FROM closure AS r CROSS JOIN edges AS e "
            f"WHERE e.label = {_text(label)} AND e.source = r.node"
        )
    where = (
        f" WHERE r.node IN (SELECT node FROM {DST_SEEDS})" if seeded_targets else ""
    )
    return (
        f"WITH RECURSIVE closure(src, node) AS ({base} UNION {step}) "
        f"SELECT DISTINCT r.src, r.node FROM closure AS r{where}"
    )


# ----------------------------------------------------------------------
# Factored concatenations: cost-selected semijoin pushdown inside an RPQ
# ----------------------------------------------------------------------
#: Part kinds of a factorable concatenation: one edge step over a letter
#: set, or the Kleene star / plus of one.
STEP, STAR, PLUS = "step", "star", "plus"

Part = Tuple[str, Tuple[str, ...]]


def letter_set(expression: Regex) -> Optional[Tuple[str, ...]]:
    """The sorted label tuple of a pure letter union, else ``None``."""
    if isinstance(expression, Letter):
        return (expression.symbol,)
    if isinstance(expression, Union):
        left = letter_set(expression.left)
        right = letter_set(expression.right)
        if left is None or right is None:
            return None
        return tuple(sorted(set(left + right)))
    return None


def concat_parts(expression: Regex) -> Optional[Tuple[Part, ...]]:
    """The factor sequence of a concatenation of letter-set steps and
    letter-set closures, or ``None`` for any other shape.

    ``a*.b`` yields ``((STAR, ('a',)), (STEP, ('b',)))``; shapes with
    nested structure under an iteration (``(a.b)*``) or unions of
    concatenations are not factorable and run as product CTEs.
    """
    factors: List[Regex] = []

    def flatten(e: Regex) -> None:
        if isinstance(e, Concat):
            flatten(e.left)
            flatten(e.right)
        else:
            factors.append(e)

    flatten(expression)
    parts: List[Part] = []
    for factor in factors:
        labels = letter_set(factor)
        if labels is not None:
            parts.append((STEP, labels))
            continue
        if isinstance(factor, (Star, Plus)):
            labels = letter_set(factor.inner)
            if labels is None:
                return None
            parts.append((STAR if isinstance(factor, Star) else PLUS, labels))
            continue
        if isinstance(factor, Epsilon):
            continue
        return None
    if not parts:
        return None
    return tuple(parts)


def pick_pivot(parts: Tuple[Part, ...], label_counts: Dict[str, int]) -> int:
    """The index of the part evaluation starts from.

    The cheapest single-step part by the store's label statistics: its
    edge relation is the base the closures grow from, so every later
    fixpoint is seeded by (and therefore bounded by reachability from)
    the most selective factor instead of all ``|V|`` nodes — the same
    semijoin argument the CRPQ planner applies across atoms, applied
    inside one RPQ.  A concatenation of closures only (no step part)
    starts from its leftmost factor over the full node set.
    """
    steps = [index for index, (kind, _labels) in enumerate(parts) if kind == STEP]
    if not steps:
        return 0
    return min(
        steps,
        key=lambda i: (sum(label_counts.get(label, 0) for label in parts[i][1]), i),
    )


def _labels_clause(labels: Tuple[str, ...]) -> str:
    if len(labels) == 1:
        return f"e.label = {_text(labels[0])}"
    return "e.label IN (" + ", ".join(_text(label) for label in labels) + ")"


def factored_rpq_sql(
    parts: Tuple[Part, ...], pivot: int, prefix: str = "q"
) -> str:
    """The factored statement of one recognised concatenation.

    The pivot part materialises first; every part left of it extends the
    relation's ``src`` endpoint backward (probing ``edges_backward``),
    every part right of it extends ``dst`` forward.  Closure extensions
    are recursive CTEs *seeded by the relation built so far*, so their
    fixpoints only ever visit configurations that can still join with
    the pivot — work is bounded by the answer's reachable neighbourhood,
    not by ``|V| x closure`` as in the product CTE.
    """
    ctes: List[str] = []
    counter = 0

    def emit(body: str) -> str:
        nonlocal counter
        name = f"{prefix}_part{counter}"
        counter += 1
        ctes.append(f"{name}(src, dst) AS ({body})")
        return name

    def step(current: str, labels: Tuple[str, ...], backward: bool) -> str:
        if backward:
            select = (
                f"SELECT DISTINCT e.source AS src, r.dst AS dst "
                f"FROM {current} AS r CROSS JOIN edges AS e "
                f"WHERE {_labels_clause(labels)} AND e.target = r.src"
            )
        else:
            select = (
                f"SELECT DISTINCT r.src AS src, e.target AS dst "
                f"FROM {current} AS r CROSS JOIN edges AS e "
                f"WHERE {_labels_clause(labels)} AND e.source = r.dst"
            )
        return emit(select)

    def closure(current: str, labels: Tuple[str, ...], backward: bool) -> str:
        nonlocal counter
        name = f"{prefix}_part{counter}"
        counter += 1
        # CROSS JOIN pins the queue row as the outer loop (see _step_sql).
        if backward:
            grow = (
                f"SELECT e.source, r.dst FROM {name} AS r CROSS JOIN edges AS e "
                f"WHERE {_labels_clause(labels)} AND e.target = r.src"
            )
        else:
            grow = (
                f"SELECT r.src, e.target FROM {name} AS r CROSS JOIN edges AS e "
                f"WHERE {_labels_clause(labels)} AND e.source = r.dst"
            )
        ctes.append(
            f"{name}(src, dst) AS (SELECT src, dst FROM {current} UNION {grow})"
        )
        return name

    def extend(current: str, part: Part, backward: bool) -> str:
        kind, labels = part
        if kind == STEP:
            return step(current, labels, backward)
        if kind == PLUS:  # e+ == e . e*: one mandatory step, then the star
            current = step(current, labels, backward)
        return closure(current, labels, backward)

    # The pivot's own relation is the base everything grows from: the
    # edge step itself, or — for a pivot closure — the closure grown
    # from its zero-step (identity) or one-step (edge) base.
    kind, labels = parts[pivot]
    edge_base = (
        f"SELECT DISTINCT e.source AS src, e.target AS dst "
        f"FROM edges AS e WHERE {_labels_clause(labels)}"
    )
    if kind == STEP:
        current = emit(edge_base)
    else:
        current = emit(
            edge_base
            if kind == PLUS
            else "SELECT n.node AS src, n.node AS dst FROM nodes AS n"
        )
        current = closure(current, labels, backward=False)
    for index in range(pivot - 1, -1, -1):
        current = extend(current, parts[index], backward=True)
    for index in range(pivot + 1, len(parts)):
        current = extend(current, parts[index], backward=False)
    select = f"SELECT DISTINCT src, dst FROM {current}"
    return f"WITH RECURSIVE {', '.join(ctes)} {select}"


# ----------------------------------------------------------------------
# CRPQ plans: operator-by-operator lowering to named CTEs
# ----------------------------------------------------------------------
def atom_table_name(index: int) -> str:
    """The temp table a data-RPQ atom's relation is materialised into."""
    return f"_crpq_atom_{index}"


class _Lowering:
    """One plan tree's lowering state: ordered CTE definitions plus a
    counter for unique names."""

    def __init__(self) -> None:
        self.ctes: List[str] = []
        self.recursive = False
        self._counter = 0

    def fresh(self, stem: str) -> str:
        self._counter += 1
        return f"{stem}{self._counter}"

    # ------------------------------------------------------------------
    def lower(
        self, node: PlanOp, seeds: Optional[Dict[str, str]] = None
    ) -> Tuple[str, Tuple[str, ...]]:
        """Lower one operator; returns ``(cte_name, columns)``.

        *seeds* maps seed variables to the CTE holding their surviving
        bindings (set by the parent join when lowering its right side).
        """
        if isinstance(node, (AtomScan, SeededScan)):
            return self._scan(node, seeds or {})
        if isinstance(node, Filter):
            child_name, child_columns = self.lower(node.child, seeds)
            keep = tuple(c for c in child_columns if c != node.right)
            name = self.fresh("f")
            cols = ", ".join(_ident(c) for c in keep)
            self.ctes.append(
                f"{name} AS (SELECT DISTINCT {cols} FROM {child_name} "
                f"WHERE {_ident(node.left)} = {_ident(node.right)})"
            )
            return name, keep
        if isinstance(node, HashJoin):
            return self._join(node)
        raise EvaluationError(f"cannot lower plan operator {node!r} to SQL")

    def _scan(
        self, node: "AtomScan | SeededScan", seeds: Dict[str, str]
    ) -> Tuple[str, Tuple[str, ...]]:
        atom = node.atom
        columns = node.columns
        source_seed = seeds.get(getattr(node, "seed_sources", None))
        target_seed = seeds.get(getattr(node, "seed_targets", None))
        name = self.fresh("s")
        both = atom_columns(atom)

        def out_cols(source: str, target: str) -> str:
            """The live columns, read off the relation's two endpoints."""
            return _select_list(
                [
                    f"{endpoint} AS {_ident(column)}"
                    for endpoint, column in zip((source, target), both)
                    if column in columns
                ]
            )

        if isinstance(atom.query, DataRPQ):
            # Materialised Python-side into a temp table by the backend;
            # the seeds (when any) become plain membership filters.
            where = []
            if source_seed is not None:
                where.append(f"a IN (SELECT {_ident(node.seed_sources)} FROM {source_seed})")
            if target_seed is not None:
                where.append(f"b IN (SELECT {_ident(node.seed_targets)} FROM {target_seed})")
            clause = f" WHERE {' AND '.join(where)}" if where else ""
            self.ctes.append(
                f"{name} AS (SELECT DISTINCT {out_cols('a', 'b')} "
                f"FROM {atom_table_name(node.index)}{clause})"
            )
            return name, columns
        automaton = node._compiled  # attached by the backend before lowering
        prefix = self.fresh("a")
        parts = _rpq_ctes_seeded(automaton, prefix, source_seed,
                                 getattr(node, "seed_sources", None))
        if parts is None or not automaton.accepting:
            self.ctes.append(f"{name} AS (SELECT {out_cols('0', '0')} WHERE 1 = 0)")
            return name, columns
        self.recursive = True
        self.ctes.extend(parts)
        accepting = ", ".join(str(state) for state in sorted(automaton.accepting))
        where = f"r.state IN ({accepting})"
        if target_seed is not None:
            where += (
                f" AND r.node IN (SELECT {_ident(node.seed_targets)} FROM {target_seed})"
            )
        self.ctes.append(
            f"{name} AS (SELECT DISTINCT {out_cols('r.src', 'r.node')} "
            f"FROM {prefix}_reach AS r WHERE {where})"
        )
        return name, columns

    def _join(self, node: HashJoin) -> Tuple[str, Tuple[str, ...]]:
        left_name, left_columns = self.lower(node.left)
        # Semijoin pushdown: the right scan's base case reads the
        # distinct bindings straight out of the left CTE.
        scan = node.right.child if isinstance(node.right, Filter) else node.right
        seeds: Dict[str, str] = {}
        if isinstance(scan, SeededScan):
            for variable in {scan.seed_sources, scan.seed_targets} - {None}:
                if variable in left_columns:
                    seeds[variable] = left_name
        right_name, right_columns = self.lower(node.right, seeds)
        right_only = tuple(c for c in right_columns if c not in left_columns)
        out = _select_list(
            [f"l.{_ident(c)}" for c in left_columns]
            + [f"r.{_ident(c)}" for c in right_only]
        )
        if node.keys:
            condition = " AND ".join(
                f"l.{_ident(k)} = r.{_ident(k)}" for k in node.keys
            )
            join = f"{left_name} AS l JOIN {right_name} AS r ON {condition}"
        else:
            join = f"{left_name} AS l CROSS JOIN {right_name} AS r"
        name = self.fresh("j")
        self.ctes.append(f"{name} AS (SELECT DISTINCT {out} FROM {join})")
        return name, left_columns + right_only


def _rpq_ctes_seeded(
    automaton: CompiledAutomaton,
    prefix: str,
    source_seed: Optional[str],
    seed_variable: Optional[str],
) -> Optional[List[str]]:
    """RPQ CTEs whose base case optionally reads a lowered CTE's bindings."""
    if not automaton.initial:
        return None
    initial = " UNION ALL ".join(
        f"SELECT {state} AS state" if index == 0 else f"SELECT {state}"
        for index, state in enumerate(automaton.initial)
    )
    if source_seed is not None:
        base_table = (
            f"(SELECT DISTINCT {_ident(seed_variable)} AS node FROM {source_seed})"
        )
    else:
        base_table = "nodes"
    base = (
        f"SELECT n.node AS src, n.node AS node, i.state AS state "
        f"FROM {base_table} AS n CROSS JOIN ({initial}) AS i"
    )
    transitions = _transition_rows(automaton)
    reach = f"{prefix}_reach(src, node, state)"
    if not transitions:
        return [f"{reach} AS ({base})"]
    trans_rows = _inline_rows(transitions, ("state", "label", "next"))
    return [
        f"{prefix}_trans(state, label, next) AS ({trans_rows})",
        f"{reach} AS ({base} UNION {_step_sql(prefix)})",
    ]


def crpq_sql(root: PlanOp) -> str:
    """Lower a whole planned CRPQ to one SQL statement.

    *root* must be the planner's ``Project`` node; every RPQ scan node
    must carry its compiled automaton as ``_compiled`` (attached by the
    backend — plan nodes are frozen dataclasses, so the attribute rides
    on a shallow lowering copy, see
    :func:`repro.sqlbackend.backend.evaluate_plan_sql`).  The statement
    returns one row per answer tuple in head order; a Boolean head
    compiles to ``SELECT DISTINCT 1 ... LIMIT 1`` (row present ⇔ true).
    """
    if not isinstance(root, Project):
        raise EvaluationError(f"expected a Project plan root, got {root!r}")
    lowering = _Lowering()
    child_name, child_columns = lowering.lower(root.child)
    if root.head:
        head = ", ".join(_ident(variable) for variable in root.head)
        select = f"SELECT DISTINCT {head} FROM {child_name}"
    else:
        select = f"SELECT DISTINCT 1 FROM {child_name} LIMIT 1"
    keyword = "WITH RECURSIVE " if lowering.recursive else "WITH "
    return f"{keyword}{', '.join(lowering.ctes)} {select}"
