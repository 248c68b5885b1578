"""Index-driven evaluation kernels for data RPQs (REE and REM) and RPQs.

Two kernels, one per side of the syntactic fragment test
:func:`repro.datapaths.fragments.scope_violation`:

* the **bit-row algebra** (:func:`ree_relation`) for *scoped*
  expressions — every REE (``ree_to_rem`` sugar: one fresh register per
  subscript), every plain RPQ (``regex_to_rem``: no register at all) and
  each REM whose registers are only read under the bind that stored
  them.  There a register holds the value of the node its
  bind was entered at, so ``x=`` / ``x≠`` at a node is a mask over
  *origin* bits and the expression is evaluated by pushing ``{position:
  origins arrived here}`` rows through it, full or seeded, over either
  index type (:class:`~repro.datagraph.index.LabelIndex` or its CSR
  twin); cost does not depend on how many distinct values there are;
* the **register-automaton × graph product** for the cross-scope rest,
  here over a ``LabelIndex`` on plain node ids (int-id twin:
  :func:`repro.engine.compact.register_relation`), with its automata
  compiled once per query by the
  :class:`~repro.engine.engine.EvaluationEngine`.

Both hand back id-level relations; the engine translates to
:class:`~repro.datagraph.node.Node` pairs at the boundary.  GXPath
(:mod:`repro.gxpath.evaluation`) runs on the algebra's primitives.

A :class:`RowMemo` (one per caching session) keeps the algebra's closed
sub-expression rows across evaluations *and graph versions*: after a
journaled batch, rows of a sub-expression reading no label the delta
touched are reused as they are (positions only grow), and an insert-only
delta continues a touched closure from the steps it gained instead of
re-deriving it.
"""

from __future__ import annotations

from collections import Counter, OrderedDict, deque
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    NamedTuple,
    Optional,
    Set,
    Tuple,
    Union,
)

from ..datagraph.compact import CompactLabelIndex
from ..datagraph.index import LabelIndex
from ..datagraph.node import NodeId
from ..datapaths import RegisterAutomaton, Valuation
from ..datapaths.conditions import And, Condition, Equal, NotEqual, Or
from ..datapaths.fragments import (
    DataPathExpression,
    free_registers,
    ree_to_rem,
    scope_violation,
)
from ..datapaths.ree import RegexWithEquality
from ..datapaths.rem import (
    RegexWithMemory,
    RemBind,
    RemConcat,
    RemEpsilon,
    RemLetter,
    RemPlus,
    RemTest,
    RemUnion,
)
from ..exceptions import EvaluationError
from . import product
from .bitrelation import BitRelation
from .spaces import RegisterProductSpace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..deltas.delta import GraphDelta
    from ..deltas.journal import DeltaJournal

__all__ = [
    "RowMemo",
    "ree_relation",
    "register_automaton_relation",
    "register_automaton_relation_per_source",
]

IdPair = Tuple[NodeId, NodeId]
#: One sub-expression's relation: ``target position -> source bitmask``
#: (in origin mode: ``position -> bitmask of the origins arrived there``).
Rows = Dict[int, int]
Pusher = Callable[[Rows], Rows]


# ----------------------------------------------------------------------
# The bit-row algebra for scoped expressions (every RPQ and REE, most REMs)
# ----------------------------------------------------------------------
def ree_relation(
    index: Union[LabelIndex, CompactLabelIndex],
    expression: DataPathExpression,
    null_semantics: bool = False,
    sources: Optional[Iterable[NodeId]] = None,
    memo: Optional["RowMemo"] = None,
) -> BitRelation:
    """The relation of a scoped expression — an REE, or a REM passing
    :func:`~repro.datapaths.fragments.scope_violation` (a plain RPQ is
    one, through :func:`~repro.datapaths.fragments.regex_to_rem`) — on bit rows,
    over either index type; with *sources*, only the pairs starting at
    one of them, exploring only what they reach.  An unseeded evaluation
    given a *memo* takes its closed sub-expression rows from it, carried
    across the graph's journaled deltas, and leaves its own there.
    """
    reason = scope_violation(expression)
    if reason is not None:
        raise EvaluationError(f"the bit-row algebra evaluates scoped expressions only: {reason}")
    if isinstance(expression, RegexWithEquality):
        expression = ree_to_rem(expression)
    seeded = sources is not None
    algebra = _OriginAlgebra(index, null_semantics, seeded, None if seeded else memo)
    if sources is None:
        rows = algebra.closed(expression)
    else:
        at = index.position.get
        seeds = {u: 1 << u for u in map(at, sources) if u is not None}
        rows = algebra.pusher(expression)(seeds)
    return BitRelation(index.nodes, index.position, rows)


class _Kept(NamedTuple):
    """A memoised sub-expression's rows at graph *version*, over the
    index ordering *nodes*; when *since* is set, *gained* is what the
    rows grew by since that version (an insert-only stretch)."""

    version: int
    nodes: Tuple[NodeId, ...]
    rows: Rows
    since: Optional[int]
    gained: Optional[Rows]


class RowMemo:
    """Closed sub-expression rows that outlive an evaluation and a write.

    Keyed by the structural sub-expression (and, when it reads values,
    the null semantics), holding the rows of the latest graph version it
    was evaluated at; bounded LRU, at most *maxsize* sub-expressions.
    An evaluation at a later version composes the graph's *journal*
    deltas since (without a journal, rows serve their own version only),
    and per sub-expression either reuses the rows (the
    delta touched none of its labels, and added no node it could match
    the empty path at), continues them (an insert-only change it reads:
    a closure resumes from the steps it gained) or recomputes them (a
    removal or value change it reads, a broken lineage, a removed node).
    ``counts`` tallies those outcomes as ``reused`` / ``continued`` /
    ``computed``.  Not thread-safe, like the session caches beside it.
    """

    def __init__(self, journal: Optional["DeltaJournal"], maxsize: int):
        self.journal = journal
        self.maxsize = maxsize
        self.counts: Counter = Counter()
        self._entries: "OrderedDict[Tuple, _Kept]" = OrderedDict()

    @staticmethod
    def key(expr: RegexWithMemory, null_semantics: bool) -> Tuple:
        return expr, null_semantics and _reads_values(expr)

    def peek(self, key: Tuple) -> Optional[_Kept]:
        return self._entries.get(key)

    def keep(self, key: Tuple, kept: _Kept) -> None:
        entries = self._entries
        held = entries.get(key)
        if held is not None and held.version > kept.version:
            return  # an evaluation on an older snapshot never overwrites a newer one
        entries[key] = kept
        entries.move_to_end(key)
        if len(entries) > self.maxsize:
            entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class _OriginAlgebra:
    """One evaluation's two mutually recursive modes over bit rows.

    **Closed** (:meth:`closed`): a sub-expression that reads no outer
    register denotes a relation, ``{target: source bitmask}`` rows built
    bottom-up and memoised per *structurally* equal sub-expression;
    ``↓x̄.e`` is *e* pushed from the identity and ``e₁·e₂`` is *e₁*'s rows
    pushed through *e₂*, so a selective left factor never builds its
    right factor's whole relation.  **Origin** (:meth:`pusher`): inside a
    bind's body a register holds the value of the node the bind was
    entered at — its *origin* — so control state is ``{position: origins
    that arrived here}`` rows and a test is one AND per row with the
    origins the condition admits at that position.  Unseeded, a closed
    sub-expression met at the identity is its memoised relation; a seeded
    evaluation only ever pushes.

    With a :class:`RowMemo`, a closed sub-expression's rows are first
    looked up there (:meth:`_remembered`), possibly carried across the
    graph's journaled deltas since they were kept.
    """

    def __init__(self, index, null_semantics: bool, seeded: bool, memo: Optional[RowMemo] = None):
        self.index = index
        self.null_semantics = null_semantics
        self.positions = range(len(index.nodes))
        self.identity: Optional[Rows] = None if seeded else {v: 1 << v for v in self.positions}
        self.relations: Dict[RegexWithMemory, Rows] = {}
        self.pushers: Dict[RegexWithMemory, Pusher] = {}
        self.successors: Dict[RegexWithMemory, Dict[int, Tuple[int, ...]]] = {}
        self.memo = memo
        self.deltas: Dict[int, Optional["GraphDelta"]] = {}

    def closed(self, expr: RegexWithMemory) -> Rows:
        rows = self.relations.get(expr)
        if rows is None:
            rows = self._evaluate(expr) if self.memo is None else self._remembered(expr)
            self.relations[expr] = rows
        return rows

    def _evaluate(self, expr: RegexWithMemory) -> Rows:
        if isinstance(expr, RemConcat):
            return self.pusher(expr.right)(self.closed(expr.left))
        if isinstance(expr, RemUnion):
            return _union(self.closed(expr.left), self.closed(expr.right))
        if isinstance(expr, RemBind):
            return self.pusher(expr.inner)(self.identity)
        if isinstance(expr, RemTest):  # closed, so its condition reads nothing: ⊤
            return self.closed(expr.inner)
        if isinstance(expr, RemPlus):
            inner = expr.inner
            return _closure(self.pusher(inner), self.closed(inner), self._successors(inner))
        return self._build(expr)(self.identity)  # ε, a letter: pushed from the identity

    # ------------------------------------------------------------------
    # Rows carried across graph versions (a RowMemo)
    # ------------------------------------------------------------------
    def _remembered(self, expr: RegexWithMemory) -> Rows:
        """*expr*'s closed rows, from the memo when its kept rows are
        exact now, carried when a delta since left them exact or only
        grew them, evaluated otherwise — and kept for the next time."""
        memo, version = self.memo, self.index.version
        key = memo.key(expr, self.null_semantics)
        kept = memo.peek(key)
        if kept is not None and kept.version == version:
            memo.counts["reused"] += 1
            return kept.rows
        delta = None if kept is None else self._delta_since(kept)
        rows = since = gained = None
        if delta is not None:
            change = _change(expr, delta)
            if change is None:
                memo.counts["reused"] += 1
                rows, since, gained = kept.rows, kept.version, {}
            elif change == "grows":
                if not _reads_values(expr):
                    rows = self._continued(expr, kept, delta)
                if rows is not None:
                    memo.counts["continued"] += 1
                since = kept.version
        if rows is None:
            memo.counts["computed"] += 1
            rows = self._evaluate(expr)
        if since is not None and gained is None:
            gained = _gained(rows, kept.rows)
        memo.keep(key, _Kept(version, self.index.nodes, rows, since, gained))
        return rows

    def _delta_since(self, kept: _Kept) -> Optional["GraphDelta"]:
        """The journal's composed delta from *kept*'s version to the
        index's, when *kept*'s positions are still this index's: no node
        removed, the ordering only appended to.  ``None`` otherwise."""
        deltas = self.deltas
        if kept.version not in deltas:
            delta, journal = None, self.memo.journal
            if journal is not None and kept.version < self.index.version:
                delta = journal.composed(kept.version, self.index.version)
            nodes = self.index.nodes
            if delta is not None and (
                delta.removed_nodes or nodes[: len(kept.nodes)] != kept.nodes
            ):
                delta = None
            deltas[kept.version] = delta
        return deltas[kept.version]

    def _gains(self, expr: RegexWithMemory, base: int, lazily: bool = False) -> Optional[Rows]:
        """The rows *expr*'s relation gained since version *base*, now
        evaluated; ``None`` when the memo cannot say.  *lazily*: unless
        they are in hand or kept, do not evaluate *expr* at all."""
        key = self.memo.key(expr, self.null_semantics)
        if lazily and expr not in self.relations:
            kept = self.memo.peek(key)
            if kept is None or base not in (kept.version, kept.since):
                return None
        self.closed(expr)
        kept = self.memo.peek(key)
        if kept is None or kept.version != self.index.version or kept.since != base:
            return None
        return kept.gained

    def _continued(self, expr: RegexWithMemory, kept: _Kept, delta: "GraphDelta") -> Optional[Rows]:
        """*expr*'s rows after an insert-only change to what it reads,
        grown from *kept*'s by what its parts gained: a letter by its
        added edges, ``e₁·e₂`` by ``Δe₁`` pushed through ``e₂`` and
        ``e₁`` composed with ``Δe₂``, ``e⁺`` by resuming the closure
        from ``Δe``'s steps.  ``None`` when a part's gain is unknown."""
        base = kept.version
        if isinstance(expr, RemLetter):
            rows, at, symbol = dict(kept.rows), self.index.position, expr.symbol
            for source, label, target in delta.added_edges:
                if label == symbol:
                    v = at[target]
                    rows[v] = rows.get(v, 0) | 1 << at[source]
            return rows
        if isinstance(expr, RemPlus):
            gained = self._gains(expr.inner, base)
            if gained is None:
                return None
            if not gained:
                return kept.rows
            inner = expr.inner
            return _closure(self.pusher(inner), gained, self._successors(inner), kept.rows)
        if isinstance(expr, RemConcat):
            left = self._gains(expr.left, base)
            right = self._gains(expr.right, base, lazily=True) if _change(expr.right, delta) else {}
            if left is None or right is None:
                return None
            rows = kept.rows
            if left:
                rows = _union(rows, self.pusher(expr.right)(left))
            if right:
                rows = _union(rows, _compose(self.closed(expr.left), right, self.positions))
            return rows
        return self._evaluate(expr)  # ε, e₁ + e₂: as cheap as their parts

    def _successors(self, inner: RegexWithMemory) -> Optional[Dict[int, Tuple[int, ...]]]:
        """A closure step's successor memo — shared by every closure over
        *inner* in this evaluation — or ``None`` when *inner* reads a
        register, so that its step filters per target."""
        if free_registers(inner):
            return None
        return self.successors.setdefault(inner, {})

    def pusher(self, expr: RegexWithMemory) -> Pusher:
        """*expr* as a function from arrived rows to the rows after it."""
        push = self.pushers.get(expr)
        if push is None:
            push = self._build(expr)
            leaf = isinstance(expr, (RemEpsilon, RemLetter))  # whose relation *is* its push
            if self.identity is not None and not leaf and not free_registers(expr):
                identity, closed, pushed = self.identity, self.closed, push

                def push(arrived: Rows) -> Rows:
                    return closed(expr) if arrived is identity else pushed(arrived)

            self.pushers[expr] = push
        return push

    def _build(self, expr: RegexWithMemory) -> Pusher:
        if isinstance(expr, RemEpsilon):
            return lambda arrived: arrived
        if isinstance(expr, RemLetter):
            return _letter_pusher(self.index, expr.symbol)
        if isinstance(expr, RemPlus):
            # An inner reading no register carries every mask alike: its
            # successors are a graph fact, memoised across this evaluation.
            inner, successors = self.pusher(expr.inner), self._successors(expr.inner)
            return lambda arrived: _closure(inner, inner(arrived), successors)
        if isinstance(expr, RemTest):
            return _test_pusher(self.pusher(expr.inner), self._allowed(expr.condition))
        if isinstance(expr, RemBind):
            # A nested bind is closed: restart the origins at the arrived
            # positions and carry the arrived masks across what they reach.
            inner, positions = self.pusher(expr.inner), self.positions

            def push(arrived: Rows) -> Rows:
                restarted = {u: 1 << u for u in arrived}
                rows = inner(restarted)
                return rows if restarted == arrived else _compose(arrived, rows, positions)

            return push
        if not isinstance(expr, (RemConcat, RemUnion)):  # pragma: no cover - defensive
            raise EvaluationError(f"unknown REM node {expr!r}")
        left, right = self.pusher(expr.left), self.pusher(expr.right)
        if isinstance(expr, RemConcat):
            return lambda arrived: right(left(arrived))
        return lambda arrived: _union(left(arrived), right(arrived))

    def _allowed(self, condition: Condition) -> Callable[[int], int]:
        """``position -> the origins whose value satisfies *condition*
        against the value there`` (``-1``: all of them)."""
        if isinstance(condition, (Equal, NotEqual)):
            return _comparison(self.index, isinstance(condition, Equal), self.null_semantics)
        if isinstance(condition, (And, Or)):
            left, right = self._allowed(condition.left), self._allowed(condition.right)
            if isinstance(condition, And):
                return lambda v: left(v) & right(v)
            return lambda v: left(v) | right(v)
        return lambda v: -1  # ⊤


def _comparison(
    index: Union[LabelIndex, CompactLabelIndex], want_equal: bool, null_semantics: bool
) -> Callable[[int], int]:
    """``position -> the positions whose value compares true with the
    value there`` under ``=`` (*want_equal*) or ``≠``, for REM tests and
    GXPath's ``α=`` / ``α≠`` alike; a comparison-free expression never
    builds the value classes."""
    same, nulls = index.value_classes
    dead = nulls if null_semantics else 0  # positions no comparison is true at

    def allowed(v: int) -> int:
        equal = same[v]
        if equal & dead:  # a position holding the null compares with nothing
            return 0
        return equal if want_equal else ~(equal | dead)

    return allowed


def _letter_pusher(
    index: Union[LabelIndex, CompactLabelIndex], label: str, inverse: bool = False
) -> Pusher:
    """Arrived masks along one label's edges (transposed for a GXPath
    ``a⁻``) — CSR rows, or the dict index's neighbours sent through
    ``position`` — so a push costs what its frontier's edges do."""
    if isinstance(index, CompactLabelIndex):
        row = index.csr_t(label) if inverse else index.csr(label)
        if row is None:
            return lambda arrived: {}
        offsets, neighbors = row

        def push(arrived: Rows) -> Rows:
            rows: Rows = {}
            for u, mask in arrived.items():
                for v in neighbors[offsets[u] : offsets[u + 1]]:
                    rows[v] = rows.get(v, 0) | mask
            return rows

    else:
        nodes, at = index.nodes, index.position.__getitem__
        neighbours = index.sources if inverse else index.targets

        def push(arrived: Rows) -> Rows:
            rows: Rows = {}
            for u, mask in arrived.items():
                for v in map(at, neighbours(label, nodes[u])):
                    rows[v] = rows.get(v, 0) | mask
            return rows

    return push


def _test_pusher(inner: Pusher, allowed: Callable[[int], int]) -> Pusher:
    def push(arrived: Rows) -> Rows:
        rows: Rows = {}
        for v, mask in inner(arrived).items():
            mask &= allowed(v)
            if mask:
                rows[v] = mask
        return rows

    return push


def _closure(
    step: Pusher,
    first: Rows,
    successors: Optional[Dict[int, Tuple[int, ...]]],
    base: Optional[Rows] = None,
) -> Rows:
    """One or more *step*s, from the rows *first* reached: a worklist
    over positions, each pushing its row onwards when it grew since its
    last turn, with the waiting positions swept in index order,
    alternately up and down — a chain is finished in two sweeps whichever
    way its edges point, where FIFO order needs one pass per level
    against the ordering.  Given a *successors* memo (a step that reads
    no register), a position's successors are pushed once, on its first
    turn, and every later turn is pure ORs — a dense cycle revisits its
    positions many times over.

    With *base* — the closure's rows before its step gained the pairs
    *first* — the closure resumes from them: only the positions *first*
    grew and the origins of its new steps start out waiting (every other
    row was already pushed along every old step)."""
    if base is None:
        rows = dict(first)
        waiting = set(rows)
    else:
        rows = _union(base, first)
        waiting = {v for v, mask in first.items() if mask & ~base.get(v, 0)}
        origins = 0
        for mask in first.values():
            origins |= mask
        waiting.update(u for u in BitRelation.members(origins, range(origins.bit_length())) if u in rows)
    descending = False
    while waiting:
        for u in sorted(waiting, reverse=descending):
            waiting.discard(u)
            mask = rows[u]
            if successors is None:  # the step reads registers: it filters per target
                for v, arrived in step({u: mask}).items():
                    known = rows.get(v, 0)
                    merged = known | arrived
                    if merged != known:
                        rows[v] = merged
                        waiting.add(v)
                continue
            out = successors.get(u)
            if out is None:
                out = successors[u] = tuple(step({u: 1}))
            for v in out:
                known = rows.get(v, 0)
                merged = known | mask
                if merged != known:
                    rows[v] = merged
                    waiting.add(v)
        descending = not descending
    return rows


def _gained(new: Rows, old: Rows) -> Rows:
    """The bits *new* holds beyond *old*, row by row."""
    gained: Rows = {}
    for v, mask in new.items():
        fresh = mask & ~old.get(v, 0)
        if fresh:
            gained[v] = fresh
    return gained


def _reads_values(expr: RegexWithMemory) -> bool:
    """Whether *expr* stores or tests a data value anywhere."""
    if isinstance(expr, (RemBind, RemTest)):
        return True
    if isinstance(expr, (RemConcat, RemUnion)):
        return _reads_values(expr.left) or _reads_values(expr.right)
    if isinstance(expr, RemPlus):
        return _reads_values(expr.inner)
    return False


def _nullable(expr: RegexWithMemory) -> bool:
    """Whether *expr* may match an empty path (a test on it: may)."""
    if isinstance(expr, RemEpsilon):
        return True
    if isinstance(expr, RemConcat):
        return _nullable(expr.left) and _nullable(expr.right)
    if isinstance(expr, RemUnion):
        return _nullable(expr.left) or _nullable(expr.right)
    if isinstance(expr, (RemPlus, RemTest, RemBind)):
        return _nullable(expr.inner)
    return False


def _change(expr: RegexWithMemory, delta: "GraphDelta") -> Optional[str]:
    """What *delta* (no node removed) does to *expr*'s relation: ``None``
    — nothing (it touches none of *expr*'s labels, changes no value it
    reads and adds no node it could match the empty path at);
    ``"grows"`` — it only adds pairs (an insert-only change to what it
    reads); ``"other"`` — anything else."""
    labels = expr.labels()
    if delta.value_changes and _reads_values(expr):
        return "other"
    if any(label in labels for _source, label, _target in delta.removed_edges):
        return "other"
    if any(label in labels for _source, label, _target in delta.added_edges):
        return "grows"
    return "grows" if delta.added_nodes and _nullable(expr) else None


def _union(left: Rows, right: Rows) -> Rows:
    rows = dict(left)
    for v, mask in right.items():
        rows[v] = rows.get(v, 0) | mask
    return rows


def _compose(left: Rows, right: Rows, positions: range) -> Rows:
    """``(u, v)`` whenever ``(u, m)`` is in *left* and ``(m, v)`` in
    *right*: OR *left*'s rows over the members of each *right* row, once
    per distinct row."""
    by_middles: Dict[int, int] = {}
    rows: Rows = {}
    for v, middles in right.items():
        mask = by_middles.get(middles)
        if mask is None:
            mask = 0
            for m in BitRelation.members(middles, positions):
                mask |= left.get(m, 0)
            by_middles[middles] = mask
        if mask:
            rows[v] = mask
    return rows


# ----------------------------------------------------------------------
# Register-automaton × graph product for REM, over the label index
# ----------------------------------------------------------------------
def register_automaton_relation(
    index: LabelIndex, automaton: RegisterAutomaton, null_semantics: bool = False
) -> FrozenSet[IdPair]:
    """The id-pair relation computed by product reachability with *automaton*.

    Configurations are ``(node, state, register valuation)``, evaluated
    as **one** full-relation mask-propagation pass over the
    :class:`~repro.engine.spaces.RegisterProductSpace`: every source
    seeds its initial silent closure with its own bit, and the shared
    phase-3 fixpoint annotates each configuration with the bitmask of
    sources reaching it.  Sources whose runs meet in the same
    ``(node, state, valuation)`` configuration — common when register
    contents range over a bounded value domain — share all downstream
    expansion, which the historical per-source search (kept as
    :func:`register_automaton_relation_per_source`) repeated once per
    source.
    """
    space = RegisterProductSpace(index, automaton, null_semantics)
    return frozenset(product.product_relation(space))


def register_automaton_relation_per_source(
    index: LabelIndex, automaton: RegisterAutomaton, null_semantics: bool = False
) -> FrozenSet[IdPair]:
    """The per-source register-automaton search (executable baseline).

    One BFS over the register product per source node.  Superseded by the
    mask-propagation pass of :func:`register_automaton_relation`; kept as
    the equivalence spec and as the baseline the
    ``bench_datarpq_kernels`` CI gate measures against.
    """
    pairs: Set[IdPair] = set()
    for source in index.nodes:
        for target in _register_reachable(index, automaton, source, null_semantics):
            pairs.add((source, target))
    return frozenset(pairs)


def _register_reachable(
    index: LabelIndex, automaton: RegisterAutomaton, source: NodeId, null_semantics: bool
) -> Set[NodeId]:
    values = index.values
    initial = automaton.silent_closure(
        {(automaton.initial, Valuation())}, values[source], null_semantics
    )
    seen: Set[Tuple[NodeId, int, Valuation]] = {
        (source, state, valuation) for state, valuation in initial
    }
    queue: deque = deque(seen)
    targets: Set[NodeId] = set()
    accepting = automaton.accepting
    for _, state, _ in seen:
        if state in accepting:
            targets.add(source)
            break
    while queue:
        node, state, valuation = queue.popleft()
        for symbol, target_state in automaton.letters_from(state):
            for neighbour in index.targets(symbol, node):
                stepped = automaton.silent_closure(
                    {(target_state, valuation)}, values[neighbour], null_semantics
                )
                for next_state, next_valuation in stepped:
                    config = (neighbour, next_state, next_valuation)
                    if config in seen:
                        continue
                    seen.add(config)
                    if next_state in accepting:
                        targets.add(neighbour)
                    queue.append(config)
    return targets
