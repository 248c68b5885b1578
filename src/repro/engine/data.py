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
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Set, Tuple, Union

from ..datagraph.compact import CompactLabelIndex
from ..datagraph.index import LabelIndex
from ..datagraph.node import NodeId
from ..datapaths import RegisterAutomaton, Valuation
from ..datapaths.conditions import And, Condition, Equal, NotEqual, Or
from ..datapaths.fragments import DataPathExpression, free_registers, ree_to_rem, scope_violation
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

__all__ = [
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
) -> BitRelation:
    """The relation of a scoped expression — an REE, or a REM passing
    :func:`~repro.datapaths.fragments.scope_violation` (a plain RPQ is
    one, through :func:`~repro.datapaths.fragments.regex_to_rem`) — on bit rows,
    over either index type; with *sources*, only the pairs starting at
    one of them, exploring only what they reach.
    """
    reason = scope_violation(expression)
    if reason is not None:
        raise EvaluationError(f"the bit-row algebra evaluates scoped expressions only: {reason}")
    if isinstance(expression, RegexWithEquality):
        expression = ree_to_rem(expression)
    algebra = _OriginAlgebra(index, null_semantics, seeded=sources is not None)
    if sources is None:
        rows = algebra.closed(expression)
    else:
        at = index.position.get
        seeds = {u: 1 << u for u in map(at, sources) if u is not None}
        rows = algebra.pusher(expression)(seeds)
    return BitRelation(index.nodes, index.position, rows)


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
    """

    def __init__(self, index, null_semantics: bool, seeded: bool):
        self.index = index
        self.null_semantics = null_semantics
        self.positions = range(len(index.nodes))
        self.identity: Optional[Rows] = None if seeded else {v: 1 << v for v in self.positions}
        self.relations: Dict[RegexWithMemory, Rows] = {}
        self.pushers: Dict[RegexWithMemory, Pusher] = {}

    def closed(self, expr: RegexWithMemory) -> Rows:
        rows = self.relations.get(expr)
        if rows is not None:
            return rows
        if isinstance(expr, RemConcat):
            rows = self.pusher(expr.right)(self.closed(expr.left))
        elif isinstance(expr, RemUnion):
            rows = _union(self.closed(expr.left), self.closed(expr.right))
        elif isinstance(expr, RemBind):
            rows = self.pusher(expr.inner)(self.identity)
        elif isinstance(expr, RemTest):  # closed, so its condition reads nothing: ⊤
            rows = self.closed(expr.inner)
        else:  # ε, a letter, e⁺: pushed from the identity
            rows = self._build(expr)(self.identity)
        self.relations[expr] = rows
        return rows

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
            inner = self.pusher(expr.inner)
            successors = None if free_registers(expr.inner) else {}
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
    step: Pusher, first: Rows, successors: Optional[Dict[int, Tuple[int, ...]]]
) -> Rows:
    """One or more *step*s, from the rows *first* reached: a worklist
    over positions, each pushing its row onwards when it grew since its
    last turn, with the waiting positions swept in index order,
    alternately up and down — a chain is finished in two sweeps whichever
    way its edges point, where FIFO order needs one pass per level
    against the ordering.  Given a *successors* memo (a step that reads
    no register), a position's successors are pushed once, on its first
    turn, and every later turn is pure ORs — a dense cycle revisits its
    positions many times over."""
    rows = dict(first)
    waiting = set(rows)
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
