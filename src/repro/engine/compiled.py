"""Compiled form of a Thompson NFA, specialised for product evaluation.

The raw :class:`~repro.regular.nfa.NFA` is convenient for language-
theoretic operations but wasteful on the evaluation hot path: every
``step`` call re-walks ε edges and allocates fresh frozensets.  A
:class:`CompiledAutomaton` is built once per query (and cached by the
engine) with all ε reasoning folded away:

* ``moves[state]`` lists ``(symbol, targets)`` pairs where ``targets``
  already includes the ε-closure of every symbol successor;
* ``initial`` is the ε-closure of the NFA's initial states;
* ``backward_moves`` is the transposed table, used by the backward
  pruning pass of the product BFS.

With ε folded into the tables, a product configuration is a plain
``(node, state)`` pair and a transition is two tuple lookups — no set
algebra per edge.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from ..regular import NFA

__all__ = ["CompiledAutomaton"]

#: ``moves`` entry: (symbol, tuple of ε-closed successor states).
SymbolMoves = Tuple[Tuple[str, Tuple[int, ...]], ...]


class CompiledAutomaton:
    """An ε-free tabular view of an NFA, ready for product construction."""

    __slots__ = (
        "num_states",
        "initial",
        "accepting",
        "moves",
        "backward_moves",
        "symbols",
        "accepts_empty_word",
    )

    def __init__(self, nfa: NFA):
        self.num_states: int = nfa.num_states
        closures = _all_epsilon_closures(nfa)
        self.initial: Tuple[int, ...] = tuple(sorted(nfa.epsilon_closure(nfa.initial)))
        self.accepting: FrozenSet[int] = frozenset(nfa.accepting)
        self.accepts_empty_word: bool = any(state in self.accepting for state in self.initial)

        forward: List[Dict[str, Set[int]]] = [dict() for _ in range(nfa.num_states)]
        for state, by_symbol in nfa.transitions.items():
            for symbol, targets in by_symbol.items():
                if symbol is None:
                    continue
                closed = forward[state].setdefault(symbol, set())
                for target in targets:
                    closed.update(closures[target])
        self.moves: Tuple[SymbolMoves, ...] = tuple(
            tuple(sorted((symbol, tuple(sorted(targets))) for symbol, targets in by_symbol.items()))
            for by_symbol in forward
        )

        backward: List[Dict[str, Set[int]]] = [dict() for _ in range(nfa.num_states)]
        for state, by_symbol in enumerate(self.moves):
            for symbol, targets in by_symbol:
                for target in targets:
                    backward[target].setdefault(symbol, set()).add(state)
        self.backward_moves: Tuple[SymbolMoves, ...] = tuple(
            tuple(sorted((symbol, tuple(sorted(sources))) for symbol, sources in by_symbol.items()))
            for by_symbol in backward
        )

        self.symbols: FrozenSet[str] = frozenset(
            symbol for by_symbol in self.moves for symbol, _ in by_symbol
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CompiledAutomaton: {self.num_states} states, "
            f"{len(self.symbols)} symbols, {len(self.initial)} initial>"
        )


def _all_epsilon_closures(nfa: NFA) -> Tuple[FrozenSet[int], ...]:
    """Per-state ε-closures, memoised across the whole automaton."""
    cache: Dict[int, FrozenSet[int]] = {}

    def closure(state: int) -> FrozenSet[int]:
        cached = cache.get(state)
        if cached is None:
            cached = nfa.epsilon_closure((state,))
            cache[state] = cached
        return cached

    return tuple(closure(state) for state in range(nfa.num_states))

