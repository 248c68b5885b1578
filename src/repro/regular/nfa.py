"""Nondeterministic finite automata and the Thompson construction.

RPQ evaluation (Section 2) and the bounded procedures of Sections 5–6
evaluate regular expressions by compiling them into NFAs with ε
transitions, then running a product construction with the data graph or a
word.  States are plain integers; the construction is the textbook
Thompson translation, producing an automaton with a single initial and a
single accepting state and O(|e|) states overall.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Set, Tuple

from .ast import Concat, Epsilon, Letter, Plus, Regex, Star, Union
from .parser import parse_regex

__all__ = ["NFA", "thompson", "to_nfa", "matches"]


@dataclass
class NFA:
    """An ε-NFA over an alphabet of edge labels.

    Attributes
    ----------
    num_states:
        States are ``0 .. num_states - 1``.
    initial:
        The set of initial states.
    accepting:
        The set of accepting states.
    transitions:
        Mapping ``state -> symbol -> set of states``; the symbol ``None``
        denotes ε transitions.
    """

    num_states: int
    initial: Set[int]
    accepting: Set[int]
    transitions: Dict[int, Dict[Optional[str], Set[int]]] = field(default_factory=dict)

    def epsilon_closure(self, states: Iterable[int]) -> FrozenSet[int]:
        """The ε-closure of a set of states."""
        closure = set(states)
        queue = deque(closure)
        while queue:
            state = queue.popleft()
            for nxt in self.transitions.get(state, {}).get(None, ()):
                if nxt not in closure:
                    closure.add(nxt)
                    queue.append(nxt)
        return frozenset(closure)

    def step(self, states: Iterable[int], symbol: str) -> FrozenSet[int]:
        """One symbol step followed by ε-closure."""
        moved: Set[int] = set()
        for state in states:
            moved.update(self.transitions.get(state, {}).get(symbol, ()))
        return self.epsilon_closure(moved)

    def initial_closure(self) -> FrozenSet[int]:
        """ε-closure of the initial states."""
        return self.epsilon_closure(self.initial)

    def accepts(self, word: Sequence[str]) -> bool:
        """Whether the automaton accepts the given word of labels."""
        current = self.initial_closure()
        for symbol in word:
            current = self.step(current, symbol)
            if not current:
                return False
        return bool(current & self.accepting)


class _Builder:
    """Mutable helper allocating states for the Thompson construction."""

    def __init__(self) -> None:
        self.count = 0
        self.transitions: Dict[int, Dict[Optional[str], Set[int]]] = defaultdict(dict)

    def fresh(self) -> int:
        state = self.count
        self.count += 1
        return state

    def link(self, source: int, symbol: Optional[str], target: int) -> None:
        self.transitions[source].setdefault(symbol, set()).add(target)

    def build(self, initial: int, accepting: int) -> NFA:
        return NFA(
            num_states=self.count,
            initial={initial},
            accepting={accepting},
            transitions={state: dict(by_symbol) for state, by_symbol in self.transitions.items()},
        )


def thompson(expression: Regex) -> NFA:
    """Compile a regular expression to an ε-NFA via the Thompson construction."""
    builder = _Builder()

    def _compile(expr: Regex) -> Tuple[int, int]:
        start = builder.fresh()
        end = builder.fresh()
        if isinstance(expr, Epsilon):
            builder.link(start, None, end)
        elif isinstance(expr, Letter):
            builder.link(start, expr.symbol, end)
        elif isinstance(expr, Concat):
            left_start, left_end = _compile(expr.left)
            right_start, right_end = _compile(expr.right)
            builder.link(start, None, left_start)
            builder.link(left_end, None, right_start)
            builder.link(right_end, None, end)
        elif isinstance(expr, Union):
            left_start, left_end = _compile(expr.left)
            right_start, right_end = _compile(expr.right)
            builder.link(start, None, left_start)
            builder.link(start, None, right_start)
            builder.link(left_end, None, end)
            builder.link(right_end, None, end)
        elif isinstance(expr, Star):
            inner_start, inner_end = _compile(expr.inner)
            builder.link(start, None, end)
            builder.link(start, None, inner_start)
            builder.link(inner_end, None, inner_start)
            builder.link(inner_end, None, end)
        elif isinstance(expr, Plus):
            inner_start, inner_end = _compile(expr.inner)
            builder.link(start, None, inner_start)
            builder.link(inner_end, None, inner_start)
            builder.link(inner_end, None, end)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown regular expression node {expr!r}")
        return start, end

    initial, accepting = _compile(expression)
    return builder.build(initial, accepting)


def to_nfa(expression: Regex | str) -> NFA:
    """Compile an expression (or its textual form) into an ε-NFA."""
    if isinstance(expression, str):
        expression = parse_regex(expression)
    return thompson(expression)


def matches(expression: Regex | str, word: Sequence[str]) -> bool:
    """Whether *word* (a sequence of labels) belongs to the language of *expression*."""
    return to_nfa(expression).accepts(tuple(word))
