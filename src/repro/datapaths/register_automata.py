"""Register automata over data paths and compilation from REM expressions.

Register automata [Kaminski & Francez 1994] are the automaton counterpart
of regular expressions with memory: Section 3 of the paper notes that REM
captures exactly their expressive power on data paths.  This module
implements a register automaton model tailored to data paths and a
Thompson-style compilation from REM expressions onto it, which is then
used by the query engine to evaluate memory RPQs over data graphs by a
product construction.

Model
-----
A data path ``d0 a1 d1 ... an dn`` is processed as the initial data value
``d0`` followed by the pairs ``(a1, d1) ... (an, dn)``.  At every moment
the automaton has a *current data value* (the most recently read one) and
a partial valuation of its registers.  Transitions are of three kinds:

* ``letter(a)`` — consume the next pair ``(a, d)``; the current value
  becomes ``d``;
* ``guard(c)`` — an ε-move allowed only if the condition ``c`` holds of
  the current value and the register valuation;
* ``store(x̄)`` — an ε-move writing the current value into registers ``x̄``.

A data path is accepted if, after consuming all pairs, an accepting state
is reachable.  This formulation mirrors the derivation semantics of REM:
``↓x̄.e`` becomes a ``store`` on entry and ``e[c]`` a ``guard`` on exit,
and concatenation works because the shared data value of ``w1 · w2`` is
exactly the current value when control passes from the first fragment to
the second.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from ..datagraph.paths import DataPath
from ..datagraph.values import DataValue
from ..exceptions import EvaluationError
from .conditions import (
    EMPTY_VALUATION,
    And,
    Condition,
    Equal,
    NotEqual,
    Or,
    TrueCondition,
    Valuation,
    evaluate_condition,
)
from .rem import (
    RegexWithMemory,
    RemBind,
    RemConcat,
    RemEpsilon,
    RemLetter,
    RemPlus,
    RemTest,
    RemUnion,
)

__all__ = [
    "Transition",
    "RegisterAutomaton",
    "RegisterStepper",
    "compile_rem",
    "ra_accepts",
    "ra_is_empty",
]


@dataclass(frozen=True)
class Transition:
    """A transition of a register automaton.

    Exactly one of the three payloads is set, according to *kind*:
    ``"letter"`` (field :attr:`symbol`), ``"guard"`` (field
    :attr:`condition`) or ``"store"`` (field :attr:`registers`).
    """

    source: int
    kind: str
    target: int
    symbol: Optional[str] = None
    condition: Optional[Condition] = None
    registers: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in {"letter", "guard", "store"}:
            raise ValueError(f"unknown transition kind {self.kind!r}")
        if self.kind == "letter" and not self.symbol:
            raise ValueError("letter transitions need a symbol")
        if self.kind == "guard" and self.condition is None:
            raise ValueError("guard transitions need a condition")
        if self.kind == "store" and not self.registers:
            raise ValueError("store transitions need at least one register")


@dataclass
class RegisterAutomaton:
    """A register automaton over data paths."""

    num_states: int
    initial: int
    accepting: Set[int]
    transitions: List[Transition] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._outgoing: Dict[int, List[Transition]] = {}
        # The same transitions split by what consumes them: silent
        # (guard/store) moves for the closure, ``(symbol, target)``
        # letter moves for a step.
        self._silent: Dict[int, List[Transition]] = {}
        self._letters: Dict[int, List[Tuple[str, int]]] = {}
        for transition in self.transitions:
            self._index(transition)

    def _index(self, transition: Transition) -> None:
        self._outgoing.setdefault(transition.source, []).append(transition)
        if transition.kind == "letter":
            self._letters.setdefault(transition.source, []).append(
                (transition.symbol, transition.target)
            )
        else:
            self._silent.setdefault(transition.source, []).append(transition)

    def add_transition(self, transition: Transition) -> None:
        """Append a transition (used by the compiler)."""
        self.transitions.append(transition)
        self._index(transition)

    def outgoing(self, state: int) -> Tuple[Transition, ...]:
        """Transitions leaving *state*."""
        return tuple(self._outgoing.get(state, ()))

    def letters_from(self, state: int) -> Sequence[Tuple[str, int]]:
        """The ``(symbol, target state)`` letter moves leaving *state*."""
        return self._letters.get(state, ())

    def registers(self) -> FrozenSet[str]:
        """All registers mentioned by guards or stores."""
        result: Set[str] = set()
        for transition in self.transitions:
            if transition.kind == "store":
                result.update(transition.registers)
            elif transition.kind == "guard" and transition.condition is not None:
                result.update(transition.condition.variables())
        return frozenset(result)

    def labels(self) -> FrozenSet[str]:
        """All edge labels used by letter transitions."""
        return frozenset(
            transition.symbol for transition in self.transitions if transition.kind == "letter"
        )

    # ------------------------------------------------------------------
    # Execution on data paths
    # ------------------------------------------------------------------
    def silent_closure(
        self, configurations: Iterable[Tuple[int, Valuation]], value: DataValue, null_semantics: bool
    ) -> FrozenSet[Tuple[int, Valuation]]:
        """Close a configuration set under guard/store moves for the current *value*."""
        closure: Set[Tuple[int, Valuation]] = set(configurations)
        queue = deque(closure)
        silent = self._silent
        while queue:
            state, valuation = queue.popleft()
            for transition in silent.get(state, ()):
                if transition.kind == "guard":
                    if not evaluate_condition(transition.condition, valuation, value, null_semantics):
                        continue
                    successor = (transition.target, valuation)
                else:  # store
                    successor = (transition.target, valuation.bind(transition.registers, value))
                if successor not in closure:
                    closure.add(successor)
                    queue.append(successor)
        return frozenset(closure)

    def letter_step(
        self,
        configurations: Iterable[Tuple[int, Valuation]],
        symbol: str,
        new_value: DataValue,
        null_semantics: bool,
    ) -> FrozenSet[Tuple[int, Valuation]]:
        """Consume one ``(symbol, value)`` pair and re-close under silent moves."""
        letters = self._letters
        moved: Set[Tuple[int, Valuation]] = set()
        for state, valuation in configurations:
            for letter, target in letters.get(state, ()):
                if letter == symbol:
                    moved.add((target, valuation))
        return self.silent_closure(moved, new_value, null_semantics)

    def accepts(
        self,
        data_path: DataPath,
        initial_valuation: Valuation = EMPTY_VALUATION,
        null_semantics: bool = False,
    ) -> bool:
        """Whether the automaton accepts the data path."""
        current = self.silent_closure(
            {(self.initial, initial_valuation)}, data_path.values[0], null_semantics
        )
        for index, symbol in enumerate(data_path.labels):
            value = data_path.values[index + 1]
            current = self.letter_step(current, symbol, value, null_semantics)
            if not current:
                return False
        return any(state in self.accepting for state, _ in current)

    # ------------------------------------------------------------------
    # Nonemptiness (symbolic)
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        """Whether the automaton accepts no data path at all.

        The search abstracts data values symbolically: the only thing a
        run can observe is which registers equal the current value, so we
        explore configurations ``(state, register equality pattern)``
        where a fresh value (different from all register contents) can
        always be introduced.  Configurations are normalised by renaming
        the abstract value ids, which keeps the state space finite.  The
        abstraction is exact for automata produced from REM expressions
        (guards only compare the current value with registers).
        """
        registers = sorted(self.registers())
        start = self._normalize({reg: None for reg in registers}, 0)
        seen: Set[Tuple[int, Tuple, int]] = set()
        queue: deque = deque()

        for config in self._symbolic_closure(self.initial, dict(start[0]), start[1]):
            if config not in seen:
                seen.add(config)
                queue.append(config)

        while queue:
            state, valuation_items, current = queue.popleft()
            if state in self.accepting:
                return False
            valuation = dict(valuation_items)
            # The next data value can be fresh (None) or equal to a register.
            next_values = {None} | {vid for vid in valuation.values() if vid is not None}
            for transition in self.outgoing(state):
                if transition.kind != "letter":
                    continue
                for choice in next_values:
                    if choice is None:
                        used = [vid for vid in valuation.values() if vid is not None]
                        new_current = (max(used) + 1) if used else 1
                    else:
                        new_current = choice
                    for config in self._symbolic_closure(transition.target, dict(valuation), new_current):
                        if config not in seen:
                            seen.add(config)
                            queue.append(config)
        return True

    @staticmethod
    def _normalize(
        valuation: Dict[str, Optional[int]], current: int
    ) -> Tuple[Tuple[Tuple[str, Optional[int]], ...], int]:
        """Rename abstract value ids canonically (first occurrence order)."""
        renaming: Dict[int, int] = {}

        def rename(vid: Optional[int]) -> Optional[int]:
            if vid is None:
                return None
            if vid not in renaming:
                renaming[vid] = len(renaming)
            return renaming[vid]

        items = tuple((register, rename(vid)) for register, vid in sorted(valuation.items()))
        return items, rename(current) if current is not None else None

    def _symbolic_closure(
        self, state: int, valuation: Dict[str, Optional[int]], current: int
    ) -> Iterable[Tuple[int, Tuple, int]]:
        """Closure under guard/store moves in the symbolic abstraction.

        Yields configurations normalised via :meth:`_normalize`.
        """
        start_items, start_current = self._normalize(valuation, current)
        closure = {(state, start_items, start_current)}
        queue = deque([(state, dict(valuation), current)])
        while queue:
            st, val, cur = queue.popleft()
            for transition in self.outgoing(st):
                if transition.kind == "letter":
                    continue
                if transition.kind == "guard":
                    assert transition.condition is not None
                    if not self._symbolic_condition(transition.condition, val, cur):
                        continue
                    successor = (transition.target, dict(val), cur)
                else:
                    new_val = dict(val)
                    for register in transition.registers:
                        new_val[register] = cur
                    successor = (transition.target, new_val, cur)
                items, norm_current = self._normalize(successor[1], successor[2])
                key = (successor[0], items, norm_current)
                if key not in closure:
                    closure.add(key)
                    queue.append(successor)
        return closure

    def _symbolic_condition(
        self, condition: Condition, valuation: Dict[str, Optional[int]], current: int
    ) -> bool:
        if isinstance(condition, TrueCondition):
            return True
        if isinstance(condition, Equal):
            return valuation.get(condition.variable) == current
        if isinstance(condition, NotEqual):
            stored = valuation.get(condition.variable)
            return stored is not None and stored != current
        if isinstance(condition, And):
            return self._symbolic_condition(condition.left, valuation, current) and self._symbolic_condition(
                condition.right, valuation, current
            )
        if isinstance(condition, Or):
            return self._symbolic_condition(condition.left, valuation, current) or self._symbolic_condition(
                condition.right, valuation, current
            )
        raise EvaluationError(f"unknown condition {condition!r}")  # pragma: no cover - defensive


class RegisterStepper:
    """The silent closures of one kernel call, interned and memoised.

    On a data graph a valuation only ever holds the graph's own data
    values, and a closure depends on the node it is taken at only through
    that node's *value*.  So the stepper (a) interns every
    ``(state, valuation)`` pair a closure produces to a dense int ``sv``
    — :attr:`states` ``[sv]`` and :attr:`valuations` ``[sv]`` hold the
    one canonical pair — and (b) memoises the initial closure per value
    and each letter step per ``(sv, target state, value)``, so
    :meth:`RegisterAutomaton.silent_closure` runs once per distinct key
    instead of once per edge expansion.

    The memo names a value by a hashable *key* of its equality class:
    the value itself (the default), or a dense id the caller interned
    (the compact index's value-id column, which saves hashing the value
    per edge) — one convention per stepper.  The closure is a pure
    function of state, valuation, value and ``null_semantics``, so the
    memo never changes an answer; an ``UnboundVariableError`` propagates
    from the first expansion that meets it and is never cached.

    Built per kernel call and dropped with it.  Interning takes a lock
    (the thread backend of the source-block driver shares one space);
    memo hits are lock-free reads.
    """

    __slots__ = (
        "automaton",
        "null_semantics",
        "states",
        "valuations",
        "_ids",
        "_initial",
        "_steps",
        "_lock",
    )

    def __init__(self, automaton: RegisterAutomaton, null_semantics: bool = False):
        self.automaton = automaton
        self.null_semantics = null_semantics
        #: ``sv -> state`` and ``sv -> valuation`` of every interned pair.
        self.states: List[int] = []
        self.valuations: List[Valuation] = []
        self._ids: Dict[Tuple[int, Valuation], int] = {}
        self._initial: Dict[Hashable, Tuple[int, ...]] = {}
        # sv -> {(target state, value key) -> successor svs}
        self._steps: List[Dict[Tuple[int, Hashable], Tuple[int, ...]]] = []
        self._lock = threading.Lock()

    def _intern(self, pairs: Iterable[Tuple[int, Valuation]]) -> Tuple[int, ...]:
        ids = self._ids
        out = []
        with self._lock:
            for pair in pairs:
                sv = ids.get(pair)
                if sv is None:
                    sv = len(self.states)
                    self.states.append(pair[0])
                    self.valuations.append(pair[1])
                    self._steps.append({})
                    ids[pair] = sv  # published last: readers take no lock
                out.append(sv)
        return tuple(out)

    def sv_of(self, state: int, valuation: Valuation) -> int:
        """The id of ``(state, valuation)``, interned now if it is new
        (a configuration that arrived from another process)."""
        sv = self._ids.get((state, valuation))
        if sv is None:
            (sv,) = self._intern(((state, valuation),))
        return sv

    def initial(self, value: DataValue, key: Optional[Hashable] = None) -> Tuple[int, ...]:
        """The pairs a source whose data value is *value* starts in."""
        if key is None:
            key = value
        svs = self._initial.get(key)
        if svs is None:
            closure = self.automaton.silent_closure(
                {(self.automaton.initial, EMPTY_VALUATION)}, value, self.null_semantics
            )
            svs = self._initial[key] = self._intern(closure)
        return svs

    def step(
        self, sv: int, target_state: int, value: DataValue, key: Optional[Hashable] = None
    ) -> Tuple[int, ...]:
        """The pairs reached from *sv* by a letter move into *target_state*
        that lands on a node whose data value is *value*."""
        if key is None:
            key = value
        memo = self._steps[sv]
        svs = memo.get((target_state, key))
        if svs is None:
            closure = self.automaton.silent_closure(
                {(target_state, self.valuations[sv])}, value, self.null_semantics
            )
            svs = memo[(target_state, key)] = self._intern(closure)
        return svs


def compile_rem(expression: RegexWithMemory) -> RegisterAutomaton:
    """Compile a REM expression into an equivalent register automaton."""
    counter = [0]
    transitions: List[Transition] = []

    def fresh() -> int:
        counter[0] += 1
        return counter[0] - 1

    def link(source: int, kind: str, target: int, **payload) -> None:
        transitions.append(Transition(source, kind, target, **payload))

    def build(expr: RegexWithMemory) -> Tuple[int, int]:
        start = fresh()
        end = fresh()
        if isinstance(expr, RemEpsilon):
            link(start, "guard", end, condition=TrueCondition())
        elif isinstance(expr, RemLetter):
            link(start, "letter", end, symbol=expr.symbol)
        elif isinstance(expr, RemConcat):
            left = build(expr.left)
            right = build(expr.right)
            link(start, "guard", left[0], condition=TrueCondition())
            link(left[1], "guard", right[0], condition=TrueCondition())
            link(right[1], "guard", end, condition=TrueCondition())
        elif isinstance(expr, RemUnion):
            left = build(expr.left)
            right = build(expr.right)
            link(start, "guard", left[0], condition=TrueCondition())
            link(start, "guard", right[0], condition=TrueCondition())
            link(left[1], "guard", end, condition=TrueCondition())
            link(right[1], "guard", end, condition=TrueCondition())
        elif isinstance(expr, RemPlus):
            inner = build(expr.inner)
            link(start, "guard", inner[0], condition=TrueCondition())
            link(inner[1], "guard", inner[0], condition=TrueCondition())
            link(inner[1], "guard", end, condition=TrueCondition())
        elif isinstance(expr, RemTest):
            inner = build(expr.inner)
            link(start, "guard", inner[0], condition=TrueCondition())
            link(inner[1], "guard", end, condition=expr.condition)
        elif isinstance(expr, RemBind):
            inner = build(expr.inner)
            link(start, "store", inner[0], registers=expr.variables_bound)
            link(inner[1], "guard", end, condition=TrueCondition())
        else:  # pragma: no cover - defensive
            raise EvaluationError(f"unknown REM node {expr!r}")
        return start, end

    initial, accepting = build(expression)
    return RegisterAutomaton(
        num_states=counter[0], initial=initial, accepting={accepting}, transitions=transitions
    )


def ra_accepts(
    expression_or_automaton: RegexWithMemory | RegisterAutomaton,
    data_path: DataPath,
    null_semantics: bool = False,
) -> bool:
    """Acceptance of a data path by a register automaton (or a REM compiled to one)."""
    automaton = (
        expression_or_automaton
        if isinstance(expression_or_automaton, RegisterAutomaton)
        else compile_rem(expression_or_automaton)
    )
    return automaton.accepts(data_path, null_semantics=null_semantics)


def ra_is_empty(expression_or_automaton: RegexWithMemory | RegisterAutomaton) -> bool:
    """Nonemptiness test (symbolic) for register automata / REM expressions."""
    automaton = (
        expression_or_automaton
        if isinstance(expression_or_automaton, RegisterAutomaton)
        else compile_rem(expression_or_automaton)
    )
    return automaton.is_empty()
