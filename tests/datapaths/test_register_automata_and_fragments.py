"""Tests for register automata, REM compilation and fragment classification."""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagraph import NULL, DataPath
from repro.datapaths import (
    Equal,
    Fragment,
    NotEqual,
    RegisterAutomaton,
    TrueCondition,
    Valuation,
    classify,
    compile_rem,
    parse_ree,
    parse_rem,
    ra_accepts,
    ra_is_empty,
    ree_matches,
    ree_to_rem,
    rem_matches,
)
from repro.datapaths.register_automata import Transition
from repro.datapaths.fragments import free_registers, is_scoped, scope_violation
from repro.datapaths.register_automata import RegisterStepper


def dp(*items):
    return DataPath.from_sequence(list(items))


class TestTransitionValidation:
    def test_kinds(self):
        with pytest.raises(ValueError):
            Transition(0, "bogus", 1)
        with pytest.raises(ValueError):
            Transition(0, "letter", 1)
        with pytest.raises(ValueError):
            Transition(0, "guard", 1)
        with pytest.raises(ValueError):
            Transition(0, "store", 1)
        # valid forms
        Transition(0, "letter", 1, symbol="a")
        Transition(0, "guard", 1, condition=TrueCondition())
        Transition(0, "store", 1, registers=("x",))


class TestHandBuiltAutomaton:
    def _same_endpoints_automaton(self) -> RegisterAutomaton:
        """Accepts data paths over 'a' whose first and last values coincide."""
        transitions = [
            Transition(0, "store", 1, registers=("x",)),
            Transition(1, "letter", 2, symbol="a"),
            Transition(2, "guard", 3, condition=Equal("x")),
            Transition(2, "guard", 1, condition=TrueCondition()),
        ]
        return RegisterAutomaton(num_states=4, initial=0, accepting={3}, transitions=transitions)

    def test_acceptance(self):
        automaton = self._same_endpoints_automaton()
        assert automaton.accepts(dp(1, "a", 2, "a", 1))
        assert automaton.accepts(dp(5, "a", 5))
        assert not automaton.accepts(dp(1, "a", 2))
        assert not automaton.accepts(dp(1))

    def test_registers_and_labels(self):
        automaton = self._same_endpoints_automaton()
        assert automaton.registers() == frozenset({"x"})
        assert automaton.labels() == frozenset({"a"})

    def test_initial_valuation(self):
        transitions = [
            Transition(0, "letter", 1, symbol="a"),
            Transition(1, "guard", 2, condition=Equal("x")),
        ]
        automaton = RegisterAutomaton(3, 0, {2}, transitions)
        assert automaton.accepts(dp(1, "a", 7), initial_valuation=Valuation({"x": 7}))
        assert not automaton.accepts(dp(1, "a", 7), initial_valuation=Valuation({"x": 8}))

    def test_null_semantics(self):
        automaton = self._same_endpoints_automaton()
        assert automaton.accepts(dp(NULL, "a", NULL))
        assert not automaton.accepts(dp(NULL, "a", NULL), null_semantics=True)


class TestRemCompilation:
    """compile_rem must agree with the direct derivation semantics."""

    EXPRESSIONS = [
        "a",
        "a.b",
        "a|b",
        "a*",
        "a+",
        "(a|b)*",
        "!x.(a[x!=])+",
        "!x.(a+[x=])",
        "a* . !x.a+[x=] . a*",
        "!x. a . b[x=]",
        "(!x.a[x!=])+",
    ]

    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_agrees_with_derivation_semantics(self, text):
        expr = parse_rem(text)
        automaton = compile_rem(expr)
        # exhaustively compare on short data paths over a small value domain
        paths = []
        values = [1, 2]
        labels = ["a", "b"]
        paths.extend(DataPath((v,), ()) for v in values)
        for v1 in values:
            for l1 in labels:
                for v2 in values:
                    paths.append(DataPath((v1, v2), (l1,)))
                    for l2 in labels:
                        for v3 in values:
                            paths.append(DataPath((v1, v2, v3), (l1, l2)))
        for path in paths:
            assert automaton.accepts(path) is rem_matches(expr, path), (text, path)

    def test_ra_accepts_wrapper(self):
        expr = parse_rem("!x.(a[x!=])+")
        assert ra_accepts(expr, dp(1, "a", 2))
        assert ra_accepts(compile_rem(expr), dp(1, "a", 2))
        assert not ra_accepts(expr, dp(1, "a", 1))


class TestRegisterStepper:
    """The per-call closure memo both register kernels take their steps from."""

    TEXT = "!x.(a.!y.((a|b)[x!= && y!=]))+"

    def test_memo_agrees_with_the_raw_closure(self):
        automaton = compile_rem(parse_rem(self.TEXT))
        for null_semantics in (False, True):
            stepper = RegisterStepper(automaton, null_semantics)
            frontier = list(stepper.initial(1))
            assert {(stepper.states[sv], stepper.valuations[sv]) for sv in frontier} == (
                automaton.silent_closure(
                    {(automaton.initial, Valuation())}, 1, null_semantics
                )
            )
            seen = set(frontier)
            while frontier:
                sv = frontier.pop()
                state, valuation = stepper.states[sv], stepper.valuations[sv]
                assert stepper.sv_of(state, valuation) == sv
                for _symbol, target in automaton.letters_from(state):
                    for value in (1, 2, NULL):
                        stepped = stepper.step(sv, target, value)
                        assert stepper.step(sv, target, value) is stepped  # memo hit
                        assert {
                            (stepper.states[n], stepper.valuations[n]) for n in stepped
                        } == automaton.silent_closure({(target, valuation)}, value, null_semantics)
                        frontier.extend(n for n in stepped if n not in seen)
                        seen.update(stepped)

    def test_concurrent_interning_loses_no_pair(self):
        """The thread backend of the source-block driver shares one
        stepper: ids must stay dense and every id must map back to its
        pair whatever the interleaving."""
        automaton = compile_rem(parse_rem(self.TEXT))
        stepper = RegisterStepper(automaton)
        values = list(range(12))
        errors = []

        def walk(offset: int) -> None:
            try:
                order = values[offset:] + values[:offset]
                frontier = [sv for value in order for sv in stepper.initial(value)]
                for _ in range(3):
                    reached = []
                    for sv in frontier:
                        for _symbol, target in automaton.letters_from(stepper.states[sv]):
                            for value in order:
                                reached.extend(stepper.step(sv, target, value))
                    frontier = list(dict.fromkeys(reached))[:40]
            except Exception as error:  # surfaced below, on the main thread
                errors.append(error)

        threads = [threading.Thread(target=walk, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        pairs = list(zip(stepper.states, stepper.valuations))
        assert len(set(pairs)) == len(pairs) > 0  # no pair interned twice
        assert all(stepper.sv_of(*pair) == sv for sv, pair in enumerate(pairs))


class TestNonemptiness:
    def test_simple_nonempty(self):
        assert not ra_is_empty(parse_rem("a.b"))
        assert not ra_is_empty(parse_rem("!x.(a[x!=])+"))

    def test_unsatisfiable_condition(self):
        # ↓x. a [x= ∧ x≠] can never be satisfied.
        from repro.datapaths import rem_bind, rem_letter, rem_test
        from repro.datapaths.conditions import And

        expr = rem_bind("x", rem_test(rem_letter("a"), And(Equal("x"), NotEqual("x"))))
        assert ra_is_empty(expr)

    def test_requires_distinct_then_equal(self):
        # ↓x.(a[x≠]) · ... languages that need specific value patterns are nonempty.
        assert not ra_is_empty(parse_rem("!x. a[x!=] . a[x=]"))

    def test_empty_automaton_without_accepting_reachable(self):
        automaton = RegisterAutomaton(
            2, 0, {1}, [Transition(0, "guard", 0, condition=TrueCondition())]
        )
        assert automaton.is_empty()

    def test_nonempty_with_inequality_chain(self):
        # all values differ from the first: satisfiable with 2 distinct values
        assert not ra_is_empty(parse_rem("!x.(a[x!=])+"))


class TestFragments:
    def test_classify_ree(self):
        assert classify(parse_ree("a.b.c")) is Fragment.PATH_WITH_TESTS
        assert classify(parse_ree("(a.b)!=")) is Fragment.PATH_WITH_TESTS
        assert classify(parse_ree("(a|b)*")) is Fragment.REE_EQUALITY_ONLY
        assert classify(parse_ree("((a|b)+)=")) is Fragment.REE_EQUALITY_ONLY
        assert classify(parse_ree("((a|b)+)!=")) is Fragment.REE

    def test_classify_rem(self):
        assert classify(parse_rem("!x.(a[x=])+")) is Fragment.REM_EQUALITY_ONLY
        assert classify(parse_rem("!x.(a[x!=])+")) is Fragment.REM

    def test_classify_rejects_other_types(self):
        with pytest.raises(TypeError):
            classify("a.b")

    def test_is_equality_only(self):
        assert not parse_ree("(a+)=").uses_inequality()
        assert parse_ree("(a+)!=").uses_inequality()
        assert not parse_rem("!x.a[x=]").uses_inequality()
        assert parse_rem("!x.a[x!=]").uses_inequality()


class TestScopedFragment:
    """The syntactic test the engine, ``explain`` and the suites consult:
    a register read at a test holds the value its innermost ``↓`` stored."""

    #: (expression, what the violation says — ``None`` inside the fragment)
    TABLE = [
        ("!x.(supplies_to[x!=])+", None),
        ("!x.((supplies_to|returns_to)[x!=])+", None),
        ("!v.(supplies_to[v!=])+", None),  # the benchmark's ``rem:`` CRPQ atom
        ("(!x.a[x!=])+", None),
        ("!x,y.(a[x= || y!=])+", None),
        ("!x.(a.(!y.b[y=])+.c[x!=])", None),  # a nested bind reading only its own
        ("!x.((!y.a)[x=])", None),  # the test is ↓x's, not the ↓y under it
        ("a.b+|c", None),  # no register at all
        ("(!x.a).b[x=]", "the test [x=] reads register 'x' outside every ↓"),
        ("a[x=]", "the test [x=] reads register 'x' outside every ↓"),
        ("!x.(a.(!x.b).c[x=])", "↓x re-binds register 'x' of a ↓ it is nested in"),
        ("!x.(a.!y,x.b)", "↓y,x re-binds register 'x' of a ↓ it is nested in"),
        ("!x.(a.!y.(b[x= && y!=]))", "reads register 'x' across ↓y"),
        # ↓ scopes over the rest of its concatenation: ``c[x≠]`` sits under ↓y
        ("!x.a.!y.b.c[x!=]", "the test [x≠] reads register 'x' across ↓y"),
        ("!y.a.b[x!=]", "the test [x≠] reads register 'x' across ↓y"),
        ("(!x.a.(!y.b)).c[x= || z=]", "reads register 'x' outside every ↓"),
    ]

    @pytest.mark.parametrize("text, reason", TABLE)
    def test_the_two_rules(self, text, reason):
        expression = parse_rem(text)
        violation = scope_violation(expression)
        assert is_scoped(expression) == (reason is None)
        assert violation is None if reason is None else reason in violation, violation

    def test_every_translated_ree_is_scoped(self):
        for text in TestReeToRem.CASES + ["(((a)=.b)!=|(c+)=)+", "((a=)+)!="]:
            expression = parse_ree(text)
            assert is_scoped(expression) and is_scoped(ree_to_rem(expression)), text
            assert not free_registers(ree_to_rem(expression))

    def test_free_registers(self):
        assert free_registers(parse_rem("a[x= && y!=].b")) == {"x", "y"}
        assert free_registers(parse_rem("!x.(a[x= && y!=])")) == {"y"}
        assert free_registers(parse_rem("(!x.a).b[x=]")) == {"x"}
        assert free_registers(parse_rem("!x,y.(a[x=]|b[y!=])+")) == frozenset()


class TestReeToRem:
    CASES = [
        "a",
        "a.b",
        "a|b",
        "(a.b)=",
        "(a.b)!=",
        "(a|b)* . ((a|b)+)= . (a|b)*",
        "((a)=.(b)!=)!=",
        "(a+)=",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_translation_preserves_semantics(self, text):
        ree_expr = parse_ree(text)
        rem_expr = ree_to_rem(ree_expr)
        values = [1, 2]
        labels = ["a", "b"]
        paths = [DataPath((v,), ()) for v in values]
        for v1 in values:
            for l1 in labels:
                for v2 in values:
                    paths.append(DataPath((v1, v2), (l1,)))
                    for l2 in labels:
                        for v3 in values:
                            paths.append(DataPath((v1, v2, v3), (l1, l2)))
        for path in paths:
            assert ree_matches(ree_expr, path) is rem_matches(rem_expr, path), (text, path)

    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=5))
    @settings(max_examples=40)
    def test_translation_on_random_single_label_paths(self, values):
        labels = tuple("a" for _ in range(len(values) - 1))
        path = DataPath(tuple(values), labels)
        ree_expr = parse_ree("a* . (a+)= . a*")
        rem_expr = ree_to_rem(ree_expr)
        assert ree_matches(ree_expr, path) is rem_matches(rem_expr, path)
