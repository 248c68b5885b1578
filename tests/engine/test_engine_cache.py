"""Regression tests for the engine's compiled-automaton caches.

The seed evaluators recompiled the NFA on every call.  These tests pin
the fix: the one entry point that still compiles an NFA, the witness
path (``EvaluationEngine.witness_path_labels``), shares one compiled
automaton per query, keyed on the structural AST, behind an LRU bound.
Full relations and point queries (``GraphSession.targets`` / ``holds``,
``EvaluationEngine.evaluate_rpq_from``) compile none: the bit-row
algebra runs the regex itself.
"""

from __future__ import annotations

import pytest

from repro.api import GraphSession
from repro.datagraph import GraphBuilder
from repro.engine import CompiledAutomaton, EvaluationEngine, LRUCache, default_engine
from repro.query import equality_rpq, rpq, witness_path_labels
from repro.regular import parse_regex


@pytest.fixture
def small_graph():
    return (
        GraphBuilder(name="cache-test")
        .node("u", 1)
        .node("v", 1)
        .node("w", 2)
        .edge("u", "a", "v")
        .edge("v", "b", "w")
        .edge("w", "a", "u")
        .build()
    )


def test_second_evaluation_hits_the_automaton_cache(small_graph):
    engine = EvaluationEngine()
    engine.witness_path_labels(small_graph, "a.b", "u", "w")
    stats = engine.stats()["automata"]
    assert (stats.misses, stats.hits) == (1, 0)
    engine.witness_path_labels(small_graph, "a.b", "u", "w")
    stats = engine.stats()["automata"]
    assert (stats.misses, stats.hits) == (1, 1)


def test_all_entry_points_share_one_compiled_automaton(small_graph):
    engine = EvaluationEngine()
    query = rpq("a.b")
    engine.evaluate_rpq(small_graph, query)
    engine.evaluate_many(small_graph, [query, query])
    assert engine.evaluate_rpq_from(small_graph, query, "u") == {small_graph.node("w")}
    engine.evaluate_rpq_from(small_graph, query, "v")
    assert engine.stats()["automata"].misses == 0  # full relations and points: the algebra
    engine.witness_path_labels(small_graph, query, "u", "w")
    engine.witness_path_labels(small_graph, query, "v", "u")
    stats = engine.stats()["automata"]
    assert stats.misses == 1
    assert stats.hits == 1


def test_equivalent_query_spellings_share_one_entry(small_graph):
    engine = EvaluationEngine()
    expression = parse_regex("a.b")
    engine.witness_path_labels(small_graph, "a.b", "u", "w")  # textual
    engine.witness_path_labels(small_graph, expression, "u", "w")  # regex AST
    engine.witness_path_labels(small_graph, rpq("a.b"), "u", "w")  # RPQ wrapper
    stats = engine.stats()["automata"]
    assert stats.misses == 1
    assert stats.hits == 2


def test_sessions_reuse_the_default_engine_cache(small_graph):
    """The seed recompiled per call; the public API must not (regression)."""
    before = default_engine().stats()["automata"]
    GraphSession(small_graph).run("a.b.a").pairs()
    GraphSession(small_graph).holds("a.b.a", "u", "u")
    GraphSession(small_graph).targets("a.b.a", "u")
    witness_path_labels(small_graph, "a.b.a", "u", "u")
    GraphSession(small_graph).targets("a.b.a", "v")
    witness_path_labels(small_graph, "a.b.a", "v", "v")
    after = default_engine().stats()["automata"]
    assert after.misses - before.misses <= 1  # only the witnesses compile
    assert after.hits - before.hits >= 1


def test_register_automaton_compilation_is_cached(small_graph):
    engine = EvaluationEngine()
    query = equality_rpq("(a.b)=")
    engine.evaluate_data_rpq(small_graph, query, engine="automaton")
    engine.evaluate_data_rpq(small_graph, query, engine="automaton")
    stats = engine.stats()["register_automata"]
    assert (stats.misses, stats.hits) == (1, 1)


def test_lru_bound_evicts_least_recently_used(small_graph):
    engine = EvaluationEngine(automaton_cache_size=2)
    engine.witness_path_labels(small_graph, "a", "u", "v")
    engine.witness_path_labels(small_graph, "b", "u", "v")
    engine.witness_path_labels(small_graph, "a.b", "u", "w")  # evicts "a"
    stats = engine.stats()["automata"]
    assert stats.size == 2
    assert stats.evictions == 1
    engine.witness_path_labels(small_graph, "a", "u", "v")  # recompilation, not a hit
    assert engine.stats()["automata"].misses == 4


def test_lru_cache_primitive():
    cache: LRUCache[int] = LRUCache(maxsize=2)
    builds = []

    def builder(value):
        def build():
            builds.append(value)
            return value

        return build

    assert cache.get_or_build("x", builder(1)) == 1
    assert cache.get_or_build("x", builder(99)) == 1  # hit, no rebuild
    assert cache.get_or_build("y", builder(2)) == 2
    assert cache.get_or_build("z", builder(3)) == 3  # evicts "x"
    assert cache.get_or_build("x", builder(4)) == 4  # rebuilt after eviction
    assert builds == [1, 2, 3, 4]
    stats = cache.stats()
    assert stats.hits == 1 and stats.misses == 4 and stats.evictions == 2
    assert 0.0 < stats.hit_rate < 1.0
    with pytest.raises(ValueError):
        LRUCache(maxsize=0)


def test_compiled_automaton_tables_match_nfa_language():
    from repro.regular import thompson

    expression = parse_regex("a.(a|b)*.b")
    nfa = thompson(expression)
    compiled = CompiledAutomaton(nfa)

    def accepts(word):
        current = set(compiled.initial)
        for symbol in word:
            current = {
                target
                for state in current
                for move_symbol, targets in compiled.moves[state]
                if move_symbol == symbol
                for target in targets
            }
        return bool(current & compiled.accepting)

    for word in [(), ("a",), ("a", "b"), ("a", "a", "b"), ("b",), ("a", "b", "a")]:
        assert accepts(word) == nfa.accepts(word), word
    assert compiled.symbols == {"a", "b"}
    assert not compiled.accepts_empty_word


def test_evaluate_rpq_ids_returns_frozen_id_pairs(small_graph):
    engine = EvaluationEngine()
    id_pairs = engine.evaluate_rpq_ids(small_graph, "a.b")
    assert isinstance(id_pairs, frozenset)
    assert id_pairs == {("u", "w")}
    node_pairs = {
        (source.id, target.id) for source, target in engine.evaluate_rpq(small_graph, "a.b")
    }
    assert id_pairs == node_pairs


def test_point_entry_points_reject_unknown_node_ids(small_graph):
    from repro.exceptions import UnknownNodeError

    session = GraphSession(small_graph)
    with pytest.raises(UnknownNodeError):
        session.holds("a", "typo", "v")
    with pytest.raises(UnknownNodeError):
        session.holds("a", "u", "typo")
    with pytest.raises(UnknownNodeError):
        EvaluationEngine().evaluate_rpq_from(small_graph, "a", "typo")


def test_evaluate_many_stays_correct_across_cache_eviction(small_graph):
    # More distinct queries than the cache holds: mid-batch evictions must
    # not cross answers between queries (regression for id-reuse memoing).
    engine = EvaluationEngine(automaton_cache_size=2)
    queries = ["a", "b", "a.b", "b.a", "a", "b"]
    answers = engine.evaluate_many(small_graph, queries)
    for query, answer in zip(queries, answers):
        assert answer == engine.evaluate_rpq(small_graph, query), query


def test_clear_caches_resets_entries_but_keeps_counters(small_graph):
    engine = EvaluationEngine()
    engine.witness_path_labels(small_graph, "a.b", "u", "w")
    engine.clear_caches()
    stats = engine.stats()["automata"]
    assert stats.size == 0
    assert stats.misses == 1
    engine.witness_path_labels(small_graph, "a.b", "u", "w")
    assert engine.stats()["automata"].misses == 2
