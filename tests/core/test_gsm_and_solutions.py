"""Tests for graph schema mappings, classification and solution checking."""

from __future__ import annotations

import pytest

from repro.core import (
    GraphSchemaMapping,
    MappingRule,
    copy_mapping,
    gav_mapping,
    is_solution,
    lav_mapping,
)
from repro.core.solutions import mapping_domain, source_requirements, violations
from repro.datagraph import GraphBuilder
from repro.exceptions import InvalidMappingError
from repro.query import atomic_rpq, reachability_rpq, word_rpq


@pytest.fixture
def people_source():
    """Source graph: person -friend-> person, person -employer-> company."""
    return (
        GraphBuilder(name="people")
        .node("ann", "Ann")
        .node("ben", "Ben")
        .node("cat", "Cat")
        .node("acme", "ACME")
        .edge("ann", "friend", "ben")
        .edge("ben", "friend", "cat")
        .edge("ann", "employer", "acme")
        .build()
    )


@pytest.fixture
def simple_mapping():
    """friend ⟶ knows;  employer ⟶ worksAt.department (a 2-step path)."""
    return GraphSchemaMapping(
        [
            ("friend", "knows"),
            ("employer", "worksAt.department"),
        ],
        name="people-to-org",
    )


class TestMappingConstruction:
    def test_rules_from_pairs_and_objects(self):
        mapping = GraphSchemaMapping(
            [MappingRule(atomic_rpq("a"), word_rpq(["b", "c"])), ("x", "y")]
        )
        assert len(mapping) == 2
        assert mapping.size() == 2
        assert {str(rule.source) for rule in mapping} == {"a", "x"}

    def test_alphabets_inferred(self, simple_mapping):
        assert simple_mapping.source_alphabet == frozenset({"friend", "employer"})
        assert simple_mapping.target_alphabet == frozenset({"knows", "worksAt", "department"})

    def test_explicit_alphabets_added(self):
        mapping = GraphSchemaMapping([("a", "b")], target_alphabet={"extra"})
        assert "extra" in mapping.target_alphabet

    def test_empty_mapping_rejected(self):
        with pytest.raises(InvalidMappingError):
            GraphSchemaMapping([])

    def test_bad_rule_rejected(self):
        with pytest.raises(InvalidMappingError):
            GraphSchemaMapping([42])

    def test_repr_and_pretty(self, simple_mapping):
        assert "2 rules" in repr(simple_mapping)
        assert "friend" in simple_mapping.pretty()


class TestClassification:
    def test_lav_gav(self, simple_mapping):
        assert simple_mapping.is_lav()
        assert not simple_mapping.is_gav()
        gav = GraphSchemaMapping([("a.b", "c")])
        assert gav.is_gav()
        assert not gav.is_lav()

    def test_relational(self, simple_mapping):
        assert simple_mapping.is_relational()
        assert simple_mapping.max_rule_word_length() == 2
        with_star = GraphSchemaMapping([("a", "b*")])
        assert not with_star.is_relational()
        assert with_star.max_rule_word_length() is None

    def test_finite_union_counts_as_relational(self):
        mapping = GraphSchemaMapping([("a", "b | c.d")])
        assert mapping.is_relational()
        assert mapping.max_rule_word_length() == 2

    def test_relational_reachability(self):
        mapping = GraphSchemaMapping(
            [("a", "b"), ("c", "(b|d)*")], target_alphabet={"b", "d"}
        )
        assert mapping.is_relational_reachability()
        assert not mapping.is_relational()
        assert mapping.is_lav_gav_relational_reachability()
        non_member = GraphSchemaMapping([("a", "b.d"), ("c", "(b|d)*")])
        assert non_member.is_relational_reachability()
        assert not non_member.is_lav_gav_relational_reachability()

    def test_restrict_to_relational(self):
        mapping = GraphSchemaMapping([("a", "b"), ("c", "(b|d)*")], target_alphabet={"b", "d"})
        restricted = mapping.restrict_to_relational()
        assert len(restricted) == 1
        only_reach = GraphSchemaMapping([("c", "(b|d)*")], target_alphabet={"b", "d"})
        with pytest.raises(InvalidMappingError):
            only_reach.restrict_to_relational()

    def test_constructors(self):
        lav = lav_mapping({"a": "x.y", "b": "z"})
        assert lav.is_lav()
        gav = gav_mapping([("a.b", "x")])
        assert gav.is_gav()
        copy = copy_mapping(["a", "b"])
        assert copy.is_lav() and copy.is_gav() and copy.is_relational()
        with pytest.raises(InvalidMappingError):
            copy_mapping([])

    def test_rule_helpers(self):
        rule = MappingRule(atomic_rpq("a"), reachability_rpq(["x", "y"]))
        assert rule.is_lav()
        assert not rule.is_gav()
        assert not rule.is_relational()
        assert rule.is_reachability_rule(["x", "y"])
        assert rule.max_target_word_length() is None
        assert "⟶" in str(rule)


class TestSolutionChecking:
    def test_source_requirements(self, simple_mapping, people_source):
        requirements = source_requirements(simple_mapping, people_source)
        friend_rule = next(rule for rule in simple_mapping if str(rule.source) == "friend")
        pairs = {(a.id, b.id) for a, b in requirements[friend_rule]}
        assert pairs == {("ann", "ben"), ("ben", "cat")}

    def test_identity_copy_is_solution_for_copy_mapping(self, people_source):
        mapping = copy_mapping(["friend", "employer"])
        assert is_solution(mapping, people_source, people_source.copy())

    def test_solution_requires_values_not_just_ids(self, simple_mapping, people_source):
        target = (
            GraphBuilder()
            .node("ann", "DIFFERENT")  # wrong data value
            .node("ben", "Ben")
            .node("cat", "Cat")
            .node("acme", "ACME")
            .node("dep", "R&D")
            .edge("ann", "knows", "ben")
            .edge("ben", "knows", "cat")
            .edge("ann", "worksAt", "acme")
            .edge("acme", "department", "dep")
            .build()
        )
        assert not is_solution(simple_mapping, people_source, target)

    def test_valid_solution(self, simple_mapping, people_source):
        target = (
            GraphBuilder()
            .node("ann", "Ann")
            .node("ben", "Ben")
            .node("cat", "Cat")
            .node("acme", "ACME")
            .node("mid", "whatever")
            .edge("ann", "knows", "ben")
            .edge("ben", "knows", "cat")
            .edge("ann", "worksAt", "mid")
            .edge("mid", "department", "acme")
            .build()
        )
        assert is_solution(simple_mapping, people_source, target)
        assert violations(simple_mapping, people_source, target) == []

    def test_violations_are_reported(self, simple_mapping, people_source):
        target = (
            GraphBuilder()
            .node("ann", "Ann")
            .node("ben", "Ben")
            .edge("ann", "knows", "ben")
            .build()
        )
        found = violations(simple_mapping, people_source, target)
        assert found
        assert any("employer" in str(v.rule) or "friend" in str(v.rule) for v in found)
        assert all("missing" in str(v) for v in found)

    def test_empty_source_everything_is_solution(self, simple_mapping):
        empty = GraphBuilder().build()
        assert is_solution(simple_mapping, empty, GraphBuilder().build())


class TestRuleSatisfactionHelpers:
    """The engine-routed satisfaction accessors on MappingRule / GSM."""

    def test_rule_source_and_target_answers(self, simple_mapping, people_source):
        friend_rule = next(rule for rule in simple_mapping if str(rule.source) == "friend")
        obligations = {(a.id, b.id) for a, b in friend_rule.source_answers(people_source)}
        assert obligations == {("ann", "ben"), ("ben", "cat")}
        target = (
            GraphBuilder()
            .node("ann", "Ann")
            .node("ben", "Ben")
            .edge("ann", "knows", "ben")
            .build()
        )
        provided = {(a.id, b.id) for a, b in friend_rule.target_answers(target)}
        assert provided == {("ann", "ben")}
        assert not friend_rule.satisfied_by(people_source, target)  # (ben, cat) missing

    def test_rule_satisfied_when_vacuous_or_covered(self, people_source):
        vacuous = MappingRule(atomic_rpq("unused-label"), atomic_rpq("anything"))
        assert vacuous.satisfied_by(people_source, GraphBuilder().build())
        copy_rule = MappingRule(atomic_rpq("friend"), atomic_rpq("friend"))
        assert copy_rule.satisfied_by(people_source, people_source.copy())

    def test_mapping_is_satisfied_by_matches_is_solution(self, simple_mapping, people_source):
        bad_target = GraphBuilder().build()
        assert simple_mapping.is_satisfied_by(people_source, bad_target) == is_solution(
            simple_mapping, people_source, bad_target
        )
        mapping = copy_mapping(["friend", "employer"])
        assert mapping.is_satisfied_by(people_source, people_source.copy())

    def test_mapping_domain(self, simple_mapping, people_source):
        domain = {node.id for node in mapping_domain(simple_mapping, people_source)}
        assert domain == {"ann", "ben", "cat", "acme"}

    def test_mapping_domain_excludes_unmatched(self, people_source):
        mapping = GraphSchemaMapping([("employer", "worksAt")])
        domain = {node.id for node in mapping_domain(mapping, people_source)}
        assert domain == {"ann", "acme"}
