"""Tests for relational schemas, instances and atom-pattern homomorphisms."""

from __future__ import annotations

import pytest

from repro.exceptions import ReproError
from repro.relational import AtomPattern, Instance, MarkedNull, RelationSchema, Schema, Variable
from repro.relational.conjunctive import homomorphisms
from repro.relational.schema import fresh_null_factory


@pytest.fixture
def people_instance() -> Instance:
    schema = Schema([RelationSchema("knows", 2), RelationSchema("lives", 2)])
    instance = Instance(schema)
    instance.add_fact("knows", ("alice", "bob"))
    instance.add_fact("knows", ("bob", "carol"))
    instance.add_fact("lives", ("alice", "edinburgh"))
    instance.add_fact("lives", ("carol", "edinburgh"))
    return instance


class TestSchema:
    def test_relation_validation(self):
        with pytest.raises(ReproError):
            RelationSchema("", 2)
        with pytest.raises(ReproError):
            RelationSchema("R", -1)

    def test_consistent_redeclaration(self):
        schema = Schema([RelationSchema("R", 2)])
        schema.add(RelationSchema("R", 2))
        with pytest.raises(ReproError):
            schema.add(RelationSchema("R", 3))

    def test_arity_lookup(self):
        schema = Schema([RelationSchema("R", 2)])
        assert schema.arity("R") == 2
        assert schema.has_relation("R")
        assert "R" in schema
        with pytest.raises(ReproError):
            schema.arity("S")

    def test_union(self):
        left = Schema([RelationSchema("R", 2)])
        right = Schema([RelationSchema("S", 1)])
        merged = left.union(right)
        assert set(merged.relation_names()) == {"R", "S"}

    def test_repr(self):
        assert "R/2" in repr(Schema([RelationSchema("R", 2)]))


class TestInstance:
    def test_add_and_query_facts(self, people_instance):
        assert people_instance.has_fact("knows", ("alice", "bob"))
        assert not people_instance.has_fact("knows", ("bob", "alice"))
        assert people_instance.size() == 4

    def test_add_fact_validation(self, people_instance):
        with pytest.raises(ReproError):
            people_instance.add_fact("unknown", ("a",))
        with pytest.raises(ReproError):
            people_instance.add_fact("knows", ("a", "b", "c"))

    def test_duplicate_fact_not_added(self, people_instance):
        assert not people_instance.add_fact("knows", ("alice", "bob"))
        assert people_instance.size() == 4

    def test_active_domain_and_nulls(self, people_instance):
        null = MarkedNull(0)
        people_instance.add_fact("lives", ("bob", null))
        assert null in people_instance.active_domain()
        assert people_instance.nulls() == frozenset({null})

    def test_copy_and_equality(self, people_instance):
        clone = people_instance.copy()
        assert clone == people_instance
        clone.add_fact("knows", ("carol", "alice"))
        assert clone != people_instance
        assert people_instance != 7

    def test_substitute(self, people_instance):
        null = MarkedNull(3)
        people_instance.add_fact("lives", ("bob", null))
        replaced = people_instance.substitute({null: "paris"})
        assert replaced.has_fact("lives", ("bob", "paris"))
        assert not replaced.nulls()

    def test_all_facts_sorted(self, people_instance):
        facts = list(people_instance.all_facts())
        assert ("knows", ("alice", "bob")) in facts
        assert len(facts) == 4

    def test_facts_unknown_relation(self, people_instance):
        with pytest.raises(ReproError):
            people_instance.facts("nope")


class TestMarkedNulls:
    def test_equality_is_by_label(self):
        assert MarkedNull(1) == MarkedNull(1)
        assert MarkedNull(1) != MarkedNull(2)
        assert MarkedNull(1) != "constant"

    def test_factory(self):
        make = fresh_null_factory(5)
        assert make() == MarkedNull(5)
        assert make() == MarkedNull(6)

    def test_repr(self):
        assert "5" in repr(MarkedNull(5))


def _answers(instance, head, atoms):
    """The head tuples of every homomorphism from *atoms* into *instance*."""
    return {tuple(match[v] for v in head) for match in homomorphisms(instance, atoms)}


class TestConjunctiveQueries:
    def test_single_atom(self, people_instance):
        x, y = Variable("x"), Variable("y")
        assert _answers(people_instance, (x, y), [AtomPattern("knows", (x, y))]) == {
            ("alice", "bob"),
            ("bob", "carol"),
        }

    def test_join(self, people_instance):
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        atoms = [AtomPattern("knows", (x, y)), AtomPattern("lives", (y, z))]
        assert _answers(people_instance, (x, z), atoms) == {("bob", "edinburgh")}

    def test_constant_in_atom(self, people_instance):
        x = Variable("x")
        atoms = [AtomPattern("lives", (x, "edinburgh"))]
        assert _answers(people_instance, (x,), atoms) == {("alice",), ("carol",)}

    def test_no_answers(self, people_instance):
        x = Variable("x")
        assert _answers(people_instance, (x,), [AtomPattern("lives", (x, "mars"))]) == set()

    def test_repeated_variable_forces_equality(self, people_instance):
        x = Variable("x")
        atoms = [AtomPattern("knows", (x, x))]
        assert _answers(people_instance, (x,), atoms) == set()
        people_instance.add_fact("knows", ("dave", "dave"))
        assert _answers(people_instance, (x,), atoms) == {("dave",)}
