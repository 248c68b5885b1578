"""Tests for scenario bundles and random workload sweeps."""

from __future__ import annotations

import pytest

from repro.core import is_solution, universal_solution
from repro.exceptions import WorkloadError
from repro.workloads import (
    CRPQ_SHAPES,
    multi_community_scenario,
    provenance_scenario,
    random_crpq,
    random_equality_query,
    random_relational_mapping,
    social_network_scenario,
    workload_sweep,
)


class TestScenarios:
    @pytest.mark.parametrize(
        "builder,kwargs",
        [
            (social_network_scenario, {"num_people": 8, "rng": 1}),
            (provenance_scenario, {"chain_length": 4, "num_chains": 2, "rng": 1}),
            (multi_community_scenario, {"num_communities": 3, "community_size": 4, "rng": 1}),
        ],
    )
    def test_scenarios_are_well_formed(self, builder, kwargs):
        scenario = builder(**kwargs)
        assert scenario.source.num_nodes > 0
        assert scenario.mapping.is_relational()
        assert scenario.all_queries()
        assert scenario.name in scenario.describe()
        # the universal solution of the bundled mapping is a genuine solution
        target = universal_solution(scenario.mapping, scenario.source)
        assert is_solution(scenario.mapping, scenario.source, target)
        # query alphabets stay within the target alphabet
        for query in scenario.all_queries().values():
            labels = query.letters() if hasattr(query, "letters") else query.labels()
            assert labels <= scenario.mapping.target_alphabet

    def test_scenarios_are_deterministic_in_seed(self):
        first = social_network_scenario(num_people=10, rng=5)
        second = social_network_scenario(num_people=10, rng=5)
        assert first.source == second.source

    def test_parameter_validation(self):
        with pytest.raises(WorkloadError):
            social_network_scenario(num_people=1)
        with pytest.raises(WorkloadError):
            provenance_scenario(chain_length=1)
        with pytest.raises(WorkloadError):
            multi_community_scenario(num_communities=1)

    def test_multi_community_scenario_splits_into_community_blocks(self):
        """The bundled graph's contiguous id ranges recover the communities."""
        scenario = multi_community_scenario(num_communities=4, community_size=5, rng=3)
        nodes = scenario.source.label_index().nodes
        assert len(nodes) == 20
        for start in range(0, 20, 5):
            block = nodes[start:start + 5]
            assert len({str(node).split("n")[0] for node in block}) == 1


class TestRandomWorkloads:
    def test_random_relational_mapping(self):
        mapping = random_relational_mapping(["r", "s"], ["t", "u"], max_word_length=3, rng=2)
        assert mapping.is_lav()
        assert mapping.is_relational()
        assert mapping.max_rule_word_length() <= 3
        with pytest.raises(WorkloadError):
            random_relational_mapping([], ["t"])
        with pytest.raises(WorkloadError):
            random_relational_mapping(["r"], ["t"], max_word_length=0)

    def test_random_equality_query_shapes(self):
        assert random_equality_query(["t"], test="equal", rng=1).uses_inequality() is False
        assert random_equality_query(["t"], test="unequal", rng=1).uses_inequality() is True
        repeat = random_equality_query(["t", "u"], test="repeat", rng=1)
        assert not repeat.is_data_path_query()
        plain = random_equality_query(["t"], test="plain", rng=1)
        assert plain.is_data_path_query()
        with pytest.raises(WorkloadError):
            random_equality_query([], test="equal")
        with pytest.raises(WorkloadError):
            random_equality_query(["t"], test="bogus")

    def test_workload_sweep_is_deterministic(self):
        first = list(workload_sweep([4, 6], seed=9))
        second = list(workload_sweep([4, 6], seed=9))
        assert len(first) == len(second) == 2
        for left, right in zip(first, second):
            assert left.source == right.source
            assert left.name == right.name
            assert str(left.query) == str(right.query)
            assert left.parameters["nodes"] == right.parameters["nodes"]

    @pytest.mark.parametrize("shape", CRPQ_SHAPES)
    def test_random_crpq_shapes_are_well_formed(self, shape):
        query = random_crpq(
            ("a", "b"), shape=shape, num_atoms=4, head_arity=2,
            data_atom_prob=0.3, closure_prob=0.3, self_loop_prob=0.5, rng=5,
        )
        assert len(query.atoms) >= 4  # self-loops only ever add atoms
        assert len(query.head) <= 2
        assert set(query.head) <= query.variables()
        for atom in query.atoms:
            labels = (
                atom.query.labels() if hasattr(atom.query, "labels") else atom.query.letters()
            )
            assert labels <= {"a", "b"}

    def test_random_crpq_shapes_have_their_structure(self):
        chain = random_crpq(("a",), shape="chain", num_atoms=3, rng=1)
        assert [(atom.source, atom.target) for atom in chain.atoms] == [
            ("x0", "x1"), ("x1", "x2"), ("x2", "x3"),
        ]
        cycle = random_crpq(("a",), shape="cycle", num_atoms=3, rng=1)
        assert cycle.atoms[-1].target == "x0"
        star = random_crpq(("a",), shape="star", num_atoms=4, rng=1)
        assert all(atom.source == "x0" for atom in star.atoms)
        disjoint = random_crpq(("a",), shape="disjoint", num_atoms=4, head_arity=2, rng=1)
        assert disjoint.head == ("x0", "y0")
        variables = disjoint.variables()
        assert any(v.startswith("y") for v in variables)

    def test_random_crpq_options(self):
        boolean = random_crpq(("a",), head_arity=0, rng=2)
        assert boolean.is_boolean()
        pinned = random_crpq(("a", "b"), first_atom="b", rng=2)
        assert str(pinned.atoms[0].query.expression) == "b"
        assert random_crpq(("a", "b"), rng=9) == random_crpq(("a", "b"), rng=9)
        with pytest.raises(WorkloadError):
            random_crpq((), rng=1)
        with pytest.raises(WorkloadError):
            random_crpq(("a",), shape="bogus")
        with pytest.raises(WorkloadError):
            random_crpq(("a",), num_atoms=0)

    def test_workload_pieces_fit_together(self):
        for workload in workload_sweep([5], seed=3, query_test="unequal"):
            assert workload.mapping.is_relational()
            target = universal_solution(workload.mapping, workload.source)
            assert is_solution(workload.mapping, workload.source, target)
            assert workload.query.labels() <= workload.mapping.target_alphabet
