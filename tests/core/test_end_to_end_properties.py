"""End-to-end property-based tests of the paper's central invariants.

Hypothesis generates small random sources and relational LAV mappings and
checks, across the whole pipeline, the invariants the paper's theorems
assert:

* canonical solutions really are solutions (Sections 7–8);
* the universal solution maps homomorphically into other solutions,
  fixing the domain (Lemma 1);
* data RPQs are preserved along that homomorphism (Proposition 6);
* the SQL-null answers are always contained in the exact ones
  (Theorem 3), and coincide with them for equality-only queries computed
  via least informative solutions (Theorem 5).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import GraphSession
from repro.core import (
    GraphSchemaMapping,
    certain_answers_equality_only,
    certain_answers_naive,
    certain_answers_with_nulls,
    homomorphism_to_solution,
    is_solution,
    least_informative_solution,
    mapping_domain,
    universal_solution,
)
from repro.datagraph import DataGraph, is_null_homomorphism
from repro.query import equality_rpq


@st.composite
def small_source(draw) -> DataGraph:
    """A random source graph with ≤ 4 nodes, ≤ 5 edges and a small value domain."""
    num_nodes = draw(st.integers(min_value=1, max_value=4))
    graph = DataGraph(alphabet={"r", "s"}, name="prop-source")
    for index in range(num_nodes):
        graph.add_node(f"n{index}", draw(st.integers(min_value=0, max_value=2)))
    num_edges = draw(st.integers(min_value=1, max_value=5))
    for _ in range(num_edges):
        source = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        target = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        label = draw(st.sampled_from(["r", "s"]))
        graph.add_edge(f"n{source}", label, f"n{target}")
    return graph


@st.composite
def small_relational_mapping(draw) -> GraphSchemaMapping:
    """A random LAV relational mapping with word targets of length ≤ 2."""
    target_labels = ["t", "u"]
    rules = []
    for label in ("r", "s"):
        length = draw(st.integers(min_value=1, max_value=2))
        word = ".".join(draw(st.sampled_from(target_labels)) for _ in range(length))
        rules.append((label, word))
    return GraphSchemaMapping(rules, target_alphabet=target_labels)


EQUALITY_QUERIES = ["(t)=", "(t.t)=", "(t|u)* . ((t|u)+)= . (t|u)*"]
INEQUALITY_QUERIES = ["(t)!=", "(t.t)!=", "(t.u)!="]


class TestCanonicalSolutionInvariants:
    @given(small_source(), small_relational_mapping())
    @settings(max_examples=60, deadline=None)
    def test_canonical_targets_are_solutions(self, source, mapping):
        universal = universal_solution(mapping, source)
        least = least_informative_solution(mapping, source)
        assert is_solution(mapping, source, universal)
        assert is_solution(mapping, source, least)
        # both contain the mapping domain (the nodes every solution must have)
        domain_ids = {node.id for node in mapping_domain(mapping, source)}
        assert domain_ids <= {node.id for node in universal.nodes}
        assert domain_ids <= {node.id for node in least.nodes}

    @given(small_source(), small_relational_mapping())
    @settings(max_examples=60, deadline=None)
    def test_lemma_1_homomorphism_into_other_solutions(self, source, mapping):
        universal = universal_solution(mapping, source)
        least = least_informative_solution(mapping, source)
        for other in (least, universal.copy()):
            mapping_h = homomorphism_to_solution(universal, other)
            assert mapping_h is not None
            assert is_null_homomorphism(mapping_h, universal, other)
            for node in mapping_domain(mapping, source):
                assert mapping_h[node.id] == node.id

    @given(small_source(), small_relational_mapping(), st.sampled_from(EQUALITY_QUERIES))
    @settings(max_examples=40, deadline=None)
    def test_proposition_6_preservation_along_lemma_1(self, source, mapping, query_text):
        """Answers over the universal solution survive into the least informative one."""
        universal = universal_solution(mapping, source)
        least = least_informative_solution(mapping, source)
        hom = homomorphism_to_solution(universal, least)
        assert hom is not None
        query = equality_rpq(query_text)
        universal_answers = GraphSession(universal).run(query, null_semantics=True).pairs()
        least_answers = GraphSession(least).run(query).pairs()
        for left, right in universal_answers:
            if left.is_null or right.is_null:
                continue
            image = (least.node(hom[left.id]), least.node(hom[right.id]))
            assert image in least_answers


class TestCertainAnswerInvariants:
    @given(small_source(), small_relational_mapping(), st.sampled_from(EQUALITY_QUERIES))
    @settings(max_examples=30, deadline=None)
    def test_theorem_5_exactness_on_equality_queries(self, source, mapping, query_text):
        query = equality_rpq(query_text)
        exact = certain_answers_naive(mapping, source, query, budget=100_000)
        fast = certain_answers_equality_only(mapping, source, query)
        assert exact == fast

    @given(small_source(), small_relational_mapping(), st.sampled_from(INEQUALITY_QUERIES))
    @settings(max_examples=30, deadline=None)
    def test_theorem_3_soundness_on_inequality_queries(self, source, mapping, query_text):
        query = equality_rpq(query_text)
        exact = certain_answers_naive(mapping, source, query, budget=100_000)
        approx = certain_answers_with_nulls(mapping, source, query)
        assert approx <= exact

    @given(small_source(), small_relational_mapping(), st.sampled_from(EQUALITY_QUERIES))
    @settings(max_examples=30, deadline=None)
    def test_nulls_never_exceed_equality_only(self, source, mapping, query_text):
        query = equality_rpq(query_text)
        approx = certain_answers_with_nulls(mapping, source, query)
        fast = certain_answers_equality_only(mapping, source, query)
        assert approx <= fast
