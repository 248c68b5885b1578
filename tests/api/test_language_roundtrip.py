"""Acceptance property: every language round-trips through the session.

For random graphs, ``Query.<lang>(...)`` → ``GraphSession.run`` must
return exactly the answers of the naive/spec evaluators:

* RPQs against the seed per-source BFS (``evaluate_rpq_naive``);
* data RPQs (REE and REM) against the seed register-automaton BFS
  (``evaluate_data_rpq_naive``);
* CRPQs against an independent brute-force join over naive atom
  relations;
* GXPath node/path expressions against the Figure-1 set semantics.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import GraphSession, Query
from repro.datagraph import generators
from repro.gxpath import evaluation as gxpath_evaluation
from repro.query import (
    Atom,
    ConjunctiveRPQ,
    equality_rpq,
    evaluate_data_rpq_naive,
    evaluate_rpq_naive,
    memory_rpq,
    rpq,
)

pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")

RPQ_TEXTS = ["a", "a.b", "(a|b)*", "a.(a|b)*.b", "(a.b)+", "b*.a"]
REE_TEXTS = ["(a)=", "(a.b)=", "(a|b)* . ((a|b)+)= . (a|b)*", "((a.b)+)!="]
REM_TEXTS = ["!x.(a[x=])", "!x.((a|b)[x!=])+", "!x.(a.b[x=])+"]
GXPATH_NODE_TEXTS = ["<a>", "<a.[<b>]>", "~<a.b>", "<(a.b)=>"]
GXPATH_PATH_TEXTS = ["a", "a-.b", "a* . (b)!=", "[<a>].b"]

graphs = st.builds(
    lambda size, seed: generators.random_graph(
        size, size * 2, labels=("a", "b"), rng=seed, domain_size=3
    ),
    size=st.integers(min_value=2, max_value=14),
    seed=st.integers(min_value=0, max_value=10_000),
)


@settings(max_examples=25, deadline=None)
@given(graph=graphs, text=st.sampled_from(RPQ_TEXTS))
def test_rpq_roundtrip_matches_naive(graph, text):
    via_session = GraphSession(graph).run(Query.rpq(text)).pairs()
    assert via_session == evaluate_rpq_naive(graph, rpq(text))


@settings(max_examples=25, deadline=None)
@given(graph=graphs, text=st.sampled_from(REE_TEXTS))
def test_ree_roundtrip_matches_naive(graph, text):
    via_session = GraphSession(graph).run(Query.parse(text, "ree")).pairs()
    assert via_session == evaluate_data_rpq_naive(graph, equality_rpq(text))


@settings(max_examples=15, deadline=None)
@given(graph=graphs, text=st.sampled_from(REM_TEXTS))
def test_rem_roundtrip_matches_naive(graph, text):
    via_session = GraphSession(graph).run(Query.parse(text, "rem")).pairs()
    assert via_session == evaluate_data_rpq_naive(graph, memory_rpq(text))


def _crpq_spec(graph, query):
    """Brute-force CRPQ semantics: try every assignment of variables."""
    relations = {}
    for atom in query.atoms:
        if isinstance(atom.query, type(rpq("a"))):
            relations[atom] = evaluate_rpq_naive(graph, atom.query)
        else:
            relations[atom] = evaluate_data_rpq_naive(graph, atom.query)
    variables = sorted(query.variables())
    answers = set()
    for assignment in itertools.product(graph.nodes, repeat=len(variables)):
        binding = dict(zip(variables, assignment))
        if all(
            (binding[atom.source], binding[atom.target]) in relations[atom]
            for atom in query.atoms
        ):
            answers.add(tuple(binding[variable] for variable in query.head))
    return frozenset(answers)


@settings(max_examples=10, deadline=None)
@given(
    graph=st.builds(
        lambda seed: generators.random_graph(5, 10, labels=("a", "b"), rng=seed, domain_size=3),
        seed=st.integers(min_value=0, max_value=500),
    ),
    shape=st.sampled_from(
        [
            (("x", "z"), (("x", "a", "y"), ("y", "b", "z"))),
            (("x",), (("x", "(a|b)*", "y"), ("y", "a", "x"))),
            ((), (("x", "a", "y"),)),
        ]
    ),
    with_data_atom=st.booleans(),
)
def test_crpq_roundtrip_matches_bruteforce(graph, shape, with_data_atom):
    head, triples = shape
    atoms = [Atom(source, rpq(text), target) for source, text, target in triples]
    if with_data_atom:
        atoms.append(Atom("x", equality_rpq("((a|b)+)="), "y"))
    query = ConjunctiveRPQ(tuple(head), tuple(atoms))
    via_session = GraphSession(graph).run(Query.crpq(query)).rows()
    assert via_session == _crpq_spec(graph, query)


@settings(max_examples=20, deadline=None)
@given(graph=graphs, text=st.sampled_from(GXPATH_NODE_TEXTS))
def test_gxpath_node_roundtrip_matches_figure1(graph, text):
    query = Query.parse(text, "gxpath-node")
    via_session = GraphSession(graph).run(query).nodes()
    assert via_session == gxpath_evaluation.evaluate_node(graph, query.plan)


@settings(max_examples=20, deadline=None)
@given(graph=graphs, text=st.sampled_from(GXPATH_PATH_TEXTS))
def test_gxpath_path_roundtrip_matches_figure1(graph, text):
    query = Query.parse(text, "gxpath-path")
    via_session = GraphSession(graph).run(query).pairs()
    assert via_session == gxpath_evaluation.evaluate_path(graph, query.plan)
