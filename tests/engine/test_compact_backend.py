"""Property suite: the compact CSR backend against the dict kernels.

For random graphs and pools of queries in every dialect, evaluation over
the :class:`~repro.datagraph.compact.CompactLabelIndex` must return
byte-identical answers to the dict-backed kernels — and, where a naive
executable specification exists, to that as well.  Seeded (semijoin)
evaluation, the forked ``blocks`` driver, empty graphs and
one-source-per-block splits are covered explicitly: the compact
backend is an *optimisation*, so any divergence anywhere is a bug.
"""

from __future__ import annotations

import dataclasses

import pytest
from conftest import REM_ASTS, regex_strategy, tricky_graphs
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy, GraphSession, Query
from repro.datagraph import GraphBuilder, generators
from repro.datagraph.compact import CompactLabelIndex
from repro.datagraph.index import LabelIndex
from repro.datapaths.fragments import is_scoped, regex_to_rem
from repro.datapaths.ree import (
    ReeConcat,
    ReeEpsilon,
    ReeEqualTest,
    ReeLetter,
    ReeNotEqualTest,
    ReePlus,
    ReeUnion,
)
from repro.engine import compact as compact_kernels
from repro.engine import data as data_kernels
from repro.engine import default_engine
from repro.engine.bitrelation import BitRelation
from repro.engine.partition import parallel_product_relation
from repro.engine.spaces import NfaProductSpace
from repro.exceptions import EvaluationError, UnboundVariableError
from repro.planner.router import route_point
from repro.query import (
    DataRPQ,
    evaluate_crpq_naive,
    evaluate_data_rpq_naive,
    evaluate_rpq_naive,
    rpq,
)
from repro.regular import EPSILON, Concat, Letter, Plus, Star, Union, parse_regex

RPQ_POOL = [
    "a",
    "b.a",
    "(a|b)*",
    "a.(a|b)*.b",
    "(a.b)+",
    "a*|b*",
]

DATA_POOL = [  # (text, dialect)
    ("((a|b))=", "ree"),
    ("((a|b)+)=", "ree"),
    ("!x.(a[x=])+", "rem"),
    ("!x.((a|b)[x!=])+", "rem"),
    ("!x. a[x!=] . b[x=]", "rem"),
]

CRPQ_POOL = [
    "x, y :- (x, a, z), (z, b, y)",
    "x, y :- (x, a.(a|b)*, z), (z, b, y)",
    "x :- (x, (a|b)+, x)",
]

GXPATH_PATH_POOL = ["a.b", "a*", "a*.b", "(a*)=", "(a.b)!="]
GXPATH_NODE_POOL = ["<a.b>", "<a*>", "<b*.a>"]


def random_graph_from(seed: int, size: int):
    return generators.random_graph(
        num_nodes=size,
        num_edges=size * 2,
        labels=("a", "b"),
        rng=seed,
        domain_size=max(2, size // 3),
    )


def forced_route(graph, backend: str):
    """The resolved route of a forced kernel family."""
    return route_point(graph, ExecutionPolicy(backend=backend))


def sessions(graph):
    return (
        GraphSession(graph, policy=ExecutionPolicy(backend="compact")),
        GraphSession(graph, policy=ExecutionPolicy(backend="dict")),
    )


# ----------------------------------------------------------------------
# All dialects: compact session == dict session (== naive spec)
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=1, max_value=40),
    query_index=st.integers(min_value=0, max_value=len(RPQ_POOL) - 1),
)
def test_rpq_compact_matches_dict_and_naive(seed, size, query_index):
    graph = random_graph_from(seed, size)
    text = RPQ_POOL[query_index]
    compact_session, dict_session = sessions(graph)
    compact_pairs = compact_session.run(text).pairs()
    assert compact_pairs == dict_session.run(text).pairs()
    assert compact_pairs == evaluate_rpq_naive(graph, rpq(text))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=1, max_value=30),
    query_index=st.integers(min_value=0, max_value=len(DATA_POOL) - 1),
    null_semantics=st.booleans(),
)
def test_data_rpq_compact_matches_dict_and_naive(seed, size, query_index, null_semantics):
    graph = random_graph_from(seed, size)
    text, dialect = DATA_POOL[query_index]
    query = Query.parse(text, dialect=dialect)
    compact_session, dict_session = sessions(graph)
    compact_pairs = compact_session.run(query, null_semantics=null_semantics).pairs()
    assert compact_pairs == dict_session.run(query, null_semantics=null_semantics).pairs()
    assert compact_pairs == evaluate_data_rpq_naive(graph, query.plan, null_semantics)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=1, max_value=20),
    query_index=st.integers(min_value=0, max_value=len(CRPQ_POOL) - 1),
)
def test_crpq_compact_matches_dict_and_naive(seed, size, query_index):
    graph = random_graph_from(seed, size)
    query = Query.parse(CRPQ_POOL[query_index], dialect="crpq")
    compact_session, dict_session = sessions(graph)
    compact_rows = compact_session.run(query).rows()
    assert compact_rows == dict_session.run(query).rows()
    assert compact_rows == evaluate_crpq_naive(graph, query.plan)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=1, max_value=30),
    path_index=st.integers(min_value=0, max_value=len(GXPATH_PATH_POOL) - 1),
    node_index=st.integers(min_value=0, max_value=len(GXPATH_NODE_POOL) - 1),
)
def test_gxpath_compact_matches_dict(seed, size, path_index, node_index):
    graph = random_graph_from(seed, size)
    compact_session, dict_session = sessions(graph)
    path_query = Query.parse(GXPATH_PATH_POOL[path_index], dialect="gxpath-path")
    assert compact_session.run(path_query).pairs() == dict_session.run(path_query).pairs()
    node_query = Query.parse(GXPATH_NODE_POOL[node_index], dialect="gxpath-node")
    assert compact_session.run(node_query).nodes() == dict_session.run(node_query).nodes()


# ----------------------------------------------------------------------
# The interned register product: the per-value memo must not change answers
# ----------------------------------------------------------------------
REGISTER_POOL = [  # several registers, stores over a bound register, multi-binds
    ("!x.(a|b).!y.((a|b)[x!= && y!=])+", "rem"),
    ("(!x.(a|b)[x!=])+", "rem"),
    ("!x.a.!x.(b[x=])", "rem"),
    ("!x,y.(a[x=] | b[y!=])+", "rem"),
    ("!x.((a|b)+[x=]).!y.((a|b)[y!= || x=])", "rem"),
    ("((a|b)+)!=", "ree"),
    ("(a.((a|b))=)!=", "ree"),
]

NAN = float("nan")
@settings(max_examples=60, deadline=None)
@given(
    graph=tricky_graphs(),
    query_index=st.integers(min_value=0, max_value=len(REGISTER_POOL) - 1),
    null_semantics=st.booleans(),
    data=st.data(),
)
def test_register_product_on_tricky_values(graph, query_index, null_semantics, data):
    text, dialect = REGISTER_POOL[query_index]
    query = Query.parse(text, dialect=dialect)
    expected = evaluate_data_rpq_naive(graph, query.plan, null_semantics)
    compact_session, dict_session = sessions(graph)
    assert compact_session.run(query, null_semantics=null_semantics).pairs() == expected
    assert dict_session.run(query, null_semantics=null_semantics).pairs() == expected
    # Seeded scans, and the one-pair form built on them.
    engine = default_engine()
    ids = list(graph.node_ids)
    sources = set(data.draw(st.lists(st.sampled_from(ids), max_size=4)))
    targets = set(data.draw(st.lists(st.sampled_from(ids), max_size=4)))
    expected_ids = {(source.id, target.id) for source, target in expected}
    for bound_sources in (None, sources):
        for bound_targets in (None, targets):
            wanted = {
                (source, target)
                for source, target in expected_ids
                if (bound_sources is None or source in bound_sources)
                and (bound_targets is None or target in bound_targets)
            }
            for backend in ("compact", "dict"):
                assert wanted == engine.evaluate_atom_ids(
                    graph, query.plan, sources=bound_sources, targets=bound_targets,
                    null_semantics=null_semantics, route=forced_route(graph, backend),
                ), (backend, bound_sources, bound_targets)
    source, target = data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids))
    one_pair = engine.evaluate_atom_ids(
        graph, query.plan, sources=(source,), targets={target}, null_semantics=null_semantics
    )
    assert bool(one_pair) == ((source, target) in expected_ids)


# ----------------------------------------------------------------------
# The REE algebra on bit rows: any expression, either index, tricky values
# ----------------------------------------------------------------------
#: ε, the graph's two letters and one it never carries, under every
#: operator: tests nest, ``+`` wraps tested inners, unions mix them all.
REE_ASTS = st.recursive(
    st.just(ReeEpsilon()) | st.sampled_from("abc").map(ReeLetter),
    lambda inner: st.one_of(
        st.builds(ReeConcat, inner, inner),
        st.builds(ReeUnion, inner, inner),
        st.builds(ReePlus, inner),
        st.builds(ReeEqualTest, inner),
        st.builds(ReeNotEqualTest, inner),
    ),
    max_leaves=6,
)


def grown_index(graph):
    """*graph*'s dict index after an insert-only batch: the index is
    patched, its ordering grows and the appended values join (1.0) or
    refuse (NaN) old classes — classes the patched snapshot derives for
    itself, not the base's."""
    dict_index = graph.label_index()
    stale = dict_index.value_classes
    with graph.batch() as batch:
        batch.add_node("late", 1.0)
        batch.add_node("later", NAN)
        batch.add_edge("n0", "a", "late")
        batch.add_edge("late", "b", "later")
        batch.add_edge("later", "a", "n0")
    dict_index = LabelIndex.patched(dict_index, graph.journal.deltas()[-1])
    assert dict_index.nodes[-2:] == ("late", "later")
    assert dict_index.value_classes is dict_index.value_classes is not stale
    return dict_index


@pytest.mark.parametrize("change", ["edge", "node", "value", "removal"])
def test_a_batch_carries_the_csr_rows_it_left_alone(change):
    """The snapshot after a journaled batch equals a fresh build, and
    shares the previous snapshot's rows of every label the batch touched
    no edge of — and, when no value changed, its ``Node`` objects."""
    graph = (
        GraphBuilder()
        .node("n0", 1).node("n1", 2).node("n2", 1).node("n3", 3)
        .edge("n0", "a", "n1").edge("n1", "a", "n2").edge("n2", "b", "n3").edge("n3", "b", "n0")
        .build()
    )
    before = graph.compact_index()
    column = before.node_objects
    with graph.batch() as batch:
        if change == "edge":
            batch.add_edge("n0", "a", "n3")
        elif change == "node":
            batch.add_node("late", 4)
            batch.add_edge("late", "a", "n0")
        elif change == "value":
            batch.set_value("n1", 9)
        else:
            batch.remove_node("n3")
    after = graph.compact_index()
    fresh = CompactLabelIndex.from_label_index(graph.label_index())
    assert (after.nodes, after.values) == (fresh.nodes, fresh.values)
    assert after.node_objects == fresh.node_objects
    assert after.forward == fresh.forward and after.backward == fresh.backward
    if change == "removal":  # the ordering changed: built afresh
        assert after.forward["a"][1] is not before.forward["a"][1]
        return
    carried = "b" if change in ("edge", "node") else "a"
    assert after.forward[carried][1] is before.forward[carried][1]
    assert (after.forward[carried] is before.forward[carried]) == (change != "node")
    shared = all(new is old for new, old in zip(after.node_objects, column))
    assert shared == (change != "value")


@settings(max_examples=120, deadline=None)
@given(
    graph=tricky_graphs(),
    expression=REE_ASTS,
    null_semantics=st.booleans(),
    grown=st.booleans(),
)
def test_ree_bit_rows_match_naive_and_the_register_kernel(
    graph, expression, null_semantics, grown
):
    dict_index = grown_index(graph) if grown else graph.label_index()
    query = DataRPQ(expression)
    naive = evaluate_data_rpq_naive(graph, query, null_semantics)
    expected = {(source.id, target.id) for source, target in naive}
    rows = None
    for index in (dict_index, CompactLabelIndex.from_label_index(dict_index)):
        relation = data_kernels.ree_relation(index, expression, null_semantics)
        assert relation.id_pairs() == expected
        assert all(relation.rows.values())  # rows never hold an empty mask
        assert rows is None or relation.rows == rows  # one algebra, either index
        rows = relation.rows
    engine = default_engine()
    for backend in ("compact", "dict"):
        route = forced_route(graph, backend)
        for strategy in ("algebraic", "automaton"):
            assert naive == engine.evaluate_data_rpq(
                graph, query, null_semantics, engine=strategy, route=route
            ), (backend, strategy)
    # An atom scan with bound targets and unbound sources selects rows.
    targets = set(dict_index.nodes[::2])
    bound = engine.atom_bits(
        graph, query, forced_route(graph, "compact"), targets=targets, null_semantics=null_semantics
    )
    assert bound.id_pairs() == {pair for pair in expected if pair[1] in targets}


# ----------------------------------------------------------------------
# The same algebra on REMs: registers as origin masks, or the register product
# ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    graph=tricky_graphs(),
    expression=REM_ASTS,
    null_semantics=st.booleans(),
    grown=st.booleans(),
    data=st.data(),
)
def test_rem_bit_rows_match_naive_and_the_register_kernel(
    graph, expression, null_semantics, grown, data
):
    dict_index = grown_index(graph) if grown else graph.label_index()
    query = DataRPQ(expression)
    engine = default_engine()
    routes = [forced_route(graph, backend) for backend in ("compact", "dict")]
    try:
        naive = evaluate_data_rpq_naive(graph, query, null_semantics)
    except UnboundVariableError:
        # An unbound read some run reaches: never the algebra's, and the
        # register product raises what it always did.
        assert not is_scoped(expression) and not null_semantics
        for route in routes:
            with pytest.raises(UnboundVariableError):
                engine.evaluate_data_rpq(graph, query, null_semantics, route=route)
        return
    expected = {(source.id, target.id) for source, target in naive}
    ids = list(dict_index.nodes)
    sources = set(data.draw(st.lists(st.sampled_from(ids), max_size=4)))
    targets = set(data.draw(st.lists(st.sampled_from(ids), max_size=4)))

    def wanted(bound_sources, bound_targets):
        return {
            (source, target)
            for source, target in expected
            if (bound_sources is None or source in bound_sources)
            and (bound_targets is None or target in bound_targets)
        }

    if is_scoped(expression):
        for bound_sources in (None, sources):
            rows = None
            for index in (dict_index, CompactLabelIndex.from_label_index(dict_index)):
                relation = data_kernels.ree_relation(
                    index, expression, null_semantics, bound_sources
                )
                assert relation.id_pairs() == wanted(bound_sources, None)
                assert all(relation.rows.values())  # rows never hold an empty mask
                assert rows is None or relation.rows == rows  # one algebra, either index
                rows = relation.rows
    else:
        with pytest.raises(EvaluationError, match="scoped expressions only"):
            data_kernels.ree_relation(dict_index, expression, null_semantics)
    for route in routes:
        for strategy in ("auto", "automaton"):
            assert naive == engine.evaluate_data_rpq(
                graph, query, null_semantics, engine=strategy, route=route
            ), (route.kernel, strategy)
        for bound_sources in (None, sources):
            for bound_targets in (None, targets):
                assert wanted(bound_sources, bound_targets) == engine.evaluate_atom_ids(
                    graph, query, sources=bound_sources, targets=bound_targets,
                    null_semantics=null_semantics, route=route,
                ), (route.kernel, bound_sources, bound_targets)


def test_ree_memo_is_structural(monkeypatch):
    """``(a+)= | (a+)!=`` holds two equal ``a+`` sub-trees (distinct
    objects): the closure under them is evaluated once."""
    calls = []
    closure = data_kernels._closure

    def counting(step, first, successors):
        calls.append(first)
        return closure(step, first, successors)

    monkeypatch.setattr(data_kernels, "_closure", counting)
    graph = random_graph_from(4, 20)
    query = Query.parse("((a)+)= | ((a)+)!=", dialect="ree").plan
    union = query.expression
    assert union.left.inner == union.right.inner and union.left.inner is not union.right.inner
    relation = data_kernels.ree_relation(graph.compact_index(), union)
    assert len(calls) == 1
    plain = {(source.id, target.id) for source, target in evaluate_rpq_naive(graph, rpq("a+"))}
    assert relation.id_pairs() == plain  # = and ≠ partition a+ (no NaN here)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    query_index=st.integers(min_value=0, max_value=len(REGISTER_POOL) - 1),
    null_semantics=st.booleans(),
)
def test_register_product_on_forked_block_workers(seed, query_index, null_semantics):
    """Each forked worker runs the register product over its own source block."""
    graph = random_graph_from(seed, 24)
    text, dialect = REGISTER_POOL[query_index]
    query = Query.parse(text, dialect=dialect)
    space = default_engine().space_for_atom(graph, query.plan, null_semantics)
    expected = evaluate_data_rpq_naive(graph, query.plan, null_semantics)
    forked = parallel_product_relation(space, num_blocks=3, backend="fork")
    assert forked == {(source.id, target.id) for source, target in expected}


@pytest.mark.parametrize(
    "policy",
    [
        ExecutionPolicy(backend="compact"),
        ExecutionPolicy(backend="dict"),
        ExecutionPolicy(intra_query="blocks", max_workers=2),
        ExecutionPolicy(intra_query="blocks", max_workers=5),
    ],
    ids=["compact", "dict", "blocks", "blocks-5"],
)
def test_unbound_register_raises_on_every_route(policy):
    """The memo must neither swallow nor cache the error: it surfaces on
    the first run and again on a re-run, and null semantics still turns
    the unbound comparison into plain falsity."""
    graph = random_graph_from(3, 12)
    query = Query.parse("!x.((a|b)[x= || x!=]).((a|b)[y!=])", dialect="rem")
    session = GraphSession(graph, policy=policy)
    for _ in range(2):
        with pytest.raises(UnboundVariableError, match="unbound register 'y'"):
            session.run(query).pairs()
    assert session.run(query, null_semantics=True).pairs() == frozenset()
    assert evaluate_data_rpq_naive(graph, query.plan, True) == frozenset()


# ----------------------------------------------------------------------
# Bit-row relations: what the kernels hand back, and the one decoder
# ----------------------------------------------------------------------
def bit_walk_pairs(relation: BitRelation, names):
    """The reference decoder: one ``bit_length`` walk per pair (what the
    kernels' five hand-written decode loops did)."""
    pairs = set()
    for at, mask in relation.rows.items():
        while mask:
            low = mask & -mask
            pairs.add((names[low.bit_length() - 1], names[at]))
            mask ^= low
    return pairs


def restricted(pairs, sources, targets):
    return {
        (source, target)
        for source, target in pairs
        if (sources is None or source in sources) and (targets is None or target in targets)
    }


def assert_decodes_to(relation: BitRelation, compact, expected_nodes):
    """Every view of *relation* agrees with the ``Node``-pair set *expected_nodes*."""
    expected_ids = {(source.id, target.id) for source, target in expected_nodes}
    id_pairs = relation.id_pairs()
    assert isinstance(id_pairs, frozenset)
    assert id_pairs == bit_walk_pairs(relation, compact.nodes) == expected_ids
    node_pairs = relation.node_pairs(compact.node_objects)
    assert node_pairs == bit_walk_pairs(relation, compact.node_objects) == expected_nodes
    assert relation.count() == len(id_pairs) == len(node_pairs)
    assert all(relation.rows.values())  # rows never hold an empty mask


def drawn_restrictions(data, graph):
    """``(sources, targets)`` draws: unrestricted, bound, and bound to
    ids the graph does not have."""
    ids = list(graph.node_ids)
    bound = st.none() | st.sets(st.sampled_from(ids + ["absent"]), max_size=6)
    return data.draw(bound), data.draw(bound)


#: graph sizes beyond one and two 64-bit limbs ride along the small ones
SIZES = st.integers(min_value=1, max_value=40) | st.sampled_from([65, 70, 129, 140])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=SIZES,
    query_index=st.integers(min_value=0, max_value=len(RPQ_POOL) - 1),
    data=st.data(),
)
def test_nfa_bit_rows_decode_to_the_naive_relation(seed, size, query_index, data):
    graph = random_graph_from(seed, size)
    compact = graph.compact_index()
    query = rpq(RPQ_POOL[query_index])
    sources, targets = drawn_restrictions(data, graph)
    relation = compact_kernels.nfa_relation(
        compact,
        default_engine().compile_rpq(query),
        sources=None if sources is None else sorted(sources),
        targets=targets,
    )
    naive = evaluate_rpq_naive(graph, query)
    expected = {
        pair for pair in naive
        if (sources is None or pair[0].id in sources) and (targets is None or pair[1].id in targets)
    }
    assert_decodes_to(relation, compact, expected)
    # restrict ∘ decode == filter ∘ decode, from the unrestricted rows
    full = compact_kernels.nfa_relation(compact, default_engine().compile_rpq(query))
    assert full.restrict(sources, targets).id_pairs() == restricted(
        full.id_pairs(), sources, targets
    )
    assert full.restrict(sources, targets).count() == len(expected)


#: Shapes the smart constructors simplify away: ε, nested stars, a closure
#: of ε, union with ε, ε factors, and a label the graphs never carry.
RAW_RPQS = [
    EPSILON,
    Star(Star(Letter("a"))),
    Plus(Star(Union(Letter("a"), Letter("b")))),
    Star(EPSILON),
    Union(EPSILON, Letter("a")),
    Concat(Union(Letter("b"), EPSILON), Concat(EPSILON, Star(Letter("a")))),
    Concat(Letter("c"), Star(Letter("a"))),
    Union(Letter("c"), Plus(Letter("c"))),
]


@settings(max_examples=150, deadline=None)
@given(
    graph=tricky_graphs(),
    expression=regex_strategy() | st.sampled_from(RAW_RPQS),
    data=st.data(),
)
def test_rpq_bit_rows_on_the_algebra_match_naive_and_the_nfa_kernel(graph, expression, data):
    """An RPQ is the REM with no registers: the algebra's rows, full and
    seeded, over either index, are the NFA kernel's, bit for bit, and
    decode to the naive relation."""
    expected = {(source.id, target.id) for source, target in evaluate_rpq_naive(graph, expression)}
    rem = regex_to_rem(expression)
    dict_index = graph.label_index()
    compact = CompactLabelIndex.from_label_index(dict_index)
    automaton = default_engine().compile_rpq(expression)
    ids = list(dict_index.nodes) + ["absent"]
    drawn = data.draw(st.sets(st.sampled_from(ids), max_size=4))
    for sources in (None, drawn):
        wanted = restricted(expected, sources, None)
        nfa = compact_kernels.nfa_relation(
            compact, automaton, sources=None if sources is None else sorted(sources)
        )
        assert nfa.id_pairs() == wanted
        for index in (dict_index, compact):
            relation = data_kernels.ree_relation(index, rem, sources=sources)
            assert relation.id_pairs() == wanted
            assert relation.rows == nfa.rows  # bit-identical, not just equal as pairs


def test_a_closure_against_the_index_order_is_the_chains():
    """``next+`` on a 1,200-node chain whose edges all point against the
    index order (where a FIFO worklist needs one pass per level) is the
    chain's closure, full and seeded: every node reaches all before it."""
    size = 1200
    builder = GraphBuilder(name="reversed-chain")
    for i in range(size):
        builder.node(i, 0)
    for i in range(1, size):
        builder.edge(i, "next", i - 1)
    graph = builder.build()
    compact = graph.compact_index()
    expected, reaching = {}, 0
    for i in reversed(range(size)):  # the sources of i: every node after it
        if reaching:
            expected[compact.position[i]] = reaching
        reaching |= 1 << compact.position[i]
    rem = regex_to_rem(parse_regex("next+"))
    for index in (graph.label_index(), compact):
        assert data_kernels.ree_relation(index, rem).rows == expected
    assert data_kernels.ree_relation(compact, rem, sources=[size - 1]).rows == {
        at: 1 << compact.position[size - 1] for at, _mask in expected.items()
    }


def test_a_plain_rpq_never_reads_the_value_classes():
    """Only a test reads values: RPQs (full, seeded, in a CRPQ) leave the
    |V|²/16-byte value-class table of either index unbuilt."""
    graph = random_graph_from(7, 40)
    crpq = Query.parse(CRPQ_POOL[1], dialect="crpq")
    for backend in ("compact", "dict"):
        session = GraphSession(graph, policy=ExecutionPolicy(backend=backend))
        assert session.run("a.(a|b)*.b").pairs() == evaluate_rpq_naive(graph, rpq("a.(a|b)*.b"))
        session.run(crpq).rows()
    assert graph.compact_index()._value_classes is None
    assert graph.label_index()._value_classes is None


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=SIZES,
    label=st.sampled_from("ab"),
    inverse=st.booleans(),
)
def test_closure_bit_rows_decode_to_the_naive_closure(seed, size, label, inverse):
    graph = random_graph_from(seed, size)
    compact = graph.compact_index()
    relation = compact_kernels.closure_relation(compact, label, inverse=inverse)
    naive = evaluate_rpq_naive(graph, rpq(f"{label}*"))
    if inverse:
        naive = {(target, source) for source, target in naive}
    assert_decodes_to(relation, compact, naive)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=1, max_value=30) | st.just(70),
    query_index=st.integers(min_value=0, max_value=len(DATA_POOL) - 1),
    null_semantics=st.booleans(),
    data=st.data(),
)
def test_register_bit_rows_decode_to_the_naive_relation(
    seed, size, query_index, null_semantics, data
):
    graph = random_graph_from(seed, size)
    compact = graph.compact_index()
    text, dialect = DATA_POOL[query_index]
    query = Query.parse(text, dialect=dialect)
    sources, targets = drawn_restrictions(data, graph)
    relation = compact_kernels.register_relation(
        compact,
        default_engine().compile_data_rpq(query.plan.expression),
        null_semantics,
        sources=None if sources is None else sorted(sources),
        targets=targets,
    )
    naive = evaluate_data_rpq_naive(graph, query.plan, null_semantics)
    expected = {
        pair for pair in naive
        if (sources is None or pair[0].id in sources) and (targets is None or pair[1].id in targets)
    }
    assert_decodes_to(relation, compact, expected)


class TestBitRelationEdges:
    def test_empty_graph_and_single_node(self):
        empty = GraphBuilder(name="empty").build().compact_index()
        automaton = default_engine().compile_rpq(rpq("a*"))
        star = regex_to_rem(parse_regex("a*"))
        for relation in (
            compact_kernels.nfa_relation(empty, automaton),
            compact_kernels.closure_relation(empty, "a"),
            data_kernels.ree_relation(empty, star),
            data_kernels.ree_relation(empty, star, sources=["absent"]),
            *(data_kernels.ree_relation(empty, regex_to_rem(raw)) for raw in RAW_RPQS),
        ):
            assert relation.rows == {} and relation.count() == 0
            assert relation.id_pairs() == relation.node_pairs(empty.node_objects) == frozenset()
        lonely = GraphBuilder(name="lonely").node("only", 1).build().compact_index()
        assert data_kernels.ree_relation(lonely, star).rows == {0: 1}
        relation = compact_kernels.nfa_relation(lonely, automaton)
        assert relation.rows == {0: 1}
        assert relation.id_pairs() == {("only", "only")}
        assert relation.node_pairs(lonely.node_objects) == {(lonely.node_objects[0],) * 2}

    @pytest.mark.parametrize("size", [1, 63, 64, 65, 128, 129, 200])
    def test_top_bit_is_the_last_node(self, size):
        """A mask whose only (and highest) bit is the last node of the
        ordering, on sizes around the 64-bit limb boundaries."""
        builder = GraphBuilder(name="star")
        for i in range(size):
            builder.node(i, i % 2)
        builder.node("hub", 0)
        for i in range(size):
            builder.edge("hub", "a", i)
        graph = builder.build()
        compact = graph.compact_index()
        assert compact.nodes[-1] == "hub"
        relation = compact_kernels.nfa_relation(compact, default_engine().compile_rpq(rpq("a")))
        assert set(relation.rows.values()) == {1 << size}
        assert relation.id_pairs() == {("hub", i) for i in range(size)}
        assert relation.count() == size
        # ... and a full row: every node reaches the last one
        closure = compact_kernels.closure_relation(compact, "a", inverse=True)
        assert closure.rows[size] == (1 << (size + 1)) - 1
        assert_decodes_to(
            closure,
            compact,
            {(graph.node(i), graph.node("hub")) for i in range(size)}
            | {(node, node) for node in graph.nodes},
        )

    @pytest.mark.parametrize("size", [17, 64, 200, 1100])
    def test_sparse_and_dense_masks_decode_alike(self, size):
        """The decoder hops between the set digits of a sparse mask and
        ``compress``es a dense one; member counts on both sides of that
        switch (a 16th of the mask's length) decode to the bit walk."""
        names = tuple(f"n{i}" for i in range(size))
        position = {name: at for at, name in enumerate(names)}
        edge = size // 16
        rows = {}
        for at, members in enumerate([1, 2, edge - 1, edge, edge + 1, edge + 2, size // 2, size]):
            members = max(1, min(size, members))
            step = size // members
            # the top bit first, so every mask spans the whole ordering
            rows[at] = sum(1 << (size - 1 - i * step) for i in range(members))
        rows[size - 1] = 1  # the lowest bit alone
        relation = BitRelation(names, position, rows)
        assert relation.id_pairs() == bit_walk_pairs(relation, names)
        assert relation.count() == len(relation.id_pairs())

    def test_non_string_node_ids(self):
        ids = [0, 1, (2, "x"), ("y", 3), 4.5, frozenset({6}), "seven"]
        builder = GraphBuilder(name="mixed-ids")
        for position, node_id in enumerate(ids):
            builder.node(node_id, position % 3)
        for source, target in zip(ids, ids[1:]):
            builder.edge(source, "a", target)
        graph = builder.build()
        compact_session, dict_session = sessions(graph)
        for text in ("a", "a+", "a.a*"):
            expected = evaluate_rpq_naive(graph, rpq(text))
            assert compact_session.run(text).pairs() == expected
            assert dict_session.run(text).pairs() == expected
            relation = compact_kernels.nfa_relation(
                graph.compact_index(), default_engine().compile_rpq(rpq(text))
            )
            assert_decodes_to(relation, graph.compact_index(), expected)
        assert compact_session.run("a+").holds(0, "seven")

    def test_node_objects_column_is_the_graphs_nodes(self):
        graph = random_graph_from(5, 20)
        compact = graph.compact_index()
        assert compact.node_objects == graph.nodes
        assert compact.node_objects is compact.node_objects  # derived once per snapshot
        with pytest.raises(ValueError, match="ordering"):
            BitRelation(compact.nodes, compact.position, {0: 1}).node_pairs(
                compact.node_objects[:-1]
            )

    def test_atom_bits_is_what_the_entry_points_decode(self):
        # The engine's one bit-row entry point, unseeded: rows on a sequential
        # compact route (an REE's from the bottom-up algebra), ``None`` on
        # every other route; a caching session keeps exactly those rows.
        graph = random_graph_from(9, 30)
        engine = default_engine()
        compact_route = forced_route(graph, "compact")
        objects = graph.compact_index().node_objects
        queries = [Query.rpq(text) for text in RPQ_POOL]
        queries += [Query.parse(text, dialect=dialect) for text, dialect in DATA_POOL]
        session = GraphSession(graph, policy=ExecutionPolicy(backend="compact"))
        for query in queries:
            for null_semantics in (False, True):
                bits = engine.atom_bits(
                    graph, query.plan, compact_route, null_semantics=null_semantics
                )
                expected = query._evaluate(engine, graph, null_semantics, compact_route)
                answer = session.run(query, null_semantics=null_semantics).pairs()
                assert answer == expected
                kept = session._results.peek((graph.version, query.key, null_semantics)).bits
                assert bits.node_pairs(objects) == expected
                assert kept.rows == bits.rows
            for route in (
                forced_route(graph, "dict"),
                forced_route(graph, "sql"),
                dataclasses.replace(compact_route, driver="blocks", workers=2),
            ):
                assert engine.atom_bits(graph, query.plan, route) is None


ROWS = st.dictionaries(
    st.integers(min_value=0, max_value=139),
    st.integers(min_value=1, max_value=(1 << 140) - 1),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(left=ROWS, right=ROWS, grown=st.integers(min_value=0, max_value=5), data=st.data())
def test_bit_relation_algebra(left, right, grown, data):
    """count / restrict / minus against plain set algebra on the decoded
    pairs, with *right* on an ordering that extends *left*'s."""
    nodes = tuple(range(140))
    longer = nodes + tuple(f"new{i}" for i in range(grown))
    a = BitRelation(nodes, {n: i for i, n in enumerate(nodes)}, left)
    b = BitRelation(longer, {n: i for i, n in enumerate(longer)}, right)
    assert a.extended_by(b) and a.extended_by(a)
    assert b.extended_by(a) == (grown == 0)
    pairs_a, pairs_b = a.id_pairs(), b.id_pairs()
    assert a.count() == len(pairs_a) and pairs_a == bit_walk_pairs(a, nodes)
    assert b.minus(a).id_pairs() == pairs_b - pairs_a
    lost = a.minus(b)  # the shorter ordering as the prefix works too
    assert lost.nodes is nodes and lost.id_pairs() == pairs_a - pairs_b
    assert a.rows == left and b.rows == right  # operands are never mutated
    picks = st.none() | st.sets(st.sampled_from(longer + ("absent",)), max_size=8)
    sources, targets = data.draw(picks), data.draw(picks)
    assert b.restrict(sources, targets).id_pairs() == restricted(
        pairs_b, sources, targets
    )


@pytest.mark.parametrize("direction", ["lost", "gained"])
def test_minus_takes_either_ordering_as_the_prefix(direction):
    """``old.minus(new)`` and ``new.minus(old)`` across a grown ordering:
    positions agree on the common prefix, bits and rows beyond it exist
    only on the longer side, and the result is on the receiver's ordering."""
    old_nodes = ("a", "b", "c")
    new_nodes = old_nodes + ("d", "e")

    def relation(nodes, pairs):
        position = {node: at for at, node in enumerate(nodes)}
        rows = {}
        for source, target in pairs:
            rows[position[target]] = rows.get(position[target], 0) | 1 << position[source]
        return BitRelation(nodes, position, rows)

    old_pairs = {("a", "b"), ("a", "c"), ("b", "c")}
    new_pairs = {("a", "c"), ("e", "c"), ("b", "d"), ("a", "e")}
    old, new = relation(old_nodes, old_pairs), relation(new_nodes, new_pairs)
    if direction == "lost":
        difference, expected, on = old.minus(new), old_pairs - new_pairs, old_nodes
    else:
        difference, expected, on = new.minus(old), new_pairs - old_pairs, new_nodes
    assert difference.nodes is on and difference.id_pairs() == expected
    assert difference.node_pairs(on) == expected


# ----------------------------------------------------------------------
# Seeded (semijoin) evaluation
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=2, max_value=40),
    query_index=st.integers(min_value=0, max_value=len(RPQ_POOL) - 1),
    data=st.data(),
)
def test_seeded_scans_agree(seed, size, query_index, data):
    graph = random_graph_from(seed, size)
    engine = default_engine()
    query = rpq(RPQ_POOL[query_index])
    ids = list(graph.node_ids)
    sources = set(data.draw(st.lists(st.sampled_from(ids), max_size=5)))
    targets = set(data.draw(st.lists(st.sampled_from(ids), max_size=5)))
    for bound_sources in (None, sources):
        for bound_targets in (None, targets):
            compact_pairs = engine.evaluate_atom_ids(
                graph, query, sources=bound_sources, targets=bound_targets,
                route=forced_route(graph, "compact"),
            )
            dict_pairs = engine.evaluate_atom_ids(
                graph, query, sources=bound_sources, targets=bound_targets,
                route=forced_route(graph, "dict"),
            )
            assert compact_pairs == dict_pairs, (bound_sources, bound_targets)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=1, max_value=40),
    query_index=st.integers(min_value=0, max_value=len(RPQ_POOL) - 1),
)
def test_point_reachability_agrees(seed, size, query_index):
    graph = random_graph_from(seed, size)
    engine = default_engine()
    query = rpq(RPQ_POOL[query_index])
    source = next(iter(graph.node_ids))
    compact_targets = engine.evaluate_rpq_from(
        graph, query, source, forced_route(graph, "compact")
    )
    assert compact_targets == engine.evaluate_rpq_from(
        graph, query, source, forced_route(graph, "dict")
    )


# ----------------------------------------------------------------------
# The blocks driver (dict source blocks) against the compact kernels
# ----------------------------------------------------------------------
def block_pairs(graph, text: str, num_blocks: int):
    space = NfaProductSpace(graph.label_index(), default_engine().compile_rpq(rpq(text)))
    return parallel_product_relation(space, num_blocks=num_blocks, backend="thread")


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=1, max_value=30),
    num_blocks=st.integers(min_value=1, max_value=6),
    query_index=st.integers(min_value=0, max_value=len(RPQ_POOL) - 1),
)
def test_blocks_driver_matches_compact(seed, size, num_blocks, query_index):
    graph = random_graph_from(seed, size)
    text = RPQ_POOL[query_index]
    compact = graph.compact_index()
    automaton = default_engine().compile_rpq(rpq(text))
    assert block_pairs(graph, text, num_blocks) == (
        compact_kernels.nfa_relation(compact, automaton).id_pairs()
    )


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=1, max_value=12),
    query_index=st.integers(min_value=0, max_value=len(RPQ_POOL) - 1),
)
def test_single_source_blocks(seed, size, query_index):
    """One block per source node."""
    graph = random_graph_from(seed, size)
    text = RPQ_POOL[query_index]
    engine = default_engine()
    assert block_pairs(graph, text, graph.num_nodes) == engine.evaluate_atom_ids(
        graph, rpq(text), route=forced_route(graph, "compact")
    )


# ----------------------------------------------------------------------
# Degenerate graphs
# ----------------------------------------------------------------------
class TestEmptyGraph:
    def test_every_dialect_on_the_empty_graph(self):
        graph = GraphBuilder(name="empty").build()
        compact_session, dict_session = sessions(graph)
        for text, dialect in [
            ("(a|b)*", "rpq"),
            ("((a|b))=", "ree"),
            ("!x.(a[x=])+", "rem"),
            ("a.b", "gxpath-path"),
            ("<a*>", "gxpath-node"),
        ]:
            query = Query.parse(text, dialect=dialect)
            compact = compact_session.run(query)
            expected = dict_session.run(query)
            if dialect == "gxpath-node":
                assert compact.nodes() == expected.nodes() == frozenset()
            else:
                assert compact.pairs() == expected.pairs() == frozenset()
        crpq = Query.parse("x, y :- (x, a, y)", dialect="crpq")
        assert compact_session.run(crpq).rows() == frozenset()

    def test_empty_compact_index_shape(self):
        graph = GraphBuilder(name="empty").build()
        compact = CompactLabelIndex.from_label_index(graph.label_index())
        assert compact.num_nodes == 0
        assert compact.edge_labels() == frozenset()

    def test_single_node_no_edges(self):
        builder = GraphBuilder(name="lonely")
        builder.node("only", 1)
        graph = builder.build()
        compact_session, dict_session = sessions(graph)
        assert compact_session.run("a*").pairs() == dict_session.run("a*").pairs()
        assert compact_session.run("a").pairs() == frozenset()
