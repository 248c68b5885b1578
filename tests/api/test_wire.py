"""The structural JSON wire codec: exact round-trips, hostile documents."""

from __future__ import annotations

import json
from itertools import product

import pytest
from conftest import REM_ASTS, regex_strategy, tricky_graphs
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy, GraphSession, Query
from repro.api import wire
from repro.datagraph import GraphBuilder
from repro.datagraph.node import Node
from repro.datagraph.values import NULL
from repro.datapaths.fragments import is_scoped, regex_to_rem
from repro.engine import data as data_kernels
from repro.engine.bitrelation import CachedRelation
from repro.exceptions import SerializationError
from repro.query import DataRPQ, evaluate_data_rpq_naive, evaluate_rpq_naive, rpq

QUERIES = [
    ("a.(b|c)*", "rpq"),
    ("(a.b)+ | c", "rpq"),
    ("((a|b)+)=", "ree"),
    ("(a.b)!=", "ree"),
    ("!x.(a[x=])+", "rem"),
    ("x,y :- (x, a+, z), (z, ree:(b)=, y)", "crpq"),
    (":- (x, a, y)", "crpq"),
    ("<a.[<b>]>", "gxpath-node"),
    ("a-* . (b)!=", "gxpath-path"),
]


@pytest.fixture
def valued_graph():
    return (
        GraphBuilder(name="wire")
        .node("n1", 1).node("n2", "two").node("n3", NULL).node(("t", 4), 2.5)
        .edge("n1", "a", "n2").edge("n2", "b", "n3")
        .edge("n3", "c", ("t", 4)).edge(("t", 4), "a", "n1")
        .edge("n1", "b", "n1")
        .build()
    )


class TestQueryRoundTrip:
    @pytest.mark.parametrize("text,dialect", QUERIES)
    def test_exact_round_trip(self, text, dialect):
        query = Query.parse(text, dialect=dialect)
        document = wire.encode_query(query)
        # The document must survive a real JSON hop, not just a dict copy.
        decoded = wire.decode_query(json.loads(json.dumps(document)))
        assert decoded == query
        assert decoded.kind is query.kind
        assert decoded.key == query.key

    @pytest.mark.parametrize("text,dialect", QUERIES)
    def test_round_tripped_query_evaluates_identically(self, text, dialect, valued_graph):
        query = Query.parse(text, dialect=dialect)
        decoded = wire.decode_query(wire.encode_query(query))
        session = GraphSession(valued_graph)
        assert session.run(decoded).rows() == session.run(query).rows()

    def test_kind_mismatch_rejected(self):
        document = wire.encode_query(Query.parse("a.b"))
        document["kind"] = "crpq"
        with pytest.raises(SerializationError):
            wire.decode_query(document)

    def test_unknown_class_rejected(self):
        document = wire.encode_query(Query.parse("a.b"))
        document["plan"]["f"]["expression"] = {"%": "os.system", "f": {}}
        with pytest.raises(SerializationError):
            wire.decode_query(document)

    def test_wrong_fields_rejected(self):
        document = wire.encode_query(Query.parse("a"))
        document["plan"]["f"]["bogus"] = 1
        with pytest.raises(SerializationError):
            wire.decode_query(document)

    @pytest.mark.parametrize("document", [None, 3, [], {"kind": "rpq"}, {"plan": {}}])
    def test_malformed_documents_rejected(self, document):
        with pytest.raises(SerializationError):
            wire.decode_query(document)


class TestValuesAndNodes:
    @pytest.mark.parametrize("value", [1, -3.5, "text", True, None, NULL, ("t", 4), ((1, 2), 3)])
    def test_value_round_trip(self, value):
        decoded = wire.decode_value(json.loads(json.dumps(wire.encode_value(value))))
        if value is None or value is NULL:
            assert decoded is NULL  # both null spellings normalise to the SQL null
        else:
            assert decoded == value

    def test_unencodable_value_rejected(self):
        with pytest.raises(SerializationError):
            wire.encode_value(object())

    def test_node_round_trip(self):
        node = Node(("person", 7), NULL)
        assert wire.decode_node(wire.encode_node(node)) == node


#: One query per answer shape: ``(text, dialect, shape, arity)``.
SHAPES = [
    ("a.(b|c)*", "rpq", "relation", 2),
    ("x,y :- (x, a, z), (z, b, y)", "crpq", "relation", 2),
    ("x :- (x, a, y)", "crpq", "tuples", 1),
    ("x,y,z :- (x, a, y), (y, b, z)", "crpq", "tuples", 3),
    (":- (x, a, y)", "crpq", "tuples", 0),
    ("<a.[<b>]>", "gxpath-node", "nodes", 1),
]

NAN = float("nan")
#: ``tricky_graphs``' values (tests/engine/test_compact_backend.py): equal
#: across types, the SQL null, NaN — and ids that are tuples, as the
#: property-graph encoding makes them.
TRICKY_NODES = [
    Node(node_id, value)
    for node_id, value in zip(
        ["n0", "n1", "n2", ("person", 3), ("person", 4), "n5", 6, ("t", ("u", 7))],
        [1, 1.0, True, 2, "1", NULL, NAN, float("nan")],
    )
]


#: Nodes that share an id with a :data:`TRICKY_NODES` node but carry
#: another value (or the same value spelled as another type, or a NaN
#: again), and ids that are one dict key with another node's id.
REVALUED = [
    Node("n0", 1.0), Node("n0", True), Node("n1", 1), Node("n5", 0), Node(6, 6.0),
    Node(6, NAN), Node(6.0, NAN), Node(True, "1"), Node(("person", 3), (2, 2.0)),
]


def hop(document):
    """A real JSON hop: tuples become lists, NaN stays NaN."""
    return json.loads(json.dumps(document))


def spelled(answers):
    """Answers by ``repr``: tells ``1`` / ``1.0`` / ``True`` apart, and
    equates the NaN a decoder rebuilt with the one that was sent."""
    if all(isinstance(answer, Node) for answer in answers):
        return {answer.sort_key() for answer in answers}
    return {tuple(node.sort_key() for node in row) for row in answers}


class TestAnswerSets:
    @pytest.mark.parametrize("text,dialect,shape,arity", SHAPES)
    def test_every_shape_round_trips(self, text, dialect, shape, arity, valued_graph):
        query = Query.parse(text, dialect=dialect)
        assert query.arity == arity
        answers = GraphSession(valued_graph).run(query)._force()
        assert answers  # a trivial set would prove nothing
        document = wire.encode_answers(query, answers)
        assert document["shape"] == shape
        assert wire.decode_answers(query, hop(document)) == answers
        empty = wire.encode_answers(query, frozenset())
        assert empty["nodes"] == [] and wire.decode_answers(query, hop(empty)) == frozenset()

    def test_a_relation_is_one_node_column_plus_a_row_per_target(self, valued_graph):
        query = Query.parse("a|b")
        answers = GraphSession(valued_graph).run(query)._force()
        document = hop(wire.encode_answers(query, answers))
        column = [wire.decode_node(node) for node in document["nodes"]]
        # Each node once, in sort-key order; targets and each row ascending.
        assert column == sorted({node for pair in answers for node in pair}, key=Node.sort_key)
        assert document["targets"] == sorted(set(document["targets"]))
        assert all(row == sorted(set(row)) for row in document["rows"])
        assert sum(map(len, document["rows"])) == len(answers)
        assert answers == {
            (column[source], column[target])
            for target, row in zip(document["targets"], document["rows"])
            for source in row
        }

    def test_reply_size_follows_the_answer_not_the_graph(self):
        builder = GraphBuilder(name="wide")
        for i in range(400):
            builder.node(f"n{i}", i)
        graph = builder.edge("n1", "a", "n2").edge("n3", "a", "n2").build()
        document = wire.encode_answers(Query.parse("a"), GraphSession(graph).run("a")._force())
        assert len(document["nodes"]) == 3 and document["rows"] == [[0, 2]]

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        picks=st.lists(st.lists(st.sampled_from(TRICKY_NODES), min_size=3, max_size=3), max_size=40),
        data=st.data(),
    )
    def test_round_trip_on_tricky_nodes(self, shape, picks, data):
        text, dialect, _, arity = shape
        query = Query.parse(text, dialect=dialect)

        def answers_of(rows):
            if dialect == "gxpath-node":
                return frozenset(row[0] for row in rows)
            return frozenset(tuple(row[:arity]) for row in rows)

        answers = answers_of(picks)
        sent = json.dumps(wire.encode_answers(query, answers))
        decoded = wire.decode_answers(query, json.loads(sent))
        assert spelled(decoded) == spelled(answers) and len(decoded) == len(answers)
        if "nan" not in sent.lower():
            assert decoded == answers
        # The same answer built in another order is the same bytes.
        again = frozenset(data.draw(st.permutations(sorted(answers, key=repr))))
        assert again == answers and json.dumps(wire.encode_answers(query, again)) == sent
        # Through one node table, a sequence of replies whose ids come back
        # with other values decodes exactly as each reply does fresh.
        table = {}
        rows = st.lists(st.sampled_from(TRICKY_NODES + REVALUED), min_size=3, max_size=3)
        for more in [picks, *data.draw(st.lists(st.lists(rows, max_size=12), max_size=5))]:
            document = hop(wire.encode_answers(query, answers_of(more)))
            decoded = wire.decode_answers(query, document, table)
            assert spelled(decoded) == spelled(wire.decode_answers(query, document))
            assert len(decoded) == len(wire.decode_answers(query, document))
        assert len(table) <= len({repr(node.id) for node in TRICKY_NODES + REVALUED})

    def test_a_node_table_keeps_one_entry_per_id(self):
        table = {}
        for value in (NAN, NAN, float("nan"), 1, 1.0, True, "1", NULL, ("t", 1), ("t", 1.0)):
            document = hop(wire.encode_nodes(frozenset({Node("n1", value)})))
            (node,) = wire.decode_nodes(document, table)
            assert node.sort_key() == Node("n1", value).sort_key() and len(table) == 1
        # Without a JSON hop, two NaN objects spell the same value.
        (seen,) = wire.decode_nodes([["n2", float("nan")]], table)
        (node,) = wire.decode_nodes([["n2", float("nan")]], table)
        assert node is seen and len(table) == 2
        # A node seen before is the object the table built for it.
        document = hop(wire.encode_nodes(frozenset({Node("n1", ("t", 1.0))})))
        (kept,) = wire.decode_nodes(document, table)
        (again,) = wire.decode_nodes(document, table)
        assert again is kept and type(again.value[1]) is float and len(table) == 2

    def test_encoding_is_deterministic(self, valued_graph):
        query = Query.parse("a|b")
        answers = GraphSession(valued_graph).run(query)._force()
        assert wire.encode_answers(query, answers) == wire.encode_answers(query, answers)

    @settings(max_examples=120, deadline=None)
    @given(
        graph=tricky_graphs(),
        regex=regex_strategy(),
        rem=REM_ASTS.filter(is_scoped),
        null_semantics=st.booleans(),
    )
    def test_rows_document_equals_the_pairs_document(self, graph, regex, rem, null_semantics):
        compact = graph.compact_index()
        naive = {
            regex_to_rem(regex): evaluate_rpq_naive(graph, rpq(regex)),
            rem: evaluate_data_rpq_naive(graph, DataRPQ(rem), null_semantics),
        }
        for expression, answers in naive.items():
            query = Query.of(DataRPQ(expression))
            expected = json.dumps(wire.encode_answers(query, answers))
            for index in (graph.label_index(), compact):
                entry = CachedRelation(data_kernels.ree_relation(index, expression, null_semantics), compact)
                document = wire.encode_entry(query, entry)
                assert json.dumps(document) == expected, (expression, type(index).__name__)
                assert entry.answer is None  # the rows path decodes nothing

    def test_session_rows_encode_like_their_pairs(self, valued_graph):
        session = GraphSession(valued_graph, policy=ExecutionPolicy(backend="compact"))
        for text in ("(a|b|c)+", "a.b", "zzz"):  # tuple ids, a null, the empty relation
            query = Query.parse(text)
            result = session.run(query)
            entry = result._entry()
            assert entry.bits is not None
            document = wire.encode_entry(query, entry)
            assert entry.answer is None
            assert document == wire.encode_answers(query, result._force())
        cross = Query.parse("!x.(a|b).!y.((a|b|c)[x!= && y=])+", dialect="rem")
        plain = GraphSession(valued_graph, policy=ExecutionPolicy(backend="dict"))
        for null_semantics in (False, True):
            result = plain.run(cross, null_semantics=null_semantics)
            assert result._entry().bits is None  # no rows: the pair path
            rows = session.run(cross, null_semantics=null_semantics)._entry()
            assert wire.encode_entry(cross, result._entry()) == wire.encode_entry(cross, rows)
            assert wire.encode_entry(cross, rows) == wire.encode_answers(cross, result._force())

    def test_entries_encode_against_the_snapshot_their_rows_were_computed_on(self):
        builder = GraphBuilder(name="chain")
        for i in range(12):
            builder.node(("c", i), NULL if i % 3 else i)
        for i in range(11):
            builder.edge(("c", i), "a", ("c", i + 1))
        graph = builder.build()
        session = GraphSession(graph, policy=ExecutionPolicy(backend="compact"))
        query = Query.parse("a+")
        before = session.run(query)
        old = before._entry()
        expected = wire.encode_answers(query, before._force())
        with graph.batch() as batch:  # an insert-only delta with a small touched closure
            batch.add_node(("c", -1), NULL)
            batch.add_edge(("c", -1), "a", ("c", 0))
        after = session.run(query)
        entry = after._entry()
        assert session.maintenance_stats()["repairs"] == 1
        grown = entry.snapshot
        assert len(grown.nodes) > len(old.bits.nodes) and entry.bits.nodes is grown.nodes
        assert wire.encode_entry(query, entry) == wire.encode_answers(query, after._force())
        # Rows on a prefix of a snapshot's ordering encode through it ...
        assert wire.encode_entry(query, CachedRelation(old.bits, grown)) == expected
        # ... and an entry encodes against its own snapshot after a write
        # reordered the graph's, without decoding its rows.
        with graph.batch() as batch:
            batch.remove_node(("c", 0))
            batch.set_value(("c", 3), "rewritten")
        assert graph.compact_index().nodes[: len(old.bits.nodes)] != old.bits.nodes
        unread = CachedRelation(old.bits, old.snapshot)
        assert wire.encode_entry(query, unread) == expected and unread.answer is None


def relation_document(**changes):
    """A valid two-target relation over three nodes, with *changes* applied
    (a value of ``...`` drops the field)."""
    document = {
        "shape": "relation",
        "nodes": [["n1", 1], ["n2", "two"], ["n3", None]],
        "targets": [1, 2],
        "rows": [[0, 2], [0]],
        **changes,
    }
    return {key: value for key, value in document.items() if value is not ...}


class TestHostileAnswerDocuments:
    """Every malformed document is a SerializationError — no IndexError /
    TypeError / ValueError leaks and no document decodes to a wrong answer."""

    RELATION = Query.parse("a")
    TRIPLES = Query.parse("x,y,z :- (x, a, y), (y, b, z)", dialect="crpq")
    NODES = Query.parse("<a>", dialect="gxpath-node")

    def tables(self):
        """No table (a fresh decode), and a node table already holding
        every node the documents below name: neither accepts them."""
        warm = {}
        wire.decode_answers(self.RELATION, relation_document(), warm)
        wire.decode_nodes([["n1", 2], ["n1", 1], ["n4", None]], warm)
        return None, warm

    def test_the_valid_documents_decode(self):
        n1, n2, n3 = Node("n1", 1), Node("n2", "two"), Node("n3", NULL)
        assert wire.decode_answers(self.RELATION, relation_document()) == {
            (n1, n2), (n3, n2), (n1, n3)
        }
        triples = relation_document(shape="tuples", targets=..., rows=[[0, 1, 2], [2, 1, 0]])
        assert wire.decode_answers(self.TRIPLES, triples) == {(n1, n2, n3), (n3, n2, n1)}
        nodes = relation_document(shape="nodes", targets=..., rows=...)
        assert wire.decode_answers(self.NODES, nodes) == {n1, n2, n3}

    @pytest.mark.parametrize(
        "changes",
        [
            {"nodes": ...},  # no column
            {"nodes": {"0": ["n1", 1]}},  # column is not a list
            {"nodes": [["n1", 1], ["n2"], ["n3", None]]},  # malformed node
            {"nodes": [["n1", 1], ["n2", "two"], ["n2", "two"]]},  # (n1, n2) twice
            {"rows": ...},
            {"rows": 7},
            {"rows": {"0": [0]}},
            {"rows": [[0, 2], 0]},  # a row that is no list
            {"rows": [[0, 2], "0"]},
            {"rows": [[0, 3], [0]]},  # out of range
            {"rows": [[0, -1], [0]]},  # must not wrap to the last node
            {"rows": [[0, 2.0], [0]]},
            {"rows": [[0, "2"], [0]]},
            {"rows": [[0, None], [0]]},
            {"rows": [[0, True], [0]]},  # JSON true is not the index 1
            {"rows": [[0, [2]], [0]]},
            {"rows": [[0, 2], []]},  # empty target row
            {"rows": [[0, 0], [0]]},  # a pair twice
            {"rows": [[0, 2]]},  # fewer rows than targets
            {"rows": [[0, 2], [0], [1]]},
            {"targets": ...},
            {"targets": [1, 1]},  # duplicate target row
            {"targets": [1, -1]},
            {"targets": [1, 3]},
            {"targets": [1, "2"]},
            {"targets": [1, None]},
            {"targets": "12"},
            {"shape": "tuples"},  # pairs must come as a relation
            {"shape": "nodes"},
            {"shape": "rows"},
            {"shape": ...},
        ],
        ids=repr,
    )
    def test_malformed_relation_rejected(self, changes):
        for table in self.tables():
            with pytest.raises(SerializationError):
                wire.decode_answers(self.RELATION, relation_document(**changes), table)

    @pytest.mark.parametrize(
        "rows",
        [
            None,
            [[0, 1]],  # wrong arity
            [[0, 1, 2, 0]],
            [[0, 1, 2], [0, 1]],
            [[0, 1], [2, 0, 1, 2]],  # six indices, but not two triples
            [0, 1, 2],
            ["012"],
            [[0, 1, 3]],
            [[0, 1, -3]],
            [[0, 1, 2.0]],
            [[0, 1, None]],
            [[0, 1, 2], [0, 1, 2]],  # an answer twice
        ],
        ids=repr,
    )
    def test_malformed_tuples_rejected(self, rows):
        document = relation_document(shape="tuples", targets=..., rows=rows)
        for table in self.tables():
            with pytest.raises(SerializationError):
                wire.decode_answers(self.TRIPLES, document, table)

    def test_a_boolean_answer_is_the_empty_tuple_at_most_once(self):
        boolean = Query.parse(":- (x, a, y)", dialect="crpq")
        assert wire.decode_answers(boolean, {"shape": "tuples", "nodes": [], "rows": [[]]}) == {()}
        for rows, table in product(([[], []], [[0]], [0]), self.tables()):
            with pytest.raises(SerializationError):
                wire.decode_answers(boolean, {"shape": "tuples", "nodes": [], "rows": rows}, table)

    @pytest.mark.parametrize(
        "document",
        [
            None,
            [],
            "nodes",
            {"shape": "nodes"},
            {"shape": "nodes", "nodes": None},
            {"shape": "nodes", "nodes": [["n1", 1], ["n1", 1]]},
            relation_document(shape="tuples", targets=..., rows=[[0], [1], [2]]),
            relation_document(),
        ],
        ids=repr,
    )
    def test_malformed_node_sets_rejected(self, document):
        for table in self.tables():
            with pytest.raises(SerializationError):
                wire.decode_answers(self.NODES, document, table)

    @pytest.mark.parametrize(
        "document",
        [
            None,
            "nodes",
            {"0": ["n1", 1]},
            [["n1"]],
            [["n1", 1], ["n2", [2]]],  # a list is no value
            [["n1", 1], ["n1", 1]],  # a targets reply repeats a node
            [["n1", 1], ["n2", "two"], ["n1", 1]],
        ],
        ids=repr,
    )
    def test_malformed_node_lists_rejected(self, document):
        for table in self.tables():
            with pytest.raises(SerializationError):
                wire.decode_nodes(document, table)

    def test_the_per_pair_rows_document_is_gone(self):
        per_pair = {"shape": "rows", "rows": [[["n1", 1], ["n2", "two"]]]}
        for query, table in product((self.RELATION, self.TRIPLES, self.NODES), self.tables()):
            with pytest.raises(SerializationError):
                wire.decode_answers(query, per_pair, table)
