"""The unified Query IR: construction, parsing, hashing, introspection.

These modules are the new-API suite and must be clean of deprecated
calls, so DeprecationWarning is an error here (mirrored in CI by the
dedicated ``-W error::DeprecationWarning`` step).
"""

from __future__ import annotations

import pytest

from repro.api import Query, QueryKind
from repro.datapaths import RegexWithEquality, RegexWithMemory, parse_ree, parse_rem
from repro.exceptions import ParseError, UnsupportedQueryError
from repro.gxpath import parse_gxpath_node, parse_gxpath_path
from repro.query import Atom, ConjunctiveRPQ, DataRPQ, equality_rpq, memory_rpq, rpq
from repro.regular import parse_regex

pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")


class TestConstructors:
    def test_rpq_from_text_ast_and_wrapper_agree(self):
        from_text = Query.rpq("a.b*")
        from_ast = Query.rpq(parse_regex("a.b*"))
        from_wrapper = Query.rpq(rpq("a.b*"))
        assert from_text == from_ast == from_wrapper
        assert from_text.kind is QueryKind.RPQ
        assert hash(from_text) == hash(from_wrapper)

    def test_data_rpq_text_prefers_ree_then_rem(self):
        assert isinstance(Query.data_rpq("(a.b)=").plan.expression, RegexWithEquality)
        assert isinstance(Query.data_rpq("!x.(a[x=])+").plan.expression, RegexWithMemory)

    def test_data_rpq_wrappers(self):
        ree = equality_rpq("(a)=")
        assert Query.data_rpq(ree).plan is ree
        assert Query.data_rpq(ree.expression) == Query.data_rpq(ree)
        rem = memory_rpq("!x.(a[x=])")
        assert Query.data_rpq(rem).kind is QueryKind.DATA_RPQ

    def test_gxpath_detects_shape(self):
        node = Query.gxpath("<a.[<b>]>")
        path = Query.gxpath("a-* . (b)!=")
        assert node.kind is QueryKind.GXPATH_NODE
        assert path.kind is QueryKind.GXPATH_PATH
        assert Query.gxpath(parse_gxpath_node("<a>")).kind is QueryKind.GXPATH_NODE
        assert Query.gxpath(parse_gxpath_path("a.b")).kind is QueryKind.GXPATH_PATH

    def test_gxpath_kind_mismatch_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            Query.gxpath(parse_gxpath_node("<a>"), kind="path")
        with pytest.raises(UnsupportedQueryError):
            Query.gxpath(parse_gxpath_path("a.b"), kind="node")
        with pytest.raises(UnsupportedQueryError):
            Query.gxpath("a", kind="sideways")

    def test_crpq_from_triples_and_wrapper(self):
        wrapped = ConjunctiveRPQ(
            ("x", "z"), (Atom("x", rpq("a"), "y"), Atom("y", equality_rpq("(b)="), "z"))
        )
        built = Query.crpq(("x", "z"), [("x", "a", "y"), ("y", equality_rpq("(b)=").expression, "z")])
        assert Query.crpq(wrapped).plan is wrapped
        assert built.plan == wrapped
        assert built.arity == 2

    def test_crpq_without_atoms_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            Query.crpq(("x", "y"))


class TestParse:
    @pytest.mark.parametrize(
        "text,dialect,kind",
        [
            ("a.b*", "rpq", QueryKind.RPQ),
            ("(a.b)=", "ree", QueryKind.DATA_RPQ),
            ("!x.(a[x=])+", "rem", QueryKind.DATA_RPQ),
            ("<a.[<b>]>", "gxpath-node", QueryKind.GXPATH_NODE),
            ("a-* . (b)!=", "gxpath-path", QueryKind.GXPATH_PATH),
        ],
    )
    def test_every_dialect_round_trips(self, text, dialect, kind):
        query = Query.parse(text, dialect=dialect)
        assert query.kind is kind
        assert query == Query.parse(text, dialect=dialect)

    def test_unknown_dialect_rejected(self):
        with pytest.raises(UnsupportedQueryError, match="dialect"):
            Query.parse("a", dialect="sparql")

    def test_parse_errors_propagate(self):
        with pytest.raises(ParseError):
            Query.parse("a..b", dialect="rpq")


class TestOf:
    def test_identity_on_queries(self):
        query = Query.rpq("a")
        assert Query.of(query) is query

    def test_coercions(self):
        assert Query.of("a.b").kind is QueryKind.RPQ
        assert Query.of(parse_regex("a")).kind is QueryKind.RPQ
        assert Query.of(rpq("a")).kind is QueryKind.RPQ
        assert Query.of(equality_rpq("(a)=")).kind is QueryKind.DATA_RPQ
        assert Query.of(parse_ree("(a)=")).kind is QueryKind.DATA_RPQ
        assert Query.of(parse_rem("!x.(a[x=])")).kind is QueryKind.DATA_RPQ
        assert Query.of(DataRPQ(parse_ree("(a)="))).kind is QueryKind.DATA_RPQ
        assert Query.of(parse_gxpath_node("<a>")).kind is QueryKind.GXPATH_NODE
        assert Query.of(parse_gxpath_path("a.b")).kind is QueryKind.GXPATH_PATH

    def test_rejects_garbage(self):
        with pytest.raises(UnsupportedQueryError):
            Query.of(42)


class TestIntrospection:
    def test_key_is_stable_across_construction_paths(self):
        assert Query.rpq("a.b").key == Query.parse("a.b").key
        assert Query.rpq("a.b").key != Query.rpq("b.a").key
        # Same text in different languages must not collide.
        assert Query.parse("a.b", "rpq").key != Query.parse("a.b", "gxpath-path").key

    def test_arity(self):
        assert Query.rpq("a").arity == 2
        assert Query.data_rpq("(a)=").arity == 2
        assert Query.gxpath("<a>").arity == 1
        assert Query.gxpath("a.b").arity == 2
        assert Query.crpq(("x",), [("x", "a", "y")]).arity == 1
        assert Query.crpq((), [("x", "a", "y")]).arity == 0

    def test_labels(self):
        assert Query.rpq("a.b|c").labels() == {"a", "b", "c"}
        assert Query.data_rpq("(a.b)=").labels() == {"a", "b"}
        assert Query.gxpath("<a.[<b>]>").labels() == {"a", "b"}
        conjunctive = Query.crpq(
            ("x", "y"), [("x", "a", "y"), ("y", equality_rpq("(b)=").expression, "x")]
        )
        assert conjunctive.labels() == {"a", "b"}

    def test_str_mentions_kind(self):
        assert str(Query.rpq("a")).startswith("rpq:")

    def test_usable_as_dict_key(self):
        cache = {Query.parse("(a)=", "ree"): 1}
        assert cache[Query.data_rpq(parse_ree("(a)="))] == 1
