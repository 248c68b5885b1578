"""Structural JSON wire codec for queries, answers and data values.

The remote session (:mod:`repro.api.remote`) and the server
(:mod:`repro.server`) exchange queries and answer sets as JSON frames.
Rendering a plan back to text is **not** a faithful transport — the
pretty-printers use symbols the parsers do not all accept (``·``, ``↓``,
``⟨⟩``) and CRPQ atoms lose their dialect tags — so the codec here walks
the plan ASTs *structurally* instead: every plan node is a frozen
dataclass with a unique class name, and a document of the shape
``{"%": "ClassName", "f": {field: ...}}`` round-trips it exactly.  The
decoder only instantiates classes from the fixed registry below, so a
hostile frame can name no other constructor (this is why the protocol is
JSON and not pickle).

Data values and node ids travel as JSON scalars; tuples (the
property-graph id encoding) are tagged ``{"%": "tuple", ...}``; the SQL
null maps to JSON ``null``.  Non-scalar ids or values raise
:class:`~repro.exceptions.SerializationError`, matching the graph
serialiser's contract.

Answer sets travel as **rows over one node column** — the distinct nodes
of the answer, each ``[id, value]`` once, plus integer index rows into
that column (:func:`encode_answers`) — so a reply is O(answer) bytes, the
same bytes for the same answer, and the decoder builds each
:class:`~repro.datagraph.node.Node` once — once per connection when the
caller keeps a node table (:func:`decode_answers`).  The daemon encodes a session's
cached relation straight from its bit rows (:func:`encode_entry`) into
those same bytes, once per cache entry; a remote
:class:`~repro.api.result.Result` behaves exactly like a local one.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from itertools import chain, repeat
from typing import Any, Dict, FrozenSet, KeysView, List, Optional, Tuple

from ..datagraph.node import Node, index_rows, sorted_column
from ..datagraph.values import NULL, is_null
from ..datapaths import conditions as _conditions
from ..datapaths import ree as _ree
from ..datapaths import rem as _rem
from ..engine.bitrelation import BitRelation, CachedRelation
from ..exceptions import SerializationError
from ..gxpath import ast as _gxpath
from ..query.crpq import Atom, ConjunctiveRPQ
from ..query.data_rpq import DataRPQ
from ..query.rpq import RPQ
from ..regular import ast as _regular
from .query import Query, QueryKind

__all__ = [
    "encode_query",
    "decode_query",
    "encode_answers",
    "encode_entry",
    "decode_answers",
    "encode_value",
    "decode_value",
    "encode_node",
    "decode_node",
]

#: Every plan-AST class a wire document may instantiate.  Class names are
#: the wire tags, so they must stay unique across languages (checked at
#: import time below).
_PLAN_CLASSES = (
    # query wrappers
    RPQ,
    DataRPQ,
    Atom,
    ConjunctiveRPQ,
    # plain regular expressions
    _regular.Epsilon,
    _regular.Letter,
    _regular.Concat,
    _regular.Union,
    _regular.Star,
    _regular.Plus,
    # regular expressions with equality
    _ree.ReeEpsilon,
    _ree.ReeLetter,
    _ree.ReeConcat,
    _ree.ReeUnion,
    _ree.ReePlus,
    _ree.ReeEqualTest,
    _ree.ReeNotEqualTest,
    # regular expressions with memory + register conditions
    _rem.RemEpsilon,
    _rem.RemLetter,
    _rem.RemConcat,
    _rem.RemUnion,
    _rem.RemPlus,
    _rem.RemTest,
    _rem.RemBind,
    _conditions.TrueCondition,
    _conditions.Equal,
    _conditions.NotEqual,
    _conditions.And,
    _conditions.Or,
    # GXPath path and node expressions
    _gxpath.PathEpsilon,
    _gxpath.Axis,
    _gxpath.AxisStar,
    _gxpath.PathConcat,
    _gxpath.PathUnion,
    _gxpath.PathEqual,
    _gxpath.PathNotEqual,
    _gxpath.NodeTest,
    _gxpath.NodeNot,
    _gxpath.NodeAnd,
    _gxpath.NodeOr,
    _gxpath.NodeExists,
)

_REGISTRY: Dict[str, type] = {cls.__name__: cls for cls in _PLAN_CLASSES}
if len(_REGISTRY) != len(_PLAN_CLASSES):  # pragma: no cover - import-time invariant
    raise AssertionError("wire registry requires unique plan class names")

#: Each registry class's dataclass field names: a keys view, iterated in
#: declaration order by the encoder, compared as a set by the decoder.
_FIELDS: Dict[type, KeysView] = {
    cls: dict.fromkeys(field.name for field in dataclasses.fields(cls)).keys()
    for cls in _PLAN_CLASSES
}

_SCALARS = (str, int, float, bool)


# ----------------------------------------------------------------------
# Plan documents
# ----------------------------------------------------------------------
def _encode_plan(obj: Any) -> Any:
    if obj is None or isinstance(obj, _SCALARS):
        return obj
    if isinstance(obj, tuple):
        return {"%": "tuple", "items": [_encode_plan(item) for item in obj]}
    names = _FIELDS.get(type(obj))
    if names is not None:
        return {"%": type(obj).__name__, "f": {name: _encode_plan(getattr(obj, name)) for name in names}}
    raise SerializationError(f"cannot encode plan node {obj!r} for the wire")


def _decode_plan(doc: Any) -> Any:
    if doc is None or isinstance(doc, _SCALARS):
        return doc
    if not isinstance(doc, dict) or "%" not in doc:
        raise SerializationError(f"malformed plan document {doc!r}")
    tag = doc["%"]
    if tag == "tuple":
        items = doc.get("items")
        if not isinstance(items, list):
            raise SerializationError(f"malformed tuple document {doc!r}")
        return tuple(_decode_plan(item) for item in items)
    cls = _REGISTRY.get(tag)
    if cls is None:
        raise SerializationError(f"unknown plan class {tag!r} in wire document")
    fields = doc.get("f")
    if not isinstance(fields, dict):
        raise SerializationError(f"malformed plan document for {tag!r}")
    expected = _FIELDS[cls]
    if fields.keys() != expected:
        raise SerializationError(
            f"plan document for {tag!r} has fields {sorted(fields)}, expected {sorted(expected)}"
        )
    try:
        return cls(**{name: _decode_plan(value) for name, value in fields.items()})
    except SerializationError:
        raise
    except Exception as error:
        raise SerializationError(f"cannot rebuild plan node {tag!r}: {error}") from error


def encode_query(query: Query) -> Dict[str, Any]:
    """A JSON-compatible document for one :class:`~repro.api.query.Query`."""
    return {"kind": query.kind.value, "plan": _encode_plan(query.plan)}


def decode_query(doc: Any) -> Query:
    """Rebuild a :class:`Query` from :func:`encode_query` output.

    The plan is re-tagged through :meth:`Query.of`, so the declared kind
    is cross-checked against the decoded plan's actual language — a
    document claiming an RPQ kind over a GXPath plan is rejected.
    """
    if not isinstance(doc, dict):
        raise SerializationError(f"malformed query document {doc!r}")
    try:
        kind = QueryKind(doc.get("kind"))
    except ValueError:
        raise SerializationError(f"unknown query kind {doc.get('kind')!r}") from None
    from ..exceptions import UnsupportedQueryError

    try:
        query = Query.of(_decode_plan(doc.get("plan")))
    except UnsupportedQueryError as error:
        # A scalar or missing plan decodes to a non-plan object Query.of
        # cannot tag — a malformed document, not an unsupported query.
        raise SerializationError(f"malformed query document {doc!r}: {error}") from None
    if query.kind is not kind:
        raise SerializationError(
            f"query document declares kind {kind.value!r} but the plan is {query.kind.value!r}"
        )
    return query


# ----------------------------------------------------------------------
# Values, nodes, answers
# ----------------------------------------------------------------------
def encode_value(value: Any) -> Any:
    """A data value or node id as a JSON-compatible document.

    ``None`` normalises to the SQL null on the way through, matching the
    graph serialiser (:mod:`repro.datagraph.serialization`).
    """
    if value is None or is_null(value):
        return None
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, tuple):
        return {"%": "tuple", "items": [encode_value(item) for item in value]}
    raise SerializationError(f"value {value!r} is not wire-encodable")


def decode_value(doc: Any) -> Any:
    """The inverse of :func:`encode_value` (JSON ``null`` is the SQL null)."""
    if doc is None:
        return NULL
    if isinstance(doc, _SCALARS):
        return doc
    if isinstance(doc, dict) and doc.get("%") == "tuple":
        items = doc.get("items")
        if isinstance(items, list):
            return tuple(decode_value(item) for item in items)
    raise SerializationError(f"malformed value document {doc!r}")


def encode_node(node: Node) -> Any:
    """One graph node as a ``[id, value]`` pair."""
    return [encode_value(node.id), encode_value(node.value)]


def decode_node(doc: Any) -> Node:
    return _decoded_column([doc])[0]


#: A client's node table: an ``[id, value]`` entry's id spelling → its
#: value spelling and the :class:`Node` decoded from the two.
NodeTable = Dict[Any, Tuple[Any, Node]]


def _decoded_column(docs: List, table: Optional[NodeTable] = None) -> List[Node]:
    """The :class:`Node` of every ``[id, value]`` entry of *docs*, each
    taken from *table* (a fresh one when omitted) when it holds that id
    with that value, else decoded and stored there in place of the id's
    previous entry.

    A spelling is the JSON scalar itself for a string (and for an ``int``
    value), else the 1-tuple of its ``repr``: ``1``, ``1.0`` and ``True``
    are one dict key but three spellings, a NaN always spells ``'nan'``
    and a tuple document spells every item's type.  Equal spellings
    decode to identical ids and values, so a node from the table is the
    node a fresh decode builds, and the table holds one entry per id
    spelling."""
    if table is None:
        table = {}
    column: List[Node] = []
    append, get = column.append, table.get
    for doc in docs:
        if not isinstance(doc, list) or len(doc) != 2:
            raise SerializationError(f"malformed node document {doc!r}")
        id_doc, value_doc = doc
        key = id_doc if id_doc.__class__ is str else (repr(id_doc),)
        kind = value_doc.__class__
        spelling = value_doc if kind is str or kind is int else (repr(value_doc),)
        entry = get(key)
        if entry is None or entry[0] != spelling:
            entry = table[key] = (spelling, Node(decode_value(id_doc), decode_value(value_doc)))
        append(entry[1])
    return column


def _answer_shape(query: Query) -> str:
    if query.kind is QueryKind.GXPATH_NODE:
        return "nodes"
    return "relation" if query.arity == 2 else "tuples"


def encode_answers(query: Query, answers: frozenset) -> Dict[str, Any]:
    """One query's raw answer set as index rows over its node column.

    ``nodes`` is the column: the distinct nodes of *answers*, sorted.
    A ``relation`` (arity 2) adds ``targets`` — ascending column indices —
    and, aligned with it, ``rows``: each target's sources, ascending;
    ``tuples`` (any other arity) adds ``rows``, the answers as sorted index
    tuples; for ``nodes`` (GXPath node expressions) the column is the answer.
    """
    shape = _answer_shape(query)
    if shape == "nodes":
        column, document = sorted(answers, key=Node.sort_key), {}
    elif shape == "tuples":
        column, indexed = index_rows(answers, query.arity)
        document = {"rows": indexed}
    else:
        flat = list(chain.from_iterable(answers))
        column, index = sorted_column(flat)
        indices = list(map(index.__getitem__, flat))
        sources_of = defaultdict(list)
        for source, target in zip(indices[0::2], indices[1::2]):
            sources_of[target].append(source)
        targets = sorted(sources_of)
        document = {"targets": targets, "rows": [sorted(sources_of[at]) for at in targets]}
    return {"shape": shape, "nodes": [encode_node(node) for node in column], **document}


def encode_entry(query: Query, entry: CachedRelation) -> Dict[str, Any]:
    """A session's result-cache *entry* for *query* as the document
    :func:`encode_answers` builds from its answer.

    A relation entry with bit rows is encoded from the row masks against
    the snapshot they were computed on (``entry.snapshot``), never
    touching — or decoding — its pairs; any other entry from its decoded
    answer.
    """
    if entry.bits is None or _answer_shape(query) != "relation":
        return encode_answers(query, entry.pairs())
    column, document = _relation_from_rows(entry.bits, entry.snapshot)
    return {"shape": "relation", "nodes": [encode_node(node) for node in column], **document}


def _relation_from_rows(bits: BitRelation, compact) -> Tuple[List[Node], Dict[str, Any]]:
    """:func:`encode_answers`' relation column and document from *bits*
    over *compact*'s ordering (or a prefix of it): the used positions (the
    rows' OR plus their targets) in sort-key rank, then each row's members
    as ascending column indices."""
    rows, used = bits.rows, 0
    for at, mask in rows.items():
        used |= mask | (1 << at)
    size = len(bits.nodes)
    positions = sorted(BitRelation.members(used, range(size)), key=compact.sort_ranks.__getitem__)
    index = [0] * size
    for at, position in enumerate(positions):
        index[position] = at
    targets, sources, expanded = [], [], {}
    for at, position in enumerate(positions):
        mask = rows.get(position)
        if mask:
            row = expanded.get(mask)
            if row is None:
                row = expanded[mask] = sorted(BitRelation.members(mask, index))
            targets.append(at)
            sources.append(row)
    objects = compact.node_objects
    return [objects[position] for position in positions], {"targets": targets, "rows": sources}


def _checked_indices(indices: List, size: int) -> List:
    """*indices* once every one is an ``int`` inside a column of *size*
    (a negative one would wrap, ``true`` would pass for ``1``) — three C
    passes, after which indexing the column cannot fail."""
    if indices and not (set(map(type, indices)) == {int} and 0 <= min(indices) <= max(indices) < size):
        raise SerializationError(f"answer rows must index a column of {size} nodes")
    return indices


def decode_answers(query: Query, doc: Any, table: Optional[NodeTable] = None) -> FrozenSet:
    """Rebuild the raw answer set :func:`encode_answers` described.

    The shape is driven by *query*, so the result is exactly what a local
    evaluation would have produced.  Every malformed document raises
    :class:`~repro.exceptions.SerializationError`: another shape, a
    missing or non-list field, an index that is no integer inside the
    column, a wrong-arity, empty or repeated row, a repeated answer.
    Column nodes come from *table* (a fresh one when omitted), which a
    caller keeps across replies to build each node once.
    """
    shape = _answer_shape(query)
    if not isinstance(doc, dict) or doc.get("shape") != shape:
        found = doc.get("shape") if isinstance(doc, dict) else doc
        raise SerializationError(f"{query} is answered by a {shape!r} document, got {found!r}")
    nodes = doc.get("nodes")
    if not isinstance(nodes, list):
        raise SerializationError(f"{shape!r} answers document has no node column")
    column = _decoded_column(nodes, table)
    pick = column.__getitem__
    rows = doc.get("rows")
    try:
        if shape == "nodes":
            answers, count = frozenset(column), len(column)
        elif shape == "tuples":
            arity, count = query.arity, len(rows)
            if set(map(len, rows)) - {arity}:
                raise SerializationError(f"{query} is answered by rows of {arity} indices")
            indices = _checked_indices(list(chain.from_iterable(rows)), len(column))
            # One iterator, *arity* times: zip deals the flat nodes back into rows.
            answers = frozenset(zip(*[map(pick, indices)] * arity) if arity else map(tuple, rows))
        else:
            targets = doc.get("targets")
            indices = _checked_indices([*targets, *chain.from_iterable(rows)], len(column))
            count = len(indices) - len(targets)
            if not (len(targets) == len(rows) == len(set(targets)) and all(rows)):
                raise SerializationError("a relation needs one non-empty row per distinct target")
            answers = frozenset(
                chain.from_iterable(
                    zip(map(pick, row), repeat(target))
                    for row, target in zip(rows, map(pick, targets))
                )
            )
    except TypeError as error:  # a field that is no list (of lists)
        raise SerializationError(f"malformed {shape!r} answers document: {error}") from error
    if len(answers) != count:
        raise SerializationError(f"{shape!r} answers document repeats a node or an answer")
    return answers


def decode_nodes(doc: Any, table: Optional[NodeTable] = None) -> FrozenSet[Node]:
    """A bare node set (the ``targets`` reply shape), its nodes taken from
    *table* as :func:`decode_answers` takes them; a repeated node raises."""
    if not isinstance(doc, list):
        raise SerializationError(f"malformed node list {doc!r}")
    nodes = frozenset(_decoded_column(doc, table))
    if len(nodes) != len(doc):
        raise SerializationError("node list repeats a node")
    return nodes


def encode_nodes(nodes: FrozenSet[Node]) -> Tuple[Any, ...]:
    """A bare node set, deterministically ordered."""
    return tuple(encode_node(node) for node in sorted(nodes, key=Node.sort_key))
