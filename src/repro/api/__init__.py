"""The unified public execution API: query IR, sessions, policies.

This sub-package is the one front door to query evaluation.  Every
language of the paper — RPQs, data RPQs (REE/REM), conjunctive RPQs and
GXPath node/path expressions — normalises into a single tagged, hashable
:class:`Query` plan, and every plan executes through a
:class:`GraphSession` that binds a graph, a shared evaluation engine and
an :class:`ExecutionPolicy`:

.. code-block:: python

    from repro.api import ExecutionPolicy, GraphSession, Query

    session = GraphSession(graph)
    session.run(Query.rpq("knows.knows")).pairs()
    session.run(Query.parse("(knows)=", dialect="ree")).holds("ann", "ben")
    session.run(Query.gxpath("<a.[<b>]>")).nodes()

    batch = [Query.rpq(text) for text in workload]
    results = session.run_many(batch)           # in order, each plan once
    forced = GraphSession(graph, policy=ExecutionPolicy(backend="sql"))

Sessions memoise answers keyed on the graph's mutation counter
(``graph.version``), so results are never stale and mutations never need
explicit invalidation.

The same surface is served remotely: :func:`connect` dials a
``repro serve`` daemon and returns a :class:`RemoteSession` — the other
implementation of :class:`~repro.api.protocol.SessionProtocol`, so library code written
against the protocol runs unchanged in-process or against a server:

.. code-block:: python

    from repro.api import connect

    with connect(("127.0.0.1", 7464)) as session:
        session.run("knows.knows").count()
"""

from .executors import ExecutionPolicy
from .query import Query, QueryKind
from .remote import RemoteSession, connect
from .result import Result
from .session import GraphSession

__all__ = [
    "Query",
    "QueryKind",
    "Result",
    "GraphSession",
    "RemoteSession",
    "connect",
    "ExecutionPolicy",
]
