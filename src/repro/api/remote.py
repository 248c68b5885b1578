"""The client half of the serving protocol: sessions over a socket.

:func:`connect` dials a :class:`~repro.server.daemon.ReproServer` (TCP
``(host, port)`` tuple or Unix-socket path) and returns a
:class:`RemoteSession` — the remote twin of
:class:`~repro.api.session.GraphSession`, implementing the same
:class:`~repro.api.protocol.SessionProtocol` surface:

>>> with connect(("127.0.0.1", 7464)) as session:   # doctest: +SKIP
...     session.run("knows.knows").count()
...     session.targets("knows", "alice")

Answers travel as the structural JSON of :mod:`repro.api.wire` and are
rebuilt into real :class:`~repro.datagraph.node.Node` objects, so the
:class:`~repro.api.result.Result` a remote run returns behaves exactly
like a local one (``rows`` / ``pairs`` / ``nodes`` / ``holds`` /
``to_json``) — it just carries no graph, so ``holds`` resolves bare ids
against the answer set itself.

One session maps to one connection; requests on it are serialised (the
protocol answers in order), so share a session across threads only with
external locking, or open one session per thread — the server isolates
each connection's caches anyway.  Server-side failures come back as
tagged error frames and re-raise here as the matching
:class:`~repro.exceptions.ReproError` subclass; ``busy`` (admission
backpressure) and ``timeout`` (query deadline) raise
:class:`ServerBusyError` / :class:`QueryTimeoutError` so callers can
retry deliberately.  A draining server answers ``shutting_down`` —
raised here as :class:`ServerShuttingDownError`, both for rejected new
requests and for the unsolicited farewell frame a graceful shutdown
sends instead of hard-closing the socket.
"""

from __future__ import annotations

import itertools
import json
import socket
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

from ..datagraph.node import Node, NodeId
from ..engine.bitrelation import CachedRelation
from ..engine.cache import CacheStats
from ..exceptions import (
    EvaluationError,
    GraphError,
    ParseError,
    ReproError,
    SerializationError,
    UnknownNodeError,
)
from ..server.protocol import MAX_FRAME_BYTES, ProtocolError, recv_frame, send_frame
from . import wire
from .protocol import SessionProtocol
from .query import Query, QueryLike
from .result import Result

__all__ = [
    "connect",
    "RemoteSession",
    "ServerBusyError",
    "QueryTimeoutError",
    "ServerShuttingDownError",
]

Address = Union[str, Tuple[str, int]]


class ServerBusyError(EvaluationError):
    """The server rejected the request for backpressure; retry later."""


class QueryTimeoutError(EvaluationError):
    """The query exceeded its server-side deadline; its answer is discarded."""


class ServerShuttingDownError(EvaluationError):
    """The server is draining for shutdown and takes no new work."""


#: Exceptions re-raised from wire error tags (the daemon's inverse map).
_ERROR_CLASSES = {
    "busy": ServerBusyError,
    "timeout": QueryTimeoutError,
    "shutting_down": ServerShuttingDownError,
    "parse": ParseError,
    "unknown_node": UnknownNodeError,
    "graph": GraphError,
    "serialization": SerializationError,
    "evaluation": EvaluationError,
    "protocol": ProtocolError,
}


def _reply_error(response: dict) -> dict:
    """A reply's ``error`` object (``{}`` when it has none); anything but
    an object whose ``type`` and ``message`` are strings is a
    :class:`ProtocolError`."""
    error = response.get("error") or {}
    if not isinstance(error, dict) or not all(
        isinstance(error.get(field, ""), str) for field in ("type", "message")
    ):
        raise ProtocolError(f"malformed error in reply: {error!r}")
    return error


def connect(
    address: Address,
    timeout: Optional[float] = None,
    connect_timeout: float = 10.0,
) -> "RemoteSession":
    """Open a session against a running server.

    *address* is a ``(host, port)`` tuple for TCP or a filesystem path
    (``str`` / ``Path``) for a Unix-domain socket.  *timeout* becomes the
    session's default per-query deadline in seconds, enforced
    server-side (the server's own configured deadline still caps it).
    """
    if isinstance(address, (str, Path)):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(connect_timeout)
        sock.connect(str(address))
    else:
        host, port = address
        sock = socket.create_connection((host, port), timeout=connect_timeout)
    sock.settimeout(None)  # blocking I/O; the server enforces deadlines
    return RemoteSession(sock, address, default_timeout=timeout)


class RemoteSession(SessionProtocol):
    """A :class:`~repro.api.protocol.SessionProtocol` over one connection.

    Built by :func:`connect`; not constructed directly.  ``close`` (or
    the context manager) releases the socket; every method raises
    :class:`~repro.exceptions.EvaluationError` once closed.  Replies are
    decoded through one node table kept for the life of the connection
    (:func:`repro.api.wire.decode_answers`), so each node is built once
    per connection, not once per reply.  A reply that fails to frame, or
    that does not carry its request's ``id``, closes the session: the
    stream past it cannot be trusted to be in step.
    """

    def __init__(
        self,
        sock: socket.socket,
        address: Address,
        default_timeout: Optional[float] = None,
    ):
        self._sock: Optional[socket.socket] = sock
        self.address = address
        self.default_timeout = default_timeout
        self._request_ids = itertools.count(1)
        self._nodes: wire.NodeTable = {}

    # ------------------------------------------------------------------
    # Protocol plumbing
    # ------------------------------------------------------------------
    def _call(self, op: str, **fields: Any) -> Dict[str, Any]:
        sock = self._sock
        if sock is None:
            raise EvaluationError("remote session is closed")
        rid = next(self._request_ids)
        request = {"id": rid, "op": op}
        for key, value in fields.items():
            if value is not None:
                request[key] = value
        sent = False
        try:
            send_frame(sock, request, MAX_FRAME_BYTES)
            sent = True
            response = recv_frame(sock, MAX_FRAME_BYTES)
        except OSError as error:
            self.close()
            raise EvaluationError(f"server connection lost: {error}") from error
        except ProtocolError:
            # A request send_frame refused never reached the socket; past
            # a reply that failed to frame, the stream cannot be read.
            if sent:
                self.close()
            raise
        if response is None:
            self.close()
            raise EvaluationError("server closed the connection")
        if not isinstance(response, dict) or response.get("id") != rid:
            # Not the reply to this request — the unsolicited farewell of
            # a graceful shutdown, or a stream out of step: close either way.
            self.close()
            if not isinstance(response, dict):
                raise ProtocolError(f"malformed response frame {response!r}")
            message = _reply_error(response).get("message")
            if response.get("shutting_down"):
                raise ServerShuttingDownError(message or "server is shutting down")
            raise ProtocolError(message or f"reply {response.get('id')!r} does not answer request {rid}")
        if response.get("ok"):
            return response
        error = _reply_error(response)
        error_type = error.get("type", "error")
        message = error.get("message", "server error")
        raise _ERROR_CLASSES.get(error_type, ReproError)(message)

    def _query_timeout(self, timeout: Optional[float]) -> Optional[float]:
        return self.default_timeout if timeout is None else timeout

    # ------------------------------------------------------------------
    # SessionProtocol surface
    # ------------------------------------------------------------------
    def run(
        self,
        query: QueryLike,
        null_semantics: bool = False,
        timeout: Optional[float] = None,
    ) -> Result:
        """Evaluate one query on the server; an eager graph-less Result."""
        plan = Query.of(query)
        response = self._call(
            "run",
            query=wire.encode_query(plan),
            null_semantics=null_semantics or None,
            timeout=self._query_timeout(timeout),
        )
        entry = CachedRelation(answer=wire.decode_answers(plan, response.get("answers"), self._nodes))
        result = Result(plan, None, lambda: entry)
        result._entry()
        return result

    def run_many(
        self,
        queries: Sequence[QueryLike],
        null_semantics: bool = False,
        timeout: Optional[float] = None,
    ) -> List[Result]:
        """Evaluate a batch in one round trip; one Result per query."""
        plans = [Query.of(query) for query in queries]
        response = self._call(
            "run_many",
            queries=[wire.encode_query(plan) for plan in plans],
            null_semantics=null_semantics or None,
            timeout=self._query_timeout(timeout),
        )
        documents = response.get("answers")
        if not isinstance(documents, list) or len(documents) != len(plans):
            raise ProtocolError(f"run_many answered {documents!r} for {len(plans)} queries")
        results: List[Result] = []
        for plan, document in zip(plans, documents):
            entry = CachedRelation(answer=wire.decode_answers(plan, document, self._nodes))
            result = Result(plan, None, lambda entry=entry: entry)
            result._entry()
            results.append(result)
        return results

    def targets(
        self,
        query: QueryLike,
        source: NodeId,
        null_semantics: bool = False,
        timeout: Optional[float] = None,
    ) -> FrozenSet[Node]:
        """Single-source answers, served from the server's point cache."""
        plan = Query.of(query)
        response = self._call(
            "targets",
            query=wire.encode_query(plan),
            source=wire.encode_value(source),
            null_semantics=null_semantics or None,
            timeout=self._query_timeout(timeout),
        )
        return wire.decode_nodes(response.get("nodes"), self._nodes)

    def explain(self, query: QueryLike) -> str:
        """The server-side execution plan as text."""
        return str(self._call("explain", query=wire.encode_query(Query.of(query)))["text"])

    def stats(self) -> Mapping[str, CacheStats]:
        """This connection's server-side cache counters as CacheStats."""
        caches = self._call("stats").get("caches") or {}
        return {
            name: CacheStats(
                hits=view.get("hits", 0),
                misses=view.get("misses", 0),
                evictions=view.get("evictions", 0),
                size=view.get("size", 0),
                maxsize=view.get("maxsize", 0),
            )
            for name, view in caches.items()
        }

    def save_point_cache(
        self, path: Union[str, Path], max_entries: Optional[int] = None
    ) -> int:
        """Fetch the server session's point-cache snapshot, write it locally."""
        response = self._call("point_cache", max_entries=max_entries)
        payload = response.get("payload")
        if not isinstance(payload, dict):
            raise ProtocolError(f"malformed point-cache payload {payload!r}")
        Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")
        return len(payload.get("entries", {}))

    # ------------------------------------------------------------------
    # Server management (beyond the SessionProtocol surface)
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        """Round-trip liveness check."""
        return bool(self._call("ping").get("pong"))

    def load_graph(self, graph_or_document) -> Dict[str, Any]:
        """Install a graph on the server (a DataGraph or its dict form)."""
        from ..server.daemon import graph_document

        document = (
            graph_or_document
            if isinstance(graph_or_document, dict)
            else graph_document(graph_or_document)
        )
        response = self._call("load_graph", graph=document)
        return {key: response[key] for key in ("name", "num_nodes", "num_edges", "version")}

    def mutate(self, actions: Sequence[Sequence[Any]]) -> Dict[str, Any]:
        """Apply graph mutations, e.g. ``[["add_edge", "a", "r", "b"]]``."""
        encoded = []
        for action in actions:
            verb, *args = action
            if verb in ("add_node", "set_value"):
                encoded.append([verb, wire.encode_value(args[0]), wire.encode_value(args[1])])
            elif verb in ("add_edge", "remove_edge"):
                encoded.append(
                    [verb, wire.encode_value(args[0]), str(args[1]), wire.encode_value(args[2])]
                )
            elif verb == "remove_node":
                encoded.append([verb, wire.encode_value(args[0])])
            else:
                raise SerializationError(f"unknown mutate action {verb!r}")
        response = self._call("mutate", actions=encoded)
        summary = {
            key: response[key] for key in ("applied", "version", "num_nodes", "num_edges")
        }
        if "delta" in response:
            summary["delta"] = response["delta"]
        return summary

    def metrics(self) -> Dict[str, Any]:
        """The server's metrics snapshot (counters, latency, in-flight queries)."""
        return dict(self._call("metrics").get("metrics") or {})

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the connection; idempotent."""
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:  # pragma: no cover - double close
                pass

    @property
    def closed(self) -> bool:
        return self._sock is None

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"<RemoteSession {self.address!r} ({state})>"
