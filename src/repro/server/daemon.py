"""The query daemon: one graph, many clients, one process.

:class:`ReproServer` owns a :class:`~repro.datagraph.graph.DataGraph`
and a listening socket (TCP or Unix-domain, per :class:`ServerConfig`),
and serves the length-prefixed JSON frames of :mod:`repro.server.protocol`
to any number of concurrent clients:

========== =========================================================
op          semantics
========== =========================================================
ping        liveness check
load_graph  replace the served graph (invalidates sessions)
mutate      apply add/remove/set actions as one batch delta
run         evaluate one query (admission control + timeout apply)
run_many    evaluate a batch of queries
targets     single-source answers of a binary query
explain     the execution plan as text
stats       the client session's cache counters
point_cache the session's point-cache snapshot payload
metrics     server-wide counters, latency histogram, in-flight queries
========== =========================================================

**Process model.**  The accept loop hands each connection to its own
thread, which reads frames serially and answers in order.  Query
operations (``run`` / ``run_many`` / ``targets``) are executed on a
bounded :class:`~concurrent.futures.ThreadPoolExecutor` —
``max_inflight`` workers plus a ``queue_depth``-bounded admission queue;
a client whose request finds both full gets an immediate ``busy`` error
(backpressure) instead of an unbounded wait.  Each query gets a
deadline: when ``future.result`` times out the daemon answers a
``timeout`` error; the query cannot be interrupted mid-kernel, so it
finishes on its executor thread and the answer is discarded.

**Isolation.**  Every connection gets its own
:class:`~repro.api.session.GraphSession` over the shared graph, with the
default :class:`~repro.api.executors.ExecutionPolicy` (only the
configured ``backend`` is threaded in): result caches, point caches and
loaded snapshots are per-client, the compiled-automaton engine is
shared, and nothing forks — a ``run_many`` batch runs in order on its
connection's thread, and the daemon already multiplexes clients over
its threads.  Queries run in-process on
the session's bit rows, and a relation answer is encoded straight from
them.
"""

from __future__ import annotations

import contextlib
import signal
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor, TimeoutError as FutureTimeout
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

from ..api.executors import ExecutionPolicy
from ..api.session import GraphSession
from ..api import wire
from ..datagraph.graph import DataGraph
from ..datagraph.serialization import graph_from_dict, graph_to_dict
from ..exceptions import (
    EvaluationError,
    GraphError,
    ParseError,
    ReproError,
    SerializationError,
    UnknownNodeError,
)
from .metrics import ServerMetrics, cache_stats_view
from .protocol import MAX_FRAME_BYTES, ProtocolError, error_payload, recv_frame, send_frame

__all__ = ["ServerConfig", "ReproServer"]

#: Wire error-type tags by exception class (first match wins).
_ERROR_TYPES = (
    (ProtocolError, "protocol"),
    (ParseError, "parse"),
    (UnknownNodeError, "unknown_node"),
    (GraphError, "graph"),
    (SerializationError, "serialization"),
    (EvaluationError, "evaluation"),
    (ReproError, "error"),
)


def _error_type(error: BaseException) -> str:
    for cls, tag in _ERROR_TYPES:
        if isinstance(error, cls):
            return tag
    return "internal"


@dataclass(frozen=True)
class ServerConfig:
    """Daemon tuning knobs; every field has a serviceable default.

    ``path`` selects a Unix-domain socket and wins over ``host:port``;
    ``port=0`` binds an ephemeral TCP port (read it back from
    :attr:`ReproServer.address`).  ``query_timeout`` is the default
    per-query deadline in seconds (``None``: no deadline); a request may
    pass its own ``timeout``, capped by this value when both are set.
    ``drain_grace`` bounds the graceful-shutdown drain: in-flight
    queries get up to this many seconds to finish (each still capped by
    its own deadline) before remaining connections are told
    ``shutting_down`` and closed.
    """

    host: str = "127.0.0.1"
    port: int = 0
    path: Optional[str] = None
    max_inflight: int = 8
    queue_depth: int = 16
    query_timeout: Optional[float] = None
    max_frame_bytes: int = MAX_FRAME_BYTES
    drain_grace: float = 5.0
    #: Storage/execution backend client sessions evaluate over
    #: (``"auto"`` / ``"compact"`` / ``"dict"`` / ``"sql"``); threaded
    #: into every session policy this daemon builds.
    backend: str = "auto"

    def __post_init__(self):
        from ..api.executors import STORAGE_BACKENDS

        if self.backend not in STORAGE_BACKENDS:
            raise EvaluationError(
                f"unknown backend {self.backend!r}; "
                f"expected one of {', '.join(STORAGE_BACKENDS)}"
            )
        if self.max_inflight < 1:
            raise EvaluationError(f"max_inflight must be positive, got {self.max_inflight}")
        if self.queue_depth < 0:
            raise EvaluationError(f"queue_depth must be non-negative, got {self.queue_depth}")
        if self.query_timeout is not None and self.query_timeout <= 0:
            raise EvaluationError(f"query_timeout must be positive, got {self.query_timeout}")
        if self.drain_grace < 0:
            raise EvaluationError(f"drain_grace must be non-negative, got {self.drain_grace}")


class _Connection:
    """Per-client state: the socket, its session, a write lock."""

    def __init__(self, sock: socket.socket, peer: str):
        self.sock = sock
        self.peer = peer
        self.session: Optional[GraphSession] = None
        self.generation = -1
        self.write_lock = threading.Lock()


class ReproServer:
    """A daemon serving one graph to many concurrent clients.

    >>> server = ReproServer(graph)           # doctest: +SKIP
    >>> server.start()                        # doctest: +SKIP
    >>> host, port = server.address           # doctest: +SKIP
    ... # clients connect via repro.api.connect((host, port))
    >>> server.shutdown()                     # doctest: +SKIP
    """

    def __init__(self, graph: Optional[DataGraph] = None, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        self.metrics = ServerMetrics()
        self._graph = graph
        self._generation = 0
        self._graph_lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._executor = ThreadPoolExecutor(
            self.config.max_inflight, thread_name_prefix="repro-query"
        )
        # Admission: max_inflight running + queue_depth waiting; a request
        # that cannot take a slot without blocking is rejected outright.
        self._slots = threading.BoundedSemaphore(
            self.config.max_inflight + self.config.queue_depth
        )
        self._connections: Dict[int, _Connection] = {}
        self._connections_lock = threading.Lock()
        self._stopping = threading.Event()
        self._draining = threading.Event()
        self._stop_requested = threading.Event()
        self._shutdown_lock = threading.Lock()
        self._shutdown_done = False
        self._requests_active = 0
        self._requests_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Union[Tuple[str, int], str]:
        """Bind, start the accept loop, return the bound address."""
        if self._listener is not None:
            raise EvaluationError("server already started")
        if self.config.path is not None:
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            with contextlib.suppress(FileNotFoundError):
                import os

                os.unlink(self.config.path)
            listener.bind(self.config.path)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.config.host, self.config.port))
        listener.listen(64)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-accept", daemon=True
        )
        self._accept_thread.start()
        return self.address

    @property
    def address(self) -> Union[Tuple[str, int], str]:
        """The bound address: ``(host, port)`` for TCP, the path for Unix."""
        if self._listener is None:
            raise EvaluationError("server not started")
        if self.config.path is not None:
            return self.config.path
        host, port = self._listener.getsockname()[:2]
        return (host, port)

    def request_stop(self) -> None:
        """Ask :meth:`serve_forever` to drain and return.

        Signal- and thread-safe (it only sets an event), so it can be
        installed as a signal handler *before* :meth:`start` — closing
        the window where a busy accept loop holds the GIL and a signal
        would still hit the interpreter's default handler.
        """
        self._stop_requested.set()

    def serve_forever(self) -> None:
        """Block until :meth:`shutdown` or ``SIGTERM`` (for the CLI's ``serve``).

        ``SIGTERM`` triggers the same graceful drain as
        :meth:`shutdown`: in-flight queries finish within
        ``drain_grace`` seconds, then clients get a ``shutting_down``
        frame instead of a hard close.  The handler is only installed
        when running on the main thread (``signal`` refuses elsewhere);
        it is installed before the listener starts so there is no
        accepting-but-not-yet-graceful window.
        """
        previous = None
        try:
            previous = signal.signal(signal.SIGTERM, lambda *_: self.request_stop())
        except ValueError:  # not the main thread; rely on shutdown()
            previous = None
        if self._listener is None:
            self.start()
        try:
            while not self._stopping.is_set() and not self._stop_requested.wait(0.2):
                pass
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self.shutdown()
            if previous is not None:
                with contextlib.suppress(ValueError):
                    signal.signal(signal.SIGTERM, previous)

    def shutdown(self) -> None:
        """Drain in-flight queries, notify clients, close the listener.

        New query operations are rejected with a ``shutting_down`` error
        the moment shutdown begins; requests already executing get up to
        ``drain_grace`` seconds (each still bounded by its own per-query
        deadline) to answer.  Surviving connections are then sent one
        unsolicited ``shutting_down`` frame — remote clients surface it
        as :class:`~repro.api.remote.ServerShuttingDownError` instead of
        a bare connection reset — before the sockets close.
        """
        with self._shutdown_lock:
            if self._shutdown_done:
                return
            self._shutdown_done = True
        self._draining.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            with contextlib.suppress(OSError):
                listener.close()
        deadline = time.monotonic() + self.config.drain_grace
        while time.monotonic() < deadline:
            with self._requests_lock:
                if self._requests_active == 0:
                    break
            time.sleep(0.02)
        self._stopping.set()
        with self._connections_lock:
            connections = list(self._connections.values())
            self._connections.clear()
        farewell = error_payload(None, "shutting_down", "server is shutting down")
        farewell["shutting_down"] = True
        for connection in connections:
            with contextlib.suppress(OSError, ProtocolError):
                self._reply(connection, farewell)
            with contextlib.suppress(OSError):
                connection.sock.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                connection.sock.close()
        self._executor.shutdown(wait=False)
        if self.config.path is not None:
            with contextlib.suppress(OSError):
                import os

                os.unlink(self.config.path)

    def __enter__(self) -> "ReproServer":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Graph + session plumbing
    # ------------------------------------------------------------------
    def _install_graph(self, graph: DataGraph) -> None:
        """Swap the served graph: a new client-session generation."""
        with self._graph_lock:
            self._graph = graph
            self._generation += 1

    def _connection_session(self, connection: _Connection) -> GraphSession:
        """The connection's isolated session over the current graph."""
        with self._graph_lock:
            graph, generation = self._graph, self._generation
        if graph is None:
            raise EvaluationError("no graph loaded; send load_graph first")
        if connection.session is None or connection.generation != generation:
            connection.session = GraphSession(
                graph,
                policy=ExecutionPolicy(backend=self.config.backend),
                repair_listener=self._record_repair,
            )
            connection.generation = generation
        return connection.session

    def _record_repair(self, event: str) -> None:
        """Session maintenance callback: count repairs vs recomputes, and
        the re-answers decoded by difference."""
        if event == "repair":
            self.metrics.increment("result_repairs")
        elif event == "patched":
            self.metrics.increment("result_patched")
        else:
            self.metrics.increment("result_recomputes")

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        listener = self._listener
        while listener is not None and not self._stopping.is_set():
            try:
                sock, addr = listener.accept()
            except OSError:
                break  # listener closed by shutdown
            connection = _Connection(sock, str(addr))
            with self._connections_lock:
                self._connections[id(connection)] = connection
            self.metrics.increment("connections_total")
            self.metrics.increment("connections_active")
            thread = threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name=f"repro-client-{addr}",
                daemon=True,
            )
            thread.start()

    def _serve_connection(self, connection: _Connection) -> None:
        sock = connection.sock
        try:
            while not self._stopping.is_set():
                try:
                    request = recv_frame(sock, self.config.max_frame_bytes)
                except ProtocolError as error:
                    # The stream is unparseable past a bad frame: answer
                    # once (best effort) and drop the connection.
                    self.metrics.increment("protocol_errors")
                    with contextlib.suppress(OSError, ProtocolError):
                        self._reply(connection, error_payload(None, "protocol", str(error)))
                    break
                except OSError:
                    # A peer that closed with a reply still unread resets
                    # the connection: end it like a clean EOF.
                    break
                if request is None:
                    break  # clean EOF
                if not isinstance(request, dict):
                    self.metrics.increment("protocol_errors")
                    with contextlib.suppress(OSError, ProtocolError):
                        self._reply(
                            connection,
                            error_payload(None, "protocol", "request frame must be an object"),
                        )
                    break
                with self._requests_lock:
                    self._requests_active += 1
                try:
                    response = self._handle_request(connection, request)
                    try:
                        try:
                            self._reply(connection, response)
                        except ProtocolError as error:
                            # The reply outgrew ``max_frame_bytes``; nothing
                            # was sent, so say why and keep serving.
                            self.metrics.increment("unsendable_replies")
                            self._reply(
                                connection, error_payload(request.get("id"), "protocol", str(error))
                            )
                    except (OSError, ProtocolError):
                        self.metrics.increment("disconnects_mid_query")
                        break
                finally:
                    with self._requests_lock:
                        self._requests_active -= 1
        finally:
            with self._connections_lock:
                self._connections.pop(id(connection), None)
            self.metrics.increment("connections_active", -1)
            with contextlib.suppress(OSError):
                sock.close()

    def _reply(self, connection: _Connection, payload: Dict[str, Any]) -> None:
        with connection.write_lock:
            send_frame(connection.sock, payload, self.config.max_frame_bytes)

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def _handle_request(self, connection: _Connection, request: Dict[str, Any]) -> Dict[str, Any]:
        rid = request.get("id")
        op = request.get("op")
        if self._draining.is_set() and op in ("run", "run_many", "targets", "mutate", "load_graph"):
            return error_payload(
                rid, "shutting_down", "server is draining; no new work accepted"
            )
        try:
            if op == "ping":
                return {"id": rid, "ok": True, "pong": True}
            if op == "load_graph":
                return self._op_load_graph(rid, request)
            if op == "mutate":
                return self._op_mutate(rid, request)
            if op in ("run", "run_many", "targets"):
                return self._op_query(connection, rid, op, request)
            if op == "explain":
                session = self._connection_session(connection)
                query = wire.decode_query(request.get("query"))
                return {"id": rid, "ok": True, "text": session.explain(query)}
            if op == "stats":
                return self._op_stats(connection, rid)
            if op == "point_cache":
                session = self._connection_session(connection)
                payload = session.point_cache_payload(max_entries=request.get("max_entries"))
                return {"id": rid, "ok": True, "payload": payload}
            if op == "metrics":
                return self._op_metrics(connection, rid)
            return error_payload(rid, "protocol", f"unknown operation {op!r}")
        except ReproError as error:
            return error_payload(rid, _error_type(error), str(error))
        except Exception as error:  # noqa: BLE001 - a bug must not kill the connection
            return error_payload(rid, "internal", f"{type(error).__name__}: {error}")

    def _op_load_graph(self, rid, request: Dict[str, Any]) -> Dict[str, Any]:
        payload = request.get("graph")
        if not isinstance(payload, dict):
            raise SerializationError("load_graph needs a graph document")
        graph = graph_from_dict(payload)
        self._install_graph(graph)
        return {
            "id": rid,
            "ok": True,
            "name": graph.name,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "version": graph.version,
        }

    def _op_mutate(self, rid, request: Dict[str, Any]) -> Dict[str, Any]:
        actions = request.get("actions")
        if not isinstance(actions, list):
            raise SerializationError("mutate needs a list of actions")
        with self._graph_lock:
            graph = self._graph
        if graph is None:
            raise EvaluationError("no graph loaded; send load_graph first")
        applied = 0
        # One batch = one version bump + one journaled delta, so warm
        # session caches can repair their cached answers instead of
        # recomputing.
        with graph.batch() as batch:
            for action in actions:
                if not isinstance(action, list) or not action:
                    raise SerializationError(f"malformed mutate action {action!r}")
                verb, *args = action
                if verb == "add_node" and len(args) == 2:
                    batch.add_node(wire.decode_value(args[0]), wire.decode_value(args[1]))
                elif verb == "add_edge" and len(args) == 3:
                    batch.add_edge(
                        wire.decode_value(args[0]), str(args[1]), wire.decode_value(args[2])
                    )
                elif verb == "remove_node" and len(args) == 1:
                    batch.remove_node(wire.decode_value(args[0]))
                elif verb == "remove_edge" and len(args) == 3:
                    batch.remove_edge(
                        wire.decode_value(args[0]), str(args[1]), wire.decode_value(args[2])
                    )
                elif verb == "set_value" and len(args) == 2:
                    batch.set_value(wire.decode_value(args[0]), wire.decode_value(args[1]))
                else:
                    raise SerializationError(f"malformed mutate action {action!r}")
                applied += 1
        self.metrics.increment("mutations_total")
        delta = batch.delta
        response = {
            "id": rid,
            "ok": True,
            "applied": applied,
            "version": graph.version,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
        }
        if delta is not None:
            response["delta"] = {
                "base_version": delta.base_version,
                "new_version": delta.new_version,
                "digest": delta.digest,
                "summary": delta.summary(),
                "insert_only": delta.insert_only,
            }
        return response

    # ------------------------------------------------------------------
    def _op_query(
        self, connection: _Connection, rid, op: str, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        session = self._connection_session(connection)
        null_semantics = bool(request.get("null_semantics", False))
        timeout = self._effective_timeout(request.get("timeout"))

        if op == "run":
            query = wire.decode_query(request.get("query"))

            def job():
                result = session.run(query, null_semantics=null_semantics)
                answers = result._force()
                return {"answers": wire.encode_answers(query, answers, result._rows)}

        elif op == "run_many":
            documents = request.get("queries")
            if not isinstance(documents, list):
                raise SerializationError("run_many needs a list of queries")
            queries = [wire.decode_query(document) for document in documents]

            def job():
                results = session.run_many(queries, null_semantics=null_semantics)
                return {
                    "answers": [
                        wire.encode_answers(query, result._force(), result._rows)
                        for query, result in zip(queries, results)
                    ]
                }

        else:  # targets
            query = wire.decode_query(request.get("query"))
            source = wire.decode_value(request.get("source"))

            def job():
                nodes = session.targets(query, source, null_semantics=null_semantics)
                return {"nodes": wire.encode_nodes(nodes)}

        return self._admit(rid, job, timeout)

    def _effective_timeout(self, requested) -> Optional[float]:
        configured = self.config.query_timeout
        if requested is None:
            return configured
        try:
            requested = float(requested)
        except (TypeError, ValueError):
            raise SerializationError(f"malformed timeout {requested!r}") from None
        if requested <= 0:
            raise SerializationError(f"timeout must be positive, got {requested}")
        return min(requested, configured) if configured is not None else requested

    def _admit(self, rid, job, timeout: Optional[float]) -> Dict[str, Any]:
        """Run *job* under admission control and the query deadline."""
        if not self._slots.acquire(blocking=False):
            self.metrics.increment("queries_rejected")
            return error_payload(
                rid,
                "busy",
                f"server at capacity ({self.config.max_inflight} in flight, "
                f"{self.config.queue_depth} queued); retry later",
            )
        started = time.monotonic()

        def guarded():
            self.metrics.query_started()
            try:
                return job()
            finally:
                self.metrics.query_finished()
                self._slots.release()

        try:
            future = self._executor.submit(guarded)
        except RuntimeError:  # executor shut down
            self._slots.release()
            return error_payload(rid, "error", "server is shutting down")
        try:
            payload = future.result(timeout=timeout)
        except FutureTimeout:
            future.add_done_callback(lambda f: f.exception())  # discard the late answer
            self.metrics.increment("queries_timed_out")
            self.metrics.record_query(time.monotonic() - started, failed=True)
            return error_payload(
                rid, "timeout", f"query exceeded its {timeout:g}s deadline; its answer is discarded"
            )
        except ReproError as error:
            self.metrics.record_query(time.monotonic() - started, failed=True)
            return error_payload(rid, _error_type(error), str(error))
        except Exception as error:  # noqa: BLE001
            self.metrics.record_query(time.monotonic() - started, failed=True)
            return error_payload(rid, "internal", f"{type(error).__name__}: {error}")
        elapsed = time.monotonic() - started
        self.metrics.record_query(elapsed)
        return {"id": rid, "ok": True, "elapsed_ms": elapsed * 1000.0, **payload}

    # ------------------------------------------------------------------
    def _op_stats(self, connection: _Connection, rid) -> Dict[str, Any]:
        session = self._connection_session(connection)
        return {"id": rid, "ok": True, "caches": cache_stats_view(session.stats())}

    def _op_metrics(self, connection: _Connection, rid) -> Dict[str, Any]:
        caches: Dict[str, Any] = {}
        if connection.session is not None:
            caches["session"] = cache_stats_view(connection.session.stats())
        snapshot = self.metrics.snapshot(cache_stats=caches)
        return {"id": rid, "ok": True, "metrics": snapshot}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "stopped" if self._stopping.is_set() else (
            "listening" if self._listener is not None else "idle"
        )
        return f"<ReproServer {state} generation={self._generation}>"


def graph_document(graph: DataGraph) -> Dict[str, Any]:
    """The ``load_graph`` request body for *graph* (client-side helper)."""
    return graph_to_dict(graph, strict=False)
