"""Daemon integration tests: concurrency, isolation, failure injection.

Everything here drives a real :class:`ReproServer` over real sockets via
:func:`repro.api.connect` (or a raw socket for frame-corruption tests) —
no transport mocking — so the tests pin exactly what the acceptance
criteria name: concurrent clients with correct results, per-query
timeouts, mid-query disconnects, admission backpressure, a daemon that
forks nothing, and the metrics report.
"""

from __future__ import annotations

import os
import signal
import socket
import struct
import threading
import time

import pytest

from repro.api import (
    GraphSession,
    Query,
    QueryTimeoutError,
    ServerBusyError,
    ServerShuttingDownError,
    connect,
    wire,
)
from repro.datagraph import GraphBuilder, generators
from repro.exceptions import EvaluationError, UnknownNodeError
from repro.server import ReproServer, ServerConfig
from repro.server import daemon as daemon_module
from repro.server.protocol import ProtocolError, recv_frame, send_frame

QUERIES = [
    ("a.(b|c)+", "rpq"),
    ("((a|c))=", "ree"),
    ("!x.((a|b)[x!=])+", "rem"),
    ("x,y :- (x, a+, z), (z, b|c, y)", "crpq"),
    ("<a.[<b>]>", "gxpath-node"),
]

#: The remaining dialect, the other CRPQ head shapes and an empty answer.
EXTRA_QUERIES = [
    ("a-.(b)!=", "gxpath-path"),
    ("x :- (x, a, y), (y, c, z)", "crpq"),
    ("x,y,z :- (x, a, y), (y, c, z)", "crpq"),
    ("zzz", "rpq"),
]


def make_graph():
    return generators.community_graph(
        3, 30, intra_edges_per_node=3, bridges_per_community=3,
        labels=("a", "b"), bridge_label="c", rng=5, domain_size=4,
    )


@pytest.fixture
def served():
    """A running server over a fresh graph; yields ``(graph, address)``."""
    graph = make_graph()
    server = ReproServer(graph, ServerConfig(max_inflight=8))
    address = server.start()
    yield graph, address, server
    server.shutdown()


class TestBasicOperations:
    @pytest.mark.parametrize("null_semantics", [False, True])
    def test_every_dialect_matches_local_evaluation(self, served, null_semantics):
        graph, address, _ = served
        local = GraphSession(graph)
        queries = [Query.parse(text, dialect=dialect) for text, dialect in QUERIES + EXTRA_QUERIES]
        counts = []
        with connect(address) as session:
            batch = session.run_many(queries, null_semantics=null_semantics)
            for query, batched in zip(queries, batch):
                expected = local.run(query, null_semantics=null_semantics)
                remote = session.run(query, null_semantics=null_semantics)
                # Result equality is query + rows; the accessors and the
                # JSON document must agree too.
                assert remote == expected and batched == expected, str(query)
                assert remote.to_json() == expected.to_json()
                assert remote.count() == expected.count()
                if query.arity == 2:
                    assert remote.pairs() == expected.pairs()
                if query.arity == 1:
                    assert remote.nodes() == expected.nodes()
                for row in list(expected.rows())[:3]:
                    assert remote.holds(*row) and remote.holds(*(node.id for node in row))
                counts.append(expected.count())
        assert counts[-1] == 0 and all(counts[:-1])  # exactly the one empty answer

    def test_run_many_and_targets(self, served):
        graph, address, _ = served
        local = GraphSession(graph)
        queries = [Query.parse(text, dialect=dialect) for text, dialect in QUERIES[:3]]
        with connect(address) as session:
            remote = session.run_many(queries)
            expected = local.run_many(queries)
            assert [r.rows() for r in remote] == [r.rows() for r in expected]
            source = next(iter(graph.node_ids))
            assert session.targets("a", source) == local.targets("a", source)

    def test_remote_result_holds_without_a_graph(self, served):
        graph, address, _ = served
        with connect(address) as session:
            result = session.run("a")
            assert result.graph is None
            pair = next(iter(result.pairs()))
            assert result.holds(pair[0].id, pair[1].id)
            assert not result.holds("no-such-node", pair[1].id)

    def test_explain_ping_and_errors(self, served):
        _, address, _ = served
        with connect(address) as session:
            assert session.ping()
            assert "NFA" in session.explain("a.b")
            # Server-side errors come back typed and leave the
            # connection serving.
            with pytest.raises(UnknownNodeError):
                session.targets("a", "no-such-node")
            assert session.ping()

    def test_session_protocol_holds_shortcut(self, served):
        graph, address, _ = served
        with connect(address) as session:
            pair = next(iter(GraphSession(graph).run("a").pairs()))
            assert session.holds("a", pair[0], pair[1])


class TestBackendConfig:
    def test_invalid_backend_rejected(self):
        with pytest.raises(EvaluationError, match="backend"):
            ServerConfig(backend="bogus")

    def test_sql_backend_server_matches_local(self):
        graph = make_graph()
        server = ReproServer(graph, ServerConfig(backend="sql"))
        address = server.start()
        try:
            local = GraphSession(graph)
            with connect(address) as session:
                for text, dialect in QUERIES:
                    query = Query.parse(text, dialect=dialect)
                    assert session.run(query).rows() == local.run(query).rows(), text
                source = next(iter(graph.node_ids))
                assert session.targets("a+", source) == local.targets("a+", source)
        finally:
            server.shutdown()


class TestConcurrentClients:
    def test_eight_concurrent_clients_get_correct_results(self, served):
        graph, address, _ = served
        local = GraphSession(graph)
        expected = {
            text: local.run(Query.parse(text, dialect=dialect)).rows()
            for text, dialect in QUERIES
        }
        failures = []
        barrier = threading.Barrier(8)

        def client(index):
            text, dialect = QUERIES[index % len(QUERIES)]
            try:
                with connect(address) as session:
                    barrier.wait(timeout=10)
                    for _ in range(3):
                        rows = session.run(Query.parse(text, dialect=dialect)).rows()
                        if rows != expected[text]:
                            failures.append((index, text, "wrong answers"))
            except Exception as error:  # noqa: BLE001 - collected for the assert
                failures.append((index, text, repr(error)))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures, failures

    def test_sessions_are_isolated_per_connection(self, served):
        _, address, _ = served
        with connect(address) as first, connect(address) as second:
            first.run("a.b")
            first.run("a.b")  # second run: a server-side cache hit
            assert first.stats()["results"].hits >= 1
            # The other connection's session saw none of that traffic.
            assert second.stats()["results"].hits == 0
            assert second.stats()["results"].size == 0


class TestAnswersThroughTheDaemon:
    def test_full_relations_and_joins_match_a_local_session(self, served):
        graph, address, _ = served
        local = GraphSession(graph)
        with connect(address) as session:
            for text, dialect in QUERIES + EXTRA_QUERIES:
                query = Query.parse(text, dialect=dialect)
                assert session.run(query).rows() == local.run(query).rows(), text

    def test_answers_persist_across_queries_and_clients(self, served):
        graph, address, server = served
        query = Query.parse("a.(b|c)+")
        expected = GraphSession(graph).run(query).rows()
        for _ in range(2):
            with connect(address) as session:
                assert session.run(query).rows() == expected
                assert session.run("(a|b)+").rows() == GraphSession(graph).run("(a|b)+").rows()
        counters = server.metrics.counters
        assert counters["connections_total"] == 2
        assert counters["queries_total"] >= 4 and counters["queries_failed"] == 0

    def test_a_query_first_run_after_an_insert_matches_a_local_session(self, served):
        graph, address, _ = served
        with connect(address) as session:
            session.run("a.(b|c)+")
            anchor = next(iter(graph.node_ids))
            session.mutate([["add_node", "daemon-new", 7], ["add_edge", "daemon-new", "a", anchor]])
            assert session.run("(b|c).a").rows() == GraphSession(graph).run("(b|c).a").rows()
            assert session.targets("a+", "daemon-new") == GraphSession(graph).targets(
                "a+", "daemon-new"
            )


def _child_pids():
    """This process's live children, or ``None`` where the kernel does not
    list them (``/proc/<pid>/task/<tid>/children``)."""
    children = set()
    try:
        for task in os.listdir(f"/proc/{os.getpid()}/task"):
            with open(f"/proc/{os.getpid()}/task/{task}/children") as handle:
                children.update(int(pid) for pid in handle.read().split())
    except OSError:
        return None
    return children


@pytest.fixture
def encodes(monkeypatch):
    """Count relation answers the daemon encodes straight from bit rows."""
    encoded = []
    from_rows = wire._relation_from_rows
    monkeypatch.setattr(
        wire, "_relation_from_rows", lambda *rows: encoded.append(1) or from_rows(*rows)
    )
    return encoded


class TestNothingForks:
    def test_run_many_keeps_its_rows_and_the_daemon_forks_nothing(self, encodes, monkeypatch):
        # The small served graph, default config but for compact routes:
        # every session runs the default policy: run_many is one in-order loop
        # and its answers keep their bit rows like run()'s do.
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        graph = make_graph()
        before = _child_pids()
        queries = [Query.parse("a.(b|c)+"), Query.parse("!x.((a|b)[x!=])+", dialect="rem")]
        crpq = Query.parse("x,y :- (x, a+, z), (z, b|c, y)", dialect="crpq")
        local = GraphSession(graph)
        with ReproServer(graph, ServerConfig(backend="compact")) as server:
            with connect(server.address) as session:
                batch = session.run_many(queries)
                assert [result.rows() for result in batch] == [
                    local.run(query).rows() for query in queries
                ]
                assert len(encodes) == len(queries)
                assert session.run(crpq).rows() == local.run(crpq).rows()
                assert session.run("(a|b)+").rows() == local.run("(a|b)+").rows()
                source = next(iter(graph.node_ids))
                assert session.targets("a.(b|c)+", source) == local.targets("a.(b|c)+", source)
                assert session.holds("a+", source, source) == local.holds("a+", source, source)
                metrics = session.metrics()
                after = _child_pids()
        assert forks == []
        if before is not None:
            assert after <= before, after - before
        assert "worker_pool" not in metrics
        assert not any(name.startswith("pool_") for name in metrics["counters"])

    def test_relations_after_another_connections_write_match_a_local_session(self, encodes):
        # Compact routes keep bit rows, so relations are encoded from them.
        graph = make_graph()
        queries = [Query.parse("a.(b|c)+"), Query.parse("!x.((a|b)[x!=])+", dialect="rem")]
        with ReproServer(graph, ServerConfig(backend="compact")) as server:
            with connect(server.address) as writer, connect(server.address) as reader:
                before = [result.rows() for result in reader.run_many(queries)]
                anchor = next(iter(graph.node_ids))
                writer.mutate([["add_node", "daemon-new", 7], ["add_edge", anchor, "b", "daemon-new"],
                               ["add_edge", "daemon-new", "a", anchor]])
                local = GraphSession(graph)
                for query, old in zip(queries, before):
                    expected = local.run(query)
                    assert reader.run(query) == expected and expected.rows() != old, str(query)
                batch = reader.run_many(queries)
                assert [result.rows() for result in batch] == [
                    local.run(query).rows() for query in queries
                ]
        assert len(encodes) == 3 * len(queries)


class TestGracefulDrain:
    def test_shutdown_sends_farewell_instead_of_hard_close(self):
        graph = make_graph()
        server = ReproServer(graph, ServerConfig(drain_grace=1.0))
        address = server.start()
        session = connect(address)
        assert session.ping()
        server.shutdown()
        # The next call sees either the unsolicited shutting_down frame
        # or (if the farewell raced the close) a typed connection error —
        # never a bare socket exception.
        with pytest.raises(Exception) as excinfo:
            session.ping()
        assert isinstance(excinfo.value, (ServerShuttingDownError, EvaluationError))
        session.close()

    def test_drain_lets_inflight_queries_finish(self, monkeypatch):
        graph = make_graph()
        server = ReproServer(graph, ServerConfig(drain_grace=5.0))
        address = server.start()
        monkeypatch.setattr(daemon_module, "GraphSession", _SlowSession)
        monkeypatch.setattr(_SlowSession, "delay", 0.6)
        outcome = {}
        client = connect(address)

        def slow_query():
            try:
                outcome["rows"] = client.run("a").rows()
            except Exception as error:  # noqa: BLE001 - collected for the assert
                outcome["error"] = error

        thread = threading.Thread(target=slow_query)
        thread.start()
        time.sleep(0.2)  # let the slow query start executing
        started = time.monotonic()
        server.shutdown()  # must wait for the in-flight query, not cut it
        drained = time.monotonic() - started
        thread.join(timeout=10)
        client.close()
        assert "error" not in outcome, outcome.get("error")
        assert outcome["rows"] == GraphSession(graph).run("a").rows()
        assert drained >= 0.2  # shutdown actually waited for the drain

    def test_draining_server_rejects_new_work_with_shutting_down(self, monkeypatch):
        graph = make_graph()
        server = ReproServer(graph, ServerConfig(drain_grace=5.0))
        address = server.start()
        monkeypatch.setattr(daemon_module, "GraphSession", _SlowSession)
        monkeypatch.setattr(_SlowSession, "delay", 0.8)
        blocker = connect(address)
        rejected = {}
        thread = threading.Thread(target=lambda: blocker.run("a"))
        thread.start()
        time.sleep(0.2)  # the slow query is now in flight

        def second_client():
            try:
                with connect(address) as session:
                    session.run("b")
            except Exception as error:  # noqa: BLE001
                rejected["error"] = error

        shutdown_thread = threading.Thread(target=server.shutdown)
        shutdown_thread.start()
        time.sleep(0.2)  # draining is set; the slow query still runs
        probe = threading.Thread(target=second_client)
        probe.start()
        probe.join(timeout=10)
        shutdown_thread.join(timeout=10)
        thread.join(timeout=10)
        blocker.close()
        assert isinstance(rejected.get("error"), ServerShuttingDownError), rejected

    def test_sigterm_triggers_graceful_shutdown(self):
        graph = make_graph()
        server = ReproServer(graph, ServerConfig(drain_grace=0.5))
        server.start()
        timer = threading.Timer(0.2, os.kill, (os.getpid(), signal.SIGTERM))
        timer.start()
        server.serve_forever()  # returns once SIGTERM drains the server
        assert server._stopping.is_set()

    def test_request_stop_unblocks_serve_forever(self):
        # The public seam the CLI hangs its early SIGTERM handler on:
        # safe to call from any thread (or signal context) and before
        # start(), so there is no accepting-but-not-yet-graceful window.
        graph = make_graph()
        server = ReproServer(graph, ServerConfig(drain_grace=0.5))
        server.start()
        timer = threading.Timer(0.2, server.request_stop)
        timer.start()
        server.serve_forever()
        assert server._stopping.is_set()

    def test_drain_grace_must_be_non_negative(self):
        with pytest.raises(EvaluationError, match="drain_grace"):
            ServerConfig(drain_grace=-1.0)


class TestProtocolAbuse:
    def test_malformed_frame_gets_error_then_disconnect(self, served):
        _, address, server = served
        sock = socket.create_connection(address)
        try:
            sock.sendall(struct.pack(">I", 5) + b"nope!")
            response = recv_frame(sock)
            assert response["ok"] is False
            assert response["error"]["type"] == "protocol"
            assert recv_frame(sock) is None  # server dropped the stream
        finally:
            sock.close()
        assert server.metrics.counters["protocol_errors"] == 1

    def test_oversized_frame_is_rejected(self, served):
        _, address, server = served
        sock = socket.create_connection(address)
        try:
            sock.sendall(struct.pack(">I", server.config.max_frame_bytes + 1))
            response = recv_frame(sock)
            assert response["error"]["type"] == "protocol"
        finally:
            sock.close()

    def test_non_object_request_rejected(self, served):
        _, address, _ = served
        sock = socket.create_connection(address)
        try:
            send_frame(sock, [1, 2, 3])
            assert recv_frame(sock)["error"]["type"] == "protocol"
        finally:
            sock.close()

    def test_unknown_op_keeps_the_connection(self, served):
        _, address, _ = served
        sock = socket.create_connection(address)
        try:
            send_frame(sock, {"id": 1, "op": "explode"})
            assert recv_frame(sock)["error"]["type"] == "protocol"
            send_frame(sock, {"id": 2, "op": "ping"})
            assert recv_frame(sock)["pong"] is True  # still serving
        finally:
            sock.close()

    def test_reply_over_the_frame_limit_is_a_typed_error(self):
        graph = make_graph()
        limit = 4096
        with ReproServer(graph, ServerConfig(max_frame_bytes=limit)) as server:
            with connect(server.address) as session:
                with pytest.raises(ProtocolError) as raised:
                    session.run("(a|b|c)+")  # thousands of pairs
                size = int(str(raised.value).split()[2])  # "frame of N bytes exceeds ..."
                assert size > limit and f"{limit}-byte limit" in str(raised.value)
                # Nothing of the reply was sent, so the stream is intact.
                assert session.ping()
                source = next(iter(graph.node_ids))
                assert session.targets("a", source) == GraphSession(graph).targets("a", source)
                assert session.run("zzz").count() == 0
            counters = server.metrics.counters
            assert counters["unsendable_replies"] == 1
            assert counters["disconnects_mid_query"] == counters["protocol_errors"] == 0

    def test_mid_query_disconnect_leaves_the_server_healthy(self, served):
        graph, address, _ = served
        doomed = socket.create_connection(address)
        send_frame(
            doomed,
            {"id": 1, "op": "run",
             "query": {"kind": "rpq", "plan": {"%": "RPQ", "f": {"expression": {
                 "%": "Plus", "f": {"inner": {"%": "Union", "f": {
                     "left": {"%": "Letter", "f": {"label": "a"}},
                     "right": {"%": "Letter", "f": {"label": "b"}}}}}}}}}},
        )
        doomed.close()  # walk away mid-query
        time.sleep(0.2)
        with connect(address) as session:
            assert session.run("a").rows() == GraphSession(graph).run("a").rows()

    def test_a_reset_after_an_unread_reply_ends_the_connection_quietly(
        self, served, monkeypatch
    ):
        graph, address, server = served
        escaped = []
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        before = set(threading.enumerate())
        for _ in range(5):
            sock = socket.create_connection(address)
            send_frame(sock, {"id": 1, "op": "run", "query": wire.encode_query(Query.parse("a"))})
            sock.recv(1, socket.MSG_PEEK)  # the reply has arrived ...
            sock.close()  # ... and closing with it unread resets the connection
        for thread in set(threading.enumerate()) - before:
            if thread.name.startswith("repro-client-"):
                thread.join(timeout=5)
                assert not thread.is_alive()
        assert [args.exc_type for args in escaped] == []
        assert server.metrics.counters["connections_active"] == 0
        with connect(address) as session:
            assert session.run("a").rows() == GraphSession(graph).run("a").rows()


class _SlowSession(GraphSession):
    """A session whose runs block long enough to hold an executor slot."""

    delay = 1.0

    def run(self, query, null_semantics=False):
        time.sleep(self.delay)
        return super().run(query, null_semantics=null_semantics)


class TestAdmissionAndTimeouts:
    def test_query_timeout_is_enforced_and_reported(self, served, monkeypatch):
        _, address, server = served
        monkeypatch.setattr(daemon_module, "GraphSession", _SlowSession)
        with connect(address) as session:
            started = time.monotonic()
            with pytest.raises(QueryTimeoutError, match="deadline"):
                session.run("a", timeout=0.05)
            assert time.monotonic() - started < _SlowSession.delay
            metrics = session.metrics()
            assert metrics["counters"]["queries_timed_out"] == 1
        assert server.metrics.counters["queries_timed_out"] == 1

    def test_server_config_caps_client_timeouts(self, monkeypatch):
        graph = make_graph()
        server = ReproServer(graph, ServerConfig(query_timeout=0.05))
        address = server.start()
        monkeypatch.setattr(daemon_module, "GraphSession", _SlowSession)
        try:
            with connect(address) as session:
                started = time.monotonic()
                with pytest.raises(QueryTimeoutError):
                    # Ask for a generous deadline; the server's cap wins.
                    session.run("a", timeout=60.0)
                assert time.monotonic() - started < _SlowSession.delay
        finally:
            server.shutdown()

    def test_backpressure_rejects_excess_queries(self, monkeypatch):
        graph = make_graph()
        server = ReproServer(graph, ServerConfig(max_inflight=1, queue_depth=0))
        address = server.start()
        monkeypatch.setattr(daemon_module, "GraphSession", _SlowSession)
        try:
            blocker = connect(address)
            errors = []

            def long_query():
                try:
                    blocker.run("a")
                except Exception as error:  # noqa: BLE001
                    errors.append(error)

            thread = threading.Thread(target=long_query)
            thread.start()
            time.sleep(0.2)  # let the slow query take the only slot
            with connect(address) as session:
                with pytest.raises(ServerBusyError, match="capacity"):
                    session.run("b")
            thread.join(timeout=30)
            blocker.close()
            assert not errors
            assert server.metrics.counters["queries_rejected"] == 1
        finally:
            server.shutdown()

    def test_server_still_works_after_a_timeout(self, served, monkeypatch):
        graph, address, _ = served
        monkeypatch.setattr(daemon_module, "GraphSession", _SlowSession)
        monkeypatch.setattr(_SlowSession, "delay", 0.4)
        with connect(address) as session:
            with pytest.raises(QueryTimeoutError):
                session.run("a", timeout=0.05)
        time.sleep(0.5)  # let the abandoned query drain its slot
        monkeypatch.undo()
        with connect(address) as session:
            assert session.run("a").rows() == GraphSession(graph).run("a").rows()


class TestMetricsAndManagement:
    def test_metrics_report_counters_and_latency(self, served):
        _, address, _ = served
        with connect(address) as session:
            for _ in range(4):
                session.run("a.b")
            metrics = session.metrics()
        counters = metrics["counters"]
        assert counters["queries_total"] >= 4
        assert counters["connections_total"] >= 1
        latency = metrics["latency"]
        assert latency["count"] >= 4
        assert latency["p95_ms"] is not None and latency["p95_ms"] >= 0
        assert metrics["uptime_seconds"] > 0

    def test_a_local_crpq_re_run_after_a_write_is_patched(self):
        """CRPQs run on the connection's own session: a binary one whose
        plan ends on bit rows is re-answered after a mutation by decoding
        the difference, and the server counts it."""
        graph = make_graph()
        server = ReproServer(graph, ServerConfig(backend="compact"))
        address = server.start()
        query = Query.parse("x,y :- (x, a+, z), (z, b|c, y)", dialect="crpq")
        try:
            with connect(address) as session:
                session.run(query).rows()
                source, target = sorted(graph.node_ids, key=repr)[:2]
                session.mutate([["add_edge", source, "c", target]])
                assert session.run(query).rows() == GraphSession(graph).run(query).rows()
                counters = session.metrics()["counters"]
        finally:
            server.shutdown()
        assert (counters["result_repairs"], counters["result_patched"]) == (1, 1)
        assert counters["result_recomputes"] == 0

    def test_mutate_replies_carry_the_delta(self, served):
        graph, address, _ = served
        query = Query.parse("a.(b|c)+")
        with connect(address) as session:
            assert session.run(query).rows() == GraphSession(graph).run(query).rows()
            anchor = next(iter(graph.node_ids))
            reply = session.mutate([["add_node", "daemon-new", 7],
                                   ["add_edge", "daemon-new", "a", anchor]])
            assert reply["version"] == graph.version
            assert reply["delta"]["insert_only"] is True
            assert reply["delta"]["summary"]["nodes_added"] == 1
            assert reply["delta"]["summary"]["edges_added"] == 1
            assert session.run(query).rows() == GraphSession(graph).run(query).rows()
            reply = session.mutate([["remove_node", anchor]])
            assert reply["delta"]["insert_only"] is False
            assert reply["delta"]["summary"]["nodes_removed"] == 1
            assert session.run(query).rows() == GraphSession(graph).run(query).rows()

    def test_load_graph_swaps_the_served_graph(self, served):
        _, address, _ = served
        replacement = (
            GraphBuilder(name="tiny").node("x", 1).node("y", 2)
            .edge("x", "r", "y").build()
        )
        with connect(address) as session:
            loaded = session.load_graph(replacement)
            assert loaded["num_nodes"] == 2 and loaded["name"] == "tiny"
            result = session.run("r")
            assert {(a.id, b.id) for a, b in result.pairs()} == {("x", "y")}

    def test_remote_point_cache_snapshot_loads_locally(self, served, tmp_path):
        graph, address, _ = served
        source = next(iter(graph.node_ids))
        path = tmp_path / "points.json"
        with connect(address) as session:
            remote_targets = session.targets("a", source)
            assert session.save_point_cache(path) >= 1
        local = GraphSession(graph)
        assert local.load_point_cache(path) >= 1
        assert local.targets("a", source) == remote_targets

    def test_no_graph_loaded_is_a_clean_error(self):
        server = ReproServer()
        address = server.start()
        try:
            with connect(address) as session:
                assert session.ping()  # ping needs no graph
                with pytest.raises(Exception, match="no graph loaded"):
                    session.run("a")
        finally:
            server.shutdown()

    def test_shutdown_disconnects_clients(self, served):
        _, address, server = served
        session = connect(address)
        assert session.ping()
        server.shutdown()
        with pytest.raises(Exception):
            session.run("a")
        session.close()
