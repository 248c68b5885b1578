"""RemoteSession against a scripted peer: a reply that fails to frame, or
answers another request, closes the session instead of leaving the next
call to read a stream that is out of step."""

from __future__ import annotations

import json
import socket
import struct

import pytest

from repro.api.remote import RemoteSession, ServerShuttingDownError
from repro.exceptions import EvaluationError
from repro.server.protocol import ProtocolError, error_payload, send_frame


@pytest.fixture
def peer():
    """A session over one end of a socket pair and the other end, which
    plays the server: replies written to it before a call are what that
    call reads."""
    client, server = socket.socketpair()
    session = RemoteSession(client, "pair")
    yield session, server
    session.close()
    server.close()


def _frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


def _assert_closed(session):
    assert session.closed
    with pytest.raises(EvaluationError, match="closed"):
        session.ping()


class TestAReplyOutOfStepClosesTheSession:
    def test_an_oversized_declared_length(self, peer):
        session, server = peer
        # The declared length is refused before its body is read, so the
        # body would be the next call's header if the session stayed open.
        server.sendall(struct.pack(">I", 64 * 1024 * 1024) + json.dumps({"x": "y" * 64}).encode())
        with pytest.raises(ProtocolError, match="67108864-byte frame"):
            session.ping()
        _assert_closed(session)

    def test_eof_mid_frame(self, peer):
        session, server = peer
        server.sendall(struct.pack(">I", 100) + b'{"id": 1')
        server.shutdown(socket.SHUT_WR)
        with pytest.raises(ProtocolError, match="mid-frame"):
            session.ping()
        _assert_closed(session)

    def test_a_body_that_is_not_json(self, peer):
        session, server = peer
        server.sendall(_frame(b"nope!"))
        with pytest.raises(ProtocolError, match="not valid JSON"):
            session.ping()
        _assert_closed(session)

    @pytest.mark.parametrize("reply", [
        {"id": 2, "ok": True, "pong": True},
        {"id": None, "ok": True, "pong": True},
        {"ok": True, "pong": True},
        [1, 2, 3],
        {"id": None, "ok": False, "error": "boom"},  # an error that is not an object
    ])
    def test_a_reply_to_another_request(self, peer, reply):
        session, server = peer
        send_frame(server, reply)
        with pytest.raises(ProtocolError):
            session.ping()
        _assert_closed(session)

    def test_a_protocol_error_without_the_request_id(self, peer):
        # What the daemon sends before dropping a stream it cannot parse.
        session, server = peer
        send_frame(server, error_payload(None, "protocol", "frame body is not valid JSON"))
        with pytest.raises(ProtocolError, match="not valid JSON"):
            session.ping()
        _assert_closed(session)

    def test_the_shutdown_farewell(self, peer):
        session, server = peer
        farewell = error_payload(None, "shutting_down", "server is shutting down")
        send_frame(server, {**farewell, "shutting_down": True})
        with pytest.raises(ServerShuttingDownError, match="shutting down"):
            session.ping()
        _assert_closed(session)


class TestAnAlignedStreamStaysOpen:
    def test_a_protocol_error_reply_to_the_request(self, peer):
        session, server = peer
        send_frame(server, error_payload(1, "protocol", "unknown operation 'explode'"))
        send_frame(server, {"id": 2, "ok": True, "pong": True})
        with pytest.raises(ProtocolError, match="unknown operation"):
            session._call("explode")
        assert not session.closed
        assert session.ping()

    @pytest.mark.parametrize("error", ["boom", ["protocol"], {"type": 3}, {"message": None}])
    def test_a_malformed_error_in_the_reply_to_the_request(self, peer, error):
        session, server = peer
        send_frame(server, {"id": 1, "ok": False, "error": error})
        send_frame(server, {"id": 2, "ok": True, "pong": True})
        with pytest.raises(ProtocolError, match="malformed error"):
            session.ping()
        assert session.ping()  # the stream is still in step

    def test_a_request_send_frame_refuses(self, peer):
        session, server = peer
        with pytest.raises(ProtocolError, match="JSON-serialisable"):
            session._call("run", query=object())
        assert not session.closed  # nothing was written
        send_frame(server, {"id": 2, "ok": True, "pong": True})
        assert session.ping()

    def test_replies_in_step_keep_serving(self, peer):
        session, server = peer
        for rid in (1, 2, 3):
            send_frame(server, {"id": rid, "ok": True, "pong": True})
        assert [session.ping() for _ in range(3)] == [True, True, True]
        assert not session.closed
