"""Frame-level protocol tests: framing, limits, truncation, bad JSON."""

from __future__ import annotations

import json
import socket
import struct
import threading

import pytest

from repro.server.protocol import (
    MAX_FRAME_BYTES,
    JSONText,
    ProtocolError,
    error_payload,
    recv_frame,
    send_frame,
)


@pytest.fixture
def pair():
    """A connected socket pair; both ends closed afterwards."""
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestFraming:
    def test_round_trip(self, pair):
        left, right = pair
        payload = {"id": 7, "op": "run", "nested": [1, {"x": None}], "flag": True}
        send_frame(left, payload)
        assert recv_frame(right) == payload

    def test_multiple_frames_stay_separate(self, pair):
        left, right = pair
        for index in range(5):
            send_frame(left, {"seq": index})
        for index in range(5):
            assert recv_frame(right) == {"seq": index}

    def test_empty_object_and_large_payload(self, pair):
        left, right = pair
        send_frame(left, {})
        big = {"rows": [[i, f"node-{i}"] for i in range(5000)]}
        writer = threading.Thread(target=send_frame, args=(left, big))
        writer.start()
        assert recv_frame(right) == {}
        assert recv_frame(right) == big
        writer.join()

    def test_clean_eof_returns_none(self, pair):
        left, right = pair
        left.close()
        assert recv_frame(right) is None


class TestLimits:
    def test_oversized_send_rejected_locally(self, pair):
        left, _ = pair
        with pytest.raises(ProtocolError, match="exceeds"):
            send_frame(left, {"blob": "x" * 64}, max_bytes=32)

    def test_oversized_declared_length_rejected(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="limit"):
            recv_frame(right)

    def test_receiver_honours_its_own_limit(self, pair):
        left, right = pair
        send_frame(left, {"blob": "y" * 256})
        with pytest.raises(ProtocolError, match="limit"):
            recv_frame(right, max_bytes=64)

    def test_unserialisable_payload_rejected(self, pair):
        left, _ = pair
        with pytest.raises(ProtocolError, match="JSON"):
            send_frame(left, {"bad": object()})


def _body(sock):
    (length,) = struct.unpack(">I", sock.recv(4))
    return sock.recv(length, socket.MSG_WAITALL)


def _text(value):
    return JSONText(json.dumps(value, separators=(",", ":")))


class TestSplicedText:
    DOCUMENT = {"shape": "relation", "nodes": [["Zürich", {"%": "tuple", "items": [1, "東京"]}],
                                               ["b", None], ["c", 2.5]],
                "targets": [0, 2], "rows": [[1], [0, 1]]}

    @pytest.mark.parametrize("payload", [
        {"id": 3, "ok": True, "elapsed_ms": 0.1234, "answers": DOCUMENT},
        {"answers": DOCUMENT, "id": "é", "ok": True},
        {"id": 4, "ok": True, "answers": [DOCUMENT, {}, DOCUMENT]},
        {"id": 5, "ok": True, "answers": []},
    ])
    def test_a_spliced_value_writes_the_bytes_json_dumps_would(self, pair, payload):
        left, right = pair
        spliced = {key: _text(value) if key == "answers" else value for key, value in payload.items()}
        send_frame(left, spliced)
        assert _body(right) == json.dumps(payload, separators=(",", ":")).encode("ascii")
        send_frame(left, spliced)
        assert recv_frame(right) == payload

    def test_only_top_level_values_are_spliced(self, pair):
        left, right = pair
        send_frame(left, {"nested": [JSONText("[1]")], "top": JSONText("[1]")})
        assert recv_frame(right) == {"nested": ["[1]"], "top": [1]}

    def test_the_limit_counts_the_spliced_text(self, pair):
        left, right = pair
        payload = {"id": 1, "answers": _text({"blob": "x" * 64})}
        with pytest.raises(ProtocolError, match="exceeds the 64-byte limit"):
            send_frame(left, payload, max_bytes=64)
        send_frame(left, payload, max_bytes=128)  # nothing was sent before
        assert recv_frame(right) == {"id": 1, "answers": {"blob": "x" * 64}}

    def test_other_values_must_still_serialise(self, pair):
        left, _ = pair
        with pytest.raises(ProtocolError, match="JSON"):
            send_frame(left, {"answers": JSONText("[]"), "bad": object()})


class TestCorruption:
    def test_disconnect_mid_header(self, pair):
        left, right = pair
        left.sendall(b"\x00\x00")  # half a length prefix
        left.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_frame(right)

    def test_disconnect_mid_body(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", 100) + b'{"partial": tru')
        left.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_frame(right)

    def test_invalid_json_body(self, pair):
        left, right = pair
        body = b"this is not json"
        left.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError, match="not valid JSON"):
            recv_frame(right)

    def test_invalid_utf8_body(self, pair):
        left, right = pair
        body = b"\xff\xfe\xfd"
        left.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError):
            recv_frame(right)


class TestErrorPayload:
    def test_shape(self):
        payload = error_payload(42, "timeout", "too slow")
        assert payload == {
            "id": 42,
            "ok": False,
            "error": {"type": "timeout", "message": "too slow"},
        }

    def test_none_id_for_unparseable_requests(self):
        assert error_payload(None, "protocol", "bad frame")["id"] is None
