"""Length-prefixed JSON framing shared by the daemon and the remote client.

One frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON.  The length prefix makes frames self-delimiting over both
TCP and Unix-domain stream sockets; the hard cap
(:data:`MAX_FRAME_BYTES`, 32 MiB by default) bounds what one client can
make the server buffer — an oversized or malformed frame raises
:class:`ProtocolError`, which the daemon answers with an error frame
before dropping the connection (a corrupt length prefix leaves the
stream unparseable, so closing is the only safe recovery).

Requests and responses are JSON objects::

    {"id": 7, "op": "run", "query": {...}, "null_semantics": false}
    {"id": 7, "ok": true, "answers": {...}, "elapsed_ms": 1.8}
    {"id": 7, "ok": false, "error": {"type": "timeout", "message": "..."}}

``id`` is a client-chosen correlation token echoed verbatim in the
response.  A top-level payload value that is already JSON text — a
:class:`JSONText`, such as the daemon's stored answer documents — is
written into the body as it stands instead of being serialised again.
The helpers here only frame and parse; operation semantics live in
:mod:`repro.server.daemon` and :mod:`repro.api.remote`.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Optional

from ..exceptions import ReproError

__all__ = [
    "ProtocolError",
    "JSONText",
    "MAX_FRAME_BYTES",
    "send_frame",
    "recv_frame",
    "error_payload",
]

#: Upper bound on one frame's JSON body, in bytes.
MAX_FRAME_BYTES = 32 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(ReproError):
    """A malformed, oversized or truncated protocol frame."""


class JSONText(str):
    """JSON text that :func:`send_frame` writes verbatim as a top-level
    payload value: it must be the compact, ASCII text
    ``json.dumps(value, separators=(",", ":"))`` makes of that value."""

    __slots__ = ()


def send_frame(sock: socket.socket, payload: Any, max_bytes: int = MAX_FRAME_BYTES) -> None:
    """Serialise *payload* to JSON and write it as one length-prefixed frame.

    The body is ``json.dumps(payload, separators=(",", ":"))``, except
    that a top-level value of a dict *payload* (string keys, as every
    protocol payload has) that is a :class:`JSONText` is spliced in as it
    stands — the same bytes when it holds the text ``json.dumps`` would
    have made of its value, without serialising that value again.  The
    size limit applies to the whole body either way.
    """
    try:
        if isinstance(payload, dict) and any(isinstance(value, JSONText) for value in payload.values()):
            body = "{%s}" % ",".join(
                json.dumps(key) + ":" + (
                    value if isinstance(value, JSONText) else json.dumps(value, separators=(",", ":"))
                )
                for key, value in payload.items()
            )
        else:
            body = json.dumps(payload, separators=(",", ":"))
        body = body.encode("utf-8")
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"frame payload is not JSON-serialisable: {error}") from error
    if len(body) > max_bytes:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {max_bytes}-byte limit"
        )
    sock.sendall(_HEADER.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly *count* bytes; ``None`` on clean EOF before the first
    byte, :class:`ProtocolError` on EOF mid-message."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == count:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining}/{count} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket, max_bytes: int = MAX_FRAME_BYTES) -> Optional[Any]:
    """Read one frame; ``None`` on clean EOF (peer closed between frames).

    Raises :class:`ProtocolError` for an oversized declared length, a
    mid-frame disconnect, or a body that does not decode — invalid UTF-8
    or JSON, or JSON nested too deep for the decoder's recursion.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise ProtocolError(
            f"peer declared a {length}-byte frame; the limit is {max_bytes} bytes"
        )
    body = _recv_exact(sock, length) if length else b""
    if body is None:  # pragma: no cover - zero-length then EOF edge
        raise ProtocolError("connection closed before the frame body")
    try:
        return json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        raise ProtocolError(f"frame body is not valid JSON: {error}") from error


def error_payload(request_id: Any, error_type: str, message: str) -> dict:
    """The standard error-response body."""
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": error_type, "message": message},
    }
