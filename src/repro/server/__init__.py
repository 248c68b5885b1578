"""The query daemon: serve one graph to many clients over sockets.

``repro serve graph.json`` (or :class:`ReproServer` embedded) owns the
graph and answers every query in-process on a bounded thread pool;
clients connect with :func:`repro.api.connect` and get the familiar
session surface (``run`` / ``run_many`` / ``targets`` / ``explain`` /
``stats``) over a length-prefixed JSON protocol.  See DESIGN.md §4 for
the architecture.
"""

from .daemon import ReproServer, ServerConfig, graph_document
from .protocol import MAX_FRAME_BYTES, ProtocolError, recv_frame, send_frame

__all__ = [
    "ReproServer",
    "ServerConfig",
    "ProtocolError",
    "MAX_FRAME_BYTES",
    "send_frame",
    "recv_frame",
    "graph_document",
]
