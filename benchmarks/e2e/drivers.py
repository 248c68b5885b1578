"""Drivers: how a workload's operations reach the program.

``LocalDriver`` executes in-process (a fresh default-policy session per
operation, or one long-lived session); ``DaemonDriver`` spawns
``python -m repro serve`` as a child and hands out ``RemoteSession``
connections.  Also the ``/proc`` readers for the child processes' CPU
time and peak memory.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from contextlib import nullcontext, suppress
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from oracle import apply_actions
from tracer import Tracer
from workloads import Op

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
WORK_DIR = BENCH_DIR / ".work"
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def child_environment() -> Dict[str, str]:
    """The environment for child processes: this checkout's ``src`` first."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), *filter(None, [environment.get("PYTHONPATH")])]
    )
    return environment


def _parse(query):
    from repro.api import Query

    return Query.parse(query[1], query[0])


def _point_query(op: Op):
    """What a point operation hands to ``targets``: RPQ text as is (the
    session parses it on every call), other dialects parsed here."""
    dialect, text = op.queries[0]
    return text if dialect == "rpq" else _parse(op.queries[0])


class LocalDriver:
    """In-process execution over one graph.

    ``fresh=True`` builds a new default-policy session per operation
    (result cache cold; the shared engine's automata and the graph's
    indexes stay warm); otherwise one session lives for the whole pass.
    """

    def __init__(self, graph_text: str, fresh: bool, tracer: Optional[Tracer]):
        from repro.api import GraphSession
        from repro.datagraph import graph_from_json

        self.graph = graph_from_json(graph_text)
        self.fresh = fresh
        self.tracer = tracer
        self.session = None if fresh else GraphSession(self.graph)
        self.cache_totals = {"results": [0, 0, 0], "points": [0, 0, 0]}
        self.maintenance = {"repairs": 0, "recomputes": 0, "plans_retained": 0}

    def clients(self, count: int) -> List["LocalDriver"]:
        return [self] * count

    def execute(self, op: Op, mutate: bool = True) -> tuple:
        from repro.api import GraphSession

        session = GraphSession(self.graph) if self.fresh else self.session
        self.session = session
        kind = op.kind
        if kind == "targets":
            return (session.targets(_point_query(op), op.args[0]),)
        if kind == "holds":
            return (session.holds(op.queries[0][1], *op.args),)
        if kind == "mutate" and mutate:
            tracer = self.tracer
            with tracer.span("datagraph.graph.batch_ms", "graph.batch") if tracer else nullcontext():
                apply_actions(self.graph, op.args[0])
        results = [session.run(_parse(query)) for query in op.queries]
        for result in results:
            result.count()
        return tuple(results)

    def absorb_stats(self) -> None:
        """Fold the current session's counters into the pass totals (a
        fresh-session workload calls this after every traced operation)."""
        session = self.session
        stats = session.stats()
        for name, totals in self.cache_totals.items():
            snapshot = stats[name]
            totals[0] += snapshot.hits
            totals[1] += snapshot.misses
            totals[2] += snapshot.evictions
        for name, value in session.maintenance_stats().items():
            if name in self.maintenance:
                self.maintenance[name] += value

    def processes(self) -> List[int]:
        return []

    def server_metrics(self) -> Optional[Dict]:
        return None

    def wire_bytes(self) -> Tuple[int, int]:
        return (0, 0)

    def close(self) -> None:
        self.session = None
        self.graph = None


class RemoteClient:
    """One ``RemoteSession`` connection."""

    def __init__(self, session):
        self.session = session

    def execute(self, op: Op, mutate: bool = True) -> tuple:
        session = self.session
        kind = op.kind
        if kind == "targets":
            return (session.targets(_point_query(op), op.args[0]),)
        if kind == "mutate" and mutate:
            session.mutate(op.args[0])
        return tuple(session.run(_parse(query)) for query in op.queries)


class _CountingSocket:
    """A socket proxy that counts the bytes a connection sends and receives."""

    def __init__(self, sock):
        self._sock = sock
        self.sent = 0
        self.received = 0

    def sendall(self, data) -> None:
        self.sent += len(data)
        self._sock.sendall(data)

    def recv(self, size: int) -> bytes:
        chunk = self._sock.recv(size)
        self.received += len(chunk)
        return chunk

    def __getattr__(self, name):
        return getattr(self._sock, name)


class DaemonDriver:
    """A ``python -m repro serve`` child process plus its connections.

    With *count_bytes* (traced passes) the client connections run over
    :class:`_CountingSocket` proxies, so wire bytes are exact counts
    taken at the socket boundary; plain passes use ``connect`` as is.
    """

    _serial = 0

    def __init__(self, graph_path: Path, count_bytes: bool):
        from repro.api import connect

        DaemonDriver._serial += 1
        self.socket_path = os.path.relpath(
            WORK_DIR / f"d{os.getpid()}-{DaemonDriver._serial}.sock"
        )
        self.count_bytes = count_bytes
        self.proxies: List[_CountingSocket] = []
        self.sessions = []
        self.worker_pids: List[int] = []
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(graph_path), "--socket", self.socket_path],
            env=child_environment(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            self.control = None
            while self.control is None:
                if self.process.poll() is not None:
                    raise RuntimeError(f"daemon exited with code {self.process.returncode}")
                if time.perf_counter() > started + 60.0:
                    raise RuntimeError("daemon did not start listening within 60 s")
                try:
                    self.control = connect(self.socket_path)
                except OSError:
                    time.sleep(0.01)
            self.spawn_seconds = time.perf_counter() - started
            self.sessions.append(self.control)
        except BaseException:
            self.close()
            raise

    def clients(self, count: int) -> List[RemoteClient]:
        from repro.api import RemoteSession, connect

        clients = []
        for _ in range(count):
            if self.count_bytes:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.connect(self.socket_path)
                proxy = _CountingSocket(sock)
                self.proxies.append(proxy)
                session = RemoteSession(proxy, self.socket_path)
            else:
                session = connect(self.socket_path)
            self.sessions.append(session)
            clients.append(RemoteClient(session))
        return clients

    def wire_bytes(self) -> Tuple[int, int]:
        return (
            sum(proxy.sent for proxy in self.proxies),
            sum(proxy.received for proxy in self.proxies),
        )

    def server_metrics(self) -> Dict:
        snapshot = self.control.metrics()
        self.worker_pids = list(snapshot.get("worker_pool", {}).get("pids", ()))
        return snapshot

    def processes(self) -> List[int]:
        return [self.process.pid, *self.worker_pids]

    def close(self) -> None:
        for session in self.sessions:
            session.close()
        self.sessions = []
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        # The daemon reaps its workers while draining; make sure none
        # outlives it before the pass is declared over.
        deadline = time.perf_counter() + 5.0
        for pid in self.worker_pids:
            while process_alive(pid):
                if time.perf_counter() > deadline:
                    with suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
                    break
                time.sleep(0.01)
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)


def _stat_fields(pid: int) -> List[bytes]:
    """``/proc/<pid>/stat`` from the state field on ([] once the process is gone)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            return handle.read().rsplit(b")", 1)[1].split()
    except (OSError, IndexError):
        return []


def process_alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return bool(fields) and fields[0] != b"Z"


def process_cpu_seconds(pid: int) -> float:
    """user+sys CPU of another process (0.0 once it is gone)."""
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS if len(fields) > 12 else 0.0


def process_peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


def own_cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system
