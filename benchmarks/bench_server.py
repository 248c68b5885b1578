"""Benchmark the query daemon: one remote client vs the same ops in-process.

The workload is mixed serving traffic over a 360-node community graph —
point lookups (``targets``) for RPQ, REE and REM queries plus one
selective CRPQ run.  The REM point query dominates: answering it means
materialising the full relation (then filtering to the source), while
the answer itself is a handful of nodes — compute-bound traffic with
cheap wire frames.  The daemon answers all of it in-process on the
connection's session.

**Remote client vs in-process** (gated) — each round runs one client's
request list on a fresh connection (so a fresh server-side session,
whose caches start cold, and the connection setup is timed: clients pay
it), then the same list through a fresh local :class:`GraphSession`.
The gap between the two sides' medians is what the daemon adds to the
same work: framing, the wire codec and the hop to the connection
thread.  CI bounds the remote p50 at 2× the in-process p50 (see
ci.yml).  One client and one connection thread take turns, so the
ratio holds on any core count.

Both sides answer every request and are checked against precomputed
expected answers, so the benchmark cannot quietly win by dropping work.

**Answer codec vs local decode** (gated) — what a full relation costs to
cross the wire (``encode_answers`` → ``json.dumps`` → ``json.loads`` →
``decode_answers``, no socket) beside what the same relation costs a
local session to hand over (``BitRelation.node_pairs`` of its bit rows).
Both end in one ``frozenset`` of ``Node`` pairs; CI holds the round trip
at ≤ 5× the local decode (measures ≈ 3×; the per-pair document it
replaced was ≈ 36×).

**Encoding from bit rows vs from pairs** (gated) — the daemon encodes a
cached relation answer from its result-cache entry's bit rows
(``encode_entry``) instead of regrouping its decoded pairs; CI holds the
rows path at ≥ 2× faster on the same closure.  Both build the identical
document on one thread.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

import pytest

from repro.api import ExecutionPolicy, GraphSession, Query, connect, wire
from repro.datagraph import generators
from repro.engine import compact as compact_kernels
from repro.engine import default_engine
from repro.server import ReproServer, ServerConfig

#: Rounds, each timing both sides once: the gate compares their medians.
ROUNDS = 15

#: (kind, dialect, text) — the client's request mix.
TRAFFIC = [
    ("targets", "rem", "!x.((a|b)[x!=])+"),
    ("targets", "rpq", "a.(b|c)+"),
    ("targets", "ree", "((a|c))="),
    ("targets", "rpq", "(a|b)*"),
    ("run", "crpq", "x,y :- (x, a, z), (z, c, y)"),
    ("targets", "rem", "!x.((a|b)[x!=])+"),  # second source, same relation
]


def _community_graph(community_size: int):
    return generators.community_graph(
        3, community_size, intra_edges_per_node=3, bridges_per_community=4,
        labels=("a", "b"), bridge_label="c", rng=17, domain_size=4,
    )


@pytest.fixture(scope="module")
def server_graph():
    return _community_graph(120)


@pytest.fixture(scope="module")
def requests(server_graph):
    """The concrete request list of one client."""
    sources = sorted(server_graph.node_ids, key=repr)
    built = []
    for position, (kind, dialect, text) in enumerate(TRAFFIC):
        query = Query.parse(text, dialect=dialect)
        if kind == "targets":
            built.append(("targets", query, sources[position]))
        else:
            built.append(("run", query, None))
    return built


@pytest.fixture(scope="module")
def expected(server_graph, requests):
    session = GraphSession(server_graph)
    answers = {}
    for kind, query, source in requests:
        if kind == "targets":
            answers[(kind, query.key, source)] = session.targets(query, source)
        else:
            answers[(kind, query.key, None)] = session.run(query).rows()
    return answers


def _drive_session(session, requests, expected):
    """Issue every request on *session* and verify the answers."""
    for kind, query, source in requests:
        if kind == "targets":
            assert session.targets(query, source) == expected[(kind, query.key, source)]
        else:
            assert session.run(query).rows() == expected[(kind, query.key, None)]


def bench_server_remote_vs_local(benchmark, server_graph, requests, expected):
    """One client's traffic on a fresh daemon connection and on a fresh
    local session, alternating within every round, so a slow stretch of
    the host lands on both sides.  Server start-up happens outside the
    timer; the two per-side medians go to ``extra_info``."""
    server = ReproServer(server_graph, ServerConfig())
    address = server.start()
    # Warm the served graph's indexes outside the timer, as the local
    # side's fixture graph is warmed by ``expected``.
    with connect(address) as warmup:
        warmup.targets(requests[0][1], requests[0][2])
    remote, local = [], []

    def both():
        start = time.perf_counter()
        with connect(address) as session:
            _drive_session(session, requests, expected)
        middle = time.perf_counter()
        _drive_session(GraphSession(server_graph), requests, expected)
        remote.append(middle - start)
        local.append(time.perf_counter() - middle)

    try:
        benchmark.pedantic(both, rounds=ROUNDS, iterations=1)
        metrics = server.metrics.snapshot()
        assert metrics["counters"]["queries_total"] >= len(remote) * len(TRAFFIC)
        assert metrics["counters"]["queries_failed"] == 0
    finally:
        server.shutdown()
    benchmark.extra_info["remote_p50_s"] = statistics.median(remote)
    benchmark.extra_info["local_p50_s"] = statistics.median(local)


# ----------------------------------------------------------------------
# The answer codec against the local decode of the same relation
# ----------------------------------------------------------------------
#: ``(a|b)+`` stays inside a community: three dense blocks, 28k pairs.
CLOSURE = Query.parse("(a|b)+")


@pytest.fixture(scope="module")
def closure_graph():
    graph = _community_graph(100)
    graph.compact_index().node_objects  # the column both sides decode against
    return graph


def bench_wire_answers_roundtrip(benchmark, closure_graph):
    answers = GraphSession(closure_graph).run(CLOSURE).pairs()
    gc.collect()

    def roundtrip():
        frame = json.dumps(wire.encode_answers(CLOSURE, answers), separators=(",", ":"))
        return wire.decode_answers(CLOSURE, json.loads(frame)), len(frame)

    decoded, frame_bytes = benchmark.pedantic(roundtrip, rounds=5, iterations=1)
    benchmark.extra_info["num_pairs"] = len(answers)
    benchmark.extra_info["frame_bytes"] = frame_bytes
    assert decoded == answers and len(answers) > 25_000


def bench_wire_answers_local_decode(benchmark, closure_graph):
    compact = closure_graph.compact_index()
    relation = compact_kernels.nfa_relation(compact, default_engine().compile_rpq(CLOSURE.plan))
    objects = compact.node_objects
    gc.collect()
    pairs = benchmark.pedantic(lambda: relation.node_pairs(objects), rounds=5, iterations=1)
    benchmark.extra_info["num_pairs"] = len(pairs)
    assert pairs == GraphSession(closure_graph).run(CLOSURE).pairs()


def _closure_answer(closure_graph):
    """The closure's result-cache entry in a session — its bit rows beside
    the snapshot they were computed on, with the snapshot's rank column
    derived (once per graph version) — and its decoded answer."""
    session = GraphSession(closure_graph, policy=ExecutionPolicy(backend="compact"))
    entry = session.run(CLOSURE)._entry()
    entry.snapshot.sort_ranks
    answers = entry.bits.node_pairs(entry.snapshot.node_objects)
    gc.collect()
    return answers, entry


def bench_wire_encode_from_pairs(benchmark, closure_graph):
    answers, _ = _closure_answer(closure_graph)
    benchmark.pedantic(lambda: wire.encode_answers(CLOSURE, answers), rounds=5, iterations=1)
    benchmark.extra_info["num_pairs"] = len(answers)
    assert len(answers) > 25_000


def bench_wire_encode_from_rows(benchmark, closure_graph):
    answers, entry = _closure_answer(closure_graph)
    document = benchmark.pedantic(
        lambda: wire.encode_entry(CLOSURE, entry), rounds=5, iterations=1
    )
    assert entry.answer is None  # the rows path decoded nothing
    assert document == wire.encode_answers(CLOSURE, answers)
