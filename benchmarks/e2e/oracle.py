"""The answer oracle: expected count and digest of every answer.

``expected.json`` (committed) holds, per workload at seed 1, ``key ->
[count, sha256]`` for every answer the operation lists produce.  Other
seeds compute the same mapping at start-up — outside ``setup_s`` — from
a ``routing="manual"``, ``backend="dict"`` sequential session, i.e. the
plainest evaluation path the program has.  :func:`verify_oracle`
cross-checks that path against the naive specification evaluators on a
2x-reduced graph.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from graphs import graph_document, graph_json
from workloads import WORKLOADS, Op, Workload

EXPECTED_PATH = Path(__file__).with_name("expected.json")
EXPECTED_SEED = 1

Expectation = Tuple[int, str]


def answer_rows(answer) -> List[Tuple]:
    """An answer as id tuples: a ``Result``, a node set, or a verdict."""
    if isinstance(answer, bool):
        return [(answer,)]
    rows = answer.rows() if hasattr(answer, "rows") else answer
    return [
        tuple(node.id for node in row) if isinstance(row, tuple) else (row.id,) for row in rows
    ]


def answer_count(answer) -> int:
    if isinstance(answer, bool):
        return 1
    return answer.count() if hasattr(answer, "count") else len(answer)


def digest(rows: Iterable[Tuple]) -> str:
    """sha256 over the sorted rows, one tab-joined row per line."""
    lines = sorted("\t".join(map(str, row)) for row in rows)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def apply_actions(graph, actions) -> None:
    """One atomic ``graph.batch()`` of ``[verb, *args]`` actions."""
    with graph.batch() as batch:
        for verb, *args in actions:
            getattr(batch, verb)(*args)


def answers_of(session, op: Op, parse) -> list:
    """Execute *op* on a local session; one answer per ``op.keys`` entry."""
    if op.kind == "mutate":
        apply_actions(session.graph, op.args[0])
        return [session.run(parse(query)) for query in op.queries]
    query = parse(op.queries[0])
    if op.kind == "run":
        return [session.run(query)]
    if op.kind == "targets":
        return [session.targets(query, op.args[0])]
    return [session.holds(query, *op.args)]


def compute_expected(document: Dict, client_ops) -> Dict[str, Expectation]:
    """``key -> (count, digest)`` from the manual/dict reference session."""
    from repro.api import ExecutionPolicy, GraphSession, Query
    from repro.datagraph import graph_from_json

    parsed: Dict = {}

    def parse(query):
        if query not in parsed:
            parsed[query] = Query.parse(query[1], query[0])
        return parsed[query]

    expected: Dict[str, Expectation] = {}
    text = graph_json(document)
    for ops in client_ops:
        # Each client's expectations assume only its own writes (the
        # workloads keep other clients' answers independent of them).
        session = GraphSession(
            graph_from_json(text), policy=ExecutionPolicy(routing="manual", backend="dict")
        )
        for op in ops:
            if op.kind != "mutate" and all(key in expected for key in op.keys):
                continue
            for key, answer in zip(op.keys, answers_of(session, op, parse)):
                if key not in expected:
                    expected[key] = (answer_count(answer), digest(answer_rows(answer)))
    return expected


def load_expected(workload: Workload, seed: int) -> Optional[Dict[str, Expectation]]:
    """The committed expectations, when *seed* is the oracle seed."""
    if seed != EXPECTED_SEED or not EXPECTED_PATH.exists():
        return None
    stored = json.loads(EXPECTED_PATH.read_text(encoding="utf-8")).get(workload.name)
    if stored is None:
        return None
    return {key: (count, sha) for key, (count, sha) in stored.items()}


def expected_for(workload: Workload, seed: int) -> Dict[str, Expectation]:
    """A seed's expectations, computed from the reference session."""
    document = graph_document(workload.graph, seed)
    return compute_expected(document, workload.client_ops(seed, document))


def write_expected() -> int:
    """Regenerate ``expected.json`` for every workload at the oracle seed."""
    payload = {
        workload.name: expected_for(workload, EXPECTED_SEED) for workload in WORKLOADS.values()
    }
    EXPECTED_PATH.write_text(json.dumps(payload, sort_keys=True, indent=0) + "\n", encoding="utf-8")
    return sum(len(entries) for entries in payload.values())


# ----------------------------------------------------------------------
# --verify-oracle: the reference session against the naive evaluators
# ----------------------------------------------------------------------
def _naive_rows(graph, query) -> List[Tuple]:
    """Full-relation rows of *query* by the specification evaluators."""
    from repro.api import QueryKind
    from repro.query.crpq import evaluate_crpq_naive
    from repro.query.data_rpq_eval import evaluate_data_rpq_naive
    from repro.query.rpq_eval import evaluate_rpq_naive

    if query.kind is QueryKind.RPQ:
        return answer_rows(evaluate_rpq_naive(graph, query.plan))
    if query.kind is QueryKind.DATA_RPQ:
        return answer_rows(evaluate_data_rpq_naive(graph, query.plan))
    if query.kind is QueryKind.CRPQ:
        return answer_rows(evaluate_crpq_naive(graph, query.plan))
    return []  # GXPath has no naive twin; the committed digests pin it


def verify_oracle(seed: int = EXPECTED_SEED, shrink: int = 2) -> List[str]:
    """Mismatches between the reference session and the naive evaluators
    over every distinct query of every workload, on the reduced graphs."""
    from repro.api import ExecutionPolicy, GraphSession, Query, QueryKind
    from repro.datagraph import graph_from_json

    problems: List[str] = []
    graphs: Dict[str, object] = {}
    checked = set()
    for workload in WORKLOADS.values():
        document = graph_document(workload.graph, seed, shrink=shrink)
        if workload.graph not in graphs:
            graphs[workload.graph] = graph_from_json(graph_json(document))
        graph = graphs[workload.graph]
        session = GraphSession(graph, policy=ExecutionPolicy(routing="manual", backend="dict"))
        queries = {
            query for ops in workload.client_ops(seed, document) for op in ops for query in op.queries
        }
        for dialect, text in sorted(queries):
            if (workload.graph, dialect, text) in checked:
                continue
            checked.add((workload.graph, dialect, text))
            query = Query.parse(text, dialect)
            if query.kind in (QueryKind.GXPATH_NODE, QueryKind.GXPATH_PATH):
                continue
            got = digest(answer_rows(session.run(query)))
            want = digest(_naive_rows(graph, query))
            if got != want:
                problems.append(f"{workload.graph} {dialect}:{text}: session {got} != naive {want}")
    return problems


if __name__ == "__main__":  # python oracle.py WORKLOAD SEED -> expectations as JSON
    import sys

    json.dump(expected_for(WORKLOADS[sys.argv[1]], int(sys.argv[2])), sys.stdout)
