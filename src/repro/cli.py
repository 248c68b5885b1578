"""Command-line interface: inspect graphs, answer queries, run experiments.

The CLI works on the JSON graph format of
:mod:`repro.datagraph.serialization` and on mappings given as JSON lists
of ``[source, target]`` regular-expression pairs.  It is intentionally
thin — every sub-command is a few lines over the unified
:class:`repro.api.GraphSession` / :class:`repro.api.Query` API — but it
makes the common reproduction tasks scriptable without writing Python:

.. code-block:: bash

    python -m repro info graph.json
    python -m repro evaluate graph.json --rpq "knows.knows"
    python -m repro evaluate graph.json --gxpath-node "<a.[<b>]>" --json
    python -m repro evaluate graph.json --crpq "x,y :- (x, knows, z), (z, knows, y)" --explain
    python -m repro certain graph.json mapping.json --ree "(knows)=" --method auto
    python -m repro exchange graph.json mapping.json --policy nulls -o target.json
    python -m repro experiment E5
    python -m repro serve graph.json --port 7464
    python -m repro evaluate --server 127.0.0.1:7464 --rpq "knows.knows"
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
from pathlib import Path
from typing import Optional, Sequence

from .api import ExecutionPolicy, GraphSession, Query
from .core.certain_answers import certain_answers
from .core.exchange import DataExchangeEngine
from .core.gsm import GraphSchemaMapping
from .datagraph.serialization import graph_from_json, graph_to_json
from .exceptions import ReproError

__all__ = ["main", "build_parser"]

#: CLI query flags and the :meth:`repro.api.Query.parse` dialect they select.
_QUERY_FLAGS = (
    ("rpq", "rpq", "a plain regular path query, e.g. 'knows.knows'"),
    ("ree", "ree", "an equality RPQ, e.g. '(knows)='"),
    ("rem", "rem", "a memory RPQ, e.g. '!x.(knows[x!=])+'"),
    ("crpq", "crpq", "a conjunctive RPQ, e.g. 'x,y :- (x, knows, z), (z, knows, y)'"),
    ("gxpath_node", "gxpath-node", "a GXPath node expression, e.g. '<a.[<b>]>'"),
    ("gxpath_path", "gxpath-path", "a GXPath path expression, e.g. 'a-* . (b)!='"),
)


def _load_graph(path: str):
    return graph_from_json(Path(path).read_text(encoding="utf-8"))


def _load_mapping(path: str) -> GraphSchemaMapping:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(payload, dict):
        rules = payload.get("rules", [])
        name = payload.get("name", "")
    else:
        rules, name = payload, ""
    if not isinstance(rules, list):
        raise ReproError("mapping JSON must be a list of [source, target] pairs or {'rules': [...]}")
    return GraphSchemaMapping([(str(source), str(target)) for source, target in rules], name=name)


def _parse_query(arguments: argparse.Namespace) -> Query:
    """Build the unified query IR from whichever dialect flag was given."""
    for attribute, dialect, _ in _QUERY_FLAGS:
        text = getattr(arguments, attribute, None)
        if text:
            return Query.parse(text, dialect=dialect)
    raise ReproError("provide a query with --rpq, --ree, --rem, --gxpath-node or --gxpath-path")


def _execution_policy(arguments: argparse.Namespace) -> ExecutionPolicy:
    """Map the evaluate sub-command's policy flags onto an ExecutionPolicy."""
    workers = getattr(arguments, "workers", None)
    if workers is not None and workers < 1:
        raise ReproError(f"--workers must be positive, got {workers}")
    return ExecutionPolicy(
        max_workers=workers,
        intra_query=getattr(arguments, "intra_query", None) or "off",
        backend=getattr(arguments, "backend", None) or "auto",
        routing=getattr(arguments, "routing", None) or "auto",
    )


def _parse_address(text: str):
    """A ``--server`` address: ``host:port`` for TCP, anything else a path."""
    if ":" in text and "/" not in text:
        host, _, port = text.rpartition(":")
        try:
            return (host or "127.0.0.1", int(port))
        except ValueError:
            raise ReproError(f"malformed server address {text!r}; expected host:port") from None
    return text


def _print_answers(answers) -> None:
    rows = sorted(answers, key=lambda answer: tuple(str(node.id) for node in answer))
    for answer in rows:
        print("  " + "  ->  ".join(f"{node.id} ({node.value})" for node in answer))
    print(f"{len(rows)} answer(s)")


def _add_query_arguments(parser: argparse.ArgumentParser, navigational_only: bool = False) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    for attribute, dialect, help_text in _QUERY_FLAGS:
        if navigational_only and (dialect.startswith("gxpath") or dialect == "crpq"):
            continue
        group.add_argument(f"--{dialect}", dest=attribute, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Schema mappings for data graphs — command-line tools"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    info = commands.add_parser("info", help="summarise a data graph JSON file")
    info.add_argument("graph", help="path to a graph JSON file")

    evaluate = commands.add_parser("evaluate", help="evaluate a query on a data graph")
    evaluate.add_argument(
        "graph",
        nargs="?",
        default=None,
        help="path to a graph JSON file (optional with --server: the daemon's "
        "graph is used, or replaced when a file is also given)",
    )
    evaluate.add_argument(
        "--server",
        default=None,
        metavar="ADDR",
        help="run the query on a ``repro serve`` daemon instead of in-process; "
        "ADDR is host:port for TCP or a Unix-socket path",
    )
    evaluate.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-query deadline, enforced server-side (needs --server)",
    )
    evaluate.add_argument(
        "--json", action="store_true", help="print the result as a JSON document"
    )
    evaluate.add_argument(
        "--explain",
        action="store_true",
        help="print the execution plan instead of evaluating (for --crpq: the "
        "planner's cost-ordered join plan with seeded scans and estimates)",
    )
    evaluate.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker count of the forced --intra-query driver "
        "(default: CPU count, capped at 8)",
    )
    evaluate.add_argument(
        "--intra-query",
        choices=["blocks"],
        default=None,
        help="force the intra-query driver on any graph size: 'blocks' fans the "
        "source propagation out over forked workers",
    )
    evaluate.add_argument(
        "--backend",
        default=None,
        choices=["auto", "compact", "dict", "sql"],
        help="storage/execution backend: 'dict' (hash-table kernels), 'compact' "
        "(int-id CSR kernels), 'sql' (recursive CTEs over the D_G database, "
        "e.g. repro evaluate graph.json --rpq 'knows*' --backend sql), or "
        "'auto' (the compact kernels; default)",
    )
    evaluate.add_argument(
        "--routing",
        default=None,
        choices=["auto", "manual"],
        help="query routing: 'auto' (default) or 'manual'; either way a query "
        "runs sequentially on the compact kernels unless --backend or "
        "--intra-query force a route (the value is accepted and ignored)",
    )
    _add_query_arguments(evaluate)

    certain = commands.add_parser("certain", help="certain answers of a target query under a mapping")
    certain.add_argument("graph", help="path to the source graph JSON file")
    certain.add_argument("mapping", help="path to the mapping JSON file ([[source, target], ...])")
    certain.add_argument(
        "--method",
        default="auto",
        choices=["auto", "naive", "nulls", "equality", "data-path"],
        help="certain-answer algorithm (default: auto)",
    )
    _add_query_arguments(certain, navigational_only=True)

    exchange = commands.add_parser("exchange", help="materialise a canonical target instance")
    exchange.add_argument("graph", help="path to the source graph JSON file")
    exchange.add_argument("mapping", help="path to the mapping JSON file")
    exchange.add_argument("--policy", default="nulls", choices=["nulls", "fresh"])
    exchange.add_argument("-o", "--output", help="write the target graph JSON here (default: stdout)")

    experiment = commands.add_parser("experiment", help="run one of the reproduction experiments")
    experiment.add_argument("name", help="experiment name, e.g. E5 (see DESIGN.md)")

    serve = commands.add_parser(
        "serve", help="run the query daemon: one graph, many concurrent clients"
    )
    serve.add_argument("graph", help="path to the graph JSON file to serve")
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind host (default: 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=7464, help="TCP bind port; 0 picks one (default: 7464)"
    )
    serve.add_argument(
        "--socket", default=None, metavar="PATH",
        help="serve on a Unix-domain socket at PATH instead of TCP",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=8, metavar="N",
        help="queries evaluated concurrently (default: 8)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=16, metavar="N",
        help="admission queue beyond the in-flight limit; excess requests "
        "get an immediate busy error (default: 16)",
    )
    serve.add_argument(
        "--query-timeout", type=float, default=None, metavar="SECONDS",
        help="default per-query deadline; also caps client-requested deadlines "
        "(default: none)",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=5.0, metavar="SECONDS",
        help="graceful-shutdown drain window: in-flight queries get this long "
        "to finish before clients are told shutting_down (default: 5)",
    )
    serve.add_argument(
        "--backend", default="auto", choices=["auto", "compact", "dict", "sql"],
        help="storage/execution backend for every client session "
        "(default: auto, the compact kernels)",
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return _dispatch(arguments)
    except (ReproError, FileNotFoundError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _dispatch(arguments: argparse.Namespace) -> int:
    if arguments.command == "info":
        graph = _load_graph(arguments.graph)
        print(graph.pretty())
        print(f"alphabet: {sorted(graph.alphabet)}")
        print(f"null nodes: {len(graph.null_nodes())}")
        return 0

    if arguments.command == "evaluate":
        if arguments.server is not None:
            return _evaluate_remote(arguments)
        if arguments.timeout is not None:
            raise ReproError("--timeout is enforced server-side; it needs --server")
        if arguments.graph is None:
            raise ReproError("evaluate needs a graph JSON file (or --server ADDR)")
        graph = _load_graph(arguments.graph)
        query = _parse_query(arguments)
        session = GraphSession(graph, policy=_execution_policy(arguments))
        if arguments.explain:
            if arguments.json:
                raise ReproError("--explain prints a plan, not answers; drop --json")
            print(session.explain(query))
            return 0
        result = session.run(query)
        if arguments.json:
            print(result.to_json(indent=2))
        else:
            _print_answers(result.rows())
        return 0

    if arguments.command == "certain":
        source = _load_graph(arguments.graph)
        mapping = _load_mapping(arguments.mapping)
        query = _parse_query(arguments)
        answers = certain_answers(mapping, source, query, method=arguments.method)
        _print_answers(answers)
        return 0

    if arguments.command == "exchange":
        source = _load_graph(arguments.graph)
        mapping = _load_mapping(arguments.mapping)
        engine = DataExchangeEngine(mapping)
        result = engine.materialise(source, policy=arguments.policy)
        payload = graph_to_json(result.target, strict=False)
        if arguments.output:
            Path(arguments.output).write_text(payload, encoding="utf-8")
            print(f"wrote {result.target.num_nodes} nodes / {result.target.num_edges} edges "
                  f"({result.null_node_count} nulls) to {arguments.output}")
        else:
            print(payload)
        return 0

    if arguments.command == "experiment":
        from .experiments import EXPERIMENTS

        name = arguments.name.upper()
        if name not in EXPERIMENTS:
            print(f"error: unknown experiment {name}; available: {', '.join(EXPERIMENTS)}",
                  file=sys.stderr)
            return 1
        result = EXPERIMENTS[name]()
        print(result.to_table())
        return 0

    if arguments.command == "serve":
        return _serve(arguments)

    raise AssertionError(f"unhandled command {arguments.command!r}")  # pragma: no cover


def _evaluate_remote(arguments: argparse.Namespace) -> int:
    """The evaluate sub-command's client mode: query a running daemon."""
    from .api import connect

    address = _parse_address(arguments.server)
    query = _parse_query(arguments)
    with connect(address, timeout=arguments.timeout) as session:
        if arguments.graph is not None:
            loaded = session.load_graph(
                json.loads(Path(arguments.graph).read_text(encoding="utf-8"))
            )
            print(
                f"loaded {loaded['num_nodes']} nodes / {loaded['num_edges']} edges "
                f"onto {arguments.server}",
                file=sys.stderr,
            )
        if arguments.explain:
            if arguments.json:
                raise ReproError("--explain prints a plan, not answers; drop --json")
            print(session.explain(query))
            return 0
        result = session.run(query)
        if arguments.json:
            print(result.to_json(indent=2))
        else:
            _print_answers(result.rows())
    return 0


def _serve(arguments: argparse.Namespace) -> int:
    """The serve sub-command: load the graph, run the daemon until ^C."""
    from .server import ReproServer, ServerConfig

    graph = _load_graph(arguments.graph)
    config = ServerConfig(
        host=arguments.host,
        port=arguments.port,
        path=arguments.socket,
        max_inflight=arguments.max_inflight,
        queue_depth=arguments.queue_depth,
        query_timeout=arguments.query_timeout,
        drain_grace=arguments.drain_grace,
        backend=arguments.backend,
    )
    server = ReproServer(graph, config)
    # Install the graceful-drain handler before the listener accepts its
    # first connection: busy connection threads can starve the main
    # thread long enough that a SIGTERM arriving before serve_forever()
    # would otherwise hit the interpreter's default (abrupt) handler.
    with contextlib.suppress(ValueError):
        signal.signal(signal.SIGTERM, lambda *_: server.request_stop())
    address = server.start()
    where = address if isinstance(address, str) else "{}:{}".format(*address)
    print(
        f"serving {graph.name or arguments.graph} "
        f"({graph.num_nodes} nodes / {graph.num_edges} edges) on {where}",
        file=sys.stderr,
    )
    server.serve_forever()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
