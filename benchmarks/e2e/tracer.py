"""Outside-in span tracer: wrap public names, record spans, restore.

The benchmark attributes an operation's latency to the program's layers
without touching the program.  :data:`TABLE` lists ``(metric, dotted
public name)`` rows; a metric's dotted prefix is the layer (module) it
charges.  For a traced pass only, :meth:`Tracer.install` replaces each
name — in every loaded ``repro.*`` module namespace holding the same
object, and on the class for methods — with a wrapper that records one
span per call; :meth:`Tracer.restore` puts every original back.

A span is ``(id, parent id, metric, name, start, end, op id, tag)``; the
op id is the harness's number for the timed operation the call served,
or the negative ``idle_op`` (one per pass) for set-up and verification.
Parents come from a per-thread stack, so a span's **self time** is its
duration minus its direct children's durations, and the per-layer
``*_ms`` metrics of a workload plus ``trace.unattributed_ms`` sum to its
mean traced latency.  Only coarse boundaries are wrapped — never a
per-edge or per-node accessor — and the real dispatch runs unchanged.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Tuple

#: ``(metric, dotted public name)``.  Several names may feed one metric.
TABLE: Tuple[Tuple[str, str], ...] = (
    # api: parsing, session cache plumbing, the remote twin, the wire codec
    ("api.query.parse_ms", "repro.api.query.Query.parse"),
    ("api.query.parse_ms", "repro.api.query.Query.of"),
    ("api.session.self_ms", "repro.api.session.GraphSession.run"),
    ("api.session.self_ms", "repro.api.session.GraphSession.targets"),
    ("api.session.self_ms", "repro.api.session.GraphSession.holds"),
    ("api.session.self_ms", "repro.api.result.Result.count"),
    ("api.remote.self_ms", "repro.api.remote.RemoteSession.run"),
    ("api.remote.self_ms", "repro.api.remote.RemoteSession.targets"),
    ("api.remote.self_ms", "repro.api.remote.RemoteSession.mutate"),
    ("api.wire.encode_ms", "repro.api.wire.encode_query"),
    ("api.wire.decode_ms", "repro.api.wire.decode_answers"),
    ("api.wire.decode_ms", "repro.api.wire.decode_nodes"),
    ("server.protocol.send_ms", "repro.server.protocol.send_frame"),
    ("server.protocol.recv_wait_ms", "repro.server.protocol.recv_frame"),
    # planner: routing, statistics, planning, join execution
    ("planner.router.route_ms", "repro.planner.router.route_query"),
    ("planner.stats.build_ms", "repro.planner.stats.graph_statistics"),
    ("planner.planner.plan_ms", "repro.planner.planner.plan_crpq"),
    ("planner.execute.self_ms", "repro.planner.execute.execute_plan"),
    # engine facade: compilation, node decode, backend dispatch
    ("engine.engine.compile_ms", "repro.engine.engine.EvaluationEngine.compile_rpq"),
    ("engine.engine.compile_ms", "repro.engine.engine.EvaluationEngine.compile_data_rpq"),
    ("engine.engine.node_decode_ms", "repro.engine.engine.EvaluationEngine.evaluate_rpq"),
    ("engine.engine.self_ms", "repro.engine.engine.EvaluationEngine.evaluate_rpq_ids"),
    ("engine.engine.self_ms", "repro.engine.engine.EvaluationEngine.evaluate_data_rpq"),
    ("engine.engine.self_ms", "repro.engine.engine.EvaluationEngine.evaluate_rpq_from"),
    ("engine.engine.self_ms", "repro.engine.engine.EvaluationEngine.evaluate_atom_ids"),
    # dict product kernels, one row per phase
    ("engine.product.forward_ms", "repro.engine.product.forward_expand"),
    ("engine.product.prune_ms", "repro.engine.product.backward_prune"),
    ("engine.product.seed_ms", "repro.engine.product.seed_masks"),
    ("engine.product.propagate_ms", "repro.engine.product.propagate_masks"),
    ("engine.product.decode_ms", "repro.engine.product.decode_pairs"),
    ("engine.product.point_ms", "repro.engine.product.reachable_targets"),
    ("engine.product.seeded_ms", "repro.engine.product.seeded_product_relation"),
    # compact (CSR) kernels
    ("engine.compact.nfa_ms", "repro.engine.compact.nfa_relation"),
    ("engine.compact.register_ms", "repro.engine.compact.register_relation"),
    ("engine.compact.closure_ms", "repro.engine.compact.closure_relation"),
    ("engine.compact.point_ms", "repro.engine.compact.nfa_reachable_targets"),
    # data-RPQ kernels over the dict index, GXPath, the partitioned drivers
    ("engine.data.ree_ms", "repro.engine.data.ree_relation"),
    ("engine.data.register_ms", "repro.engine.data.register_automaton_relation"),
    ("gxpath.evaluation.eval_ms", "repro.gxpath.evaluation.evaluate_node"),
    ("gxpath.evaluation.eval_ms", "repro.gxpath.evaluation.evaluate_path"),
    ("engine.partition.self_ms", "repro.engine.partition.partitioned_product_relation"),
    # storage: index builds and patches, delta journal, repair
    ("datagraph.serialization.load_ms", "repro.datagraph.serialization.graph_from_json"),
    ("datagraph.index.build_ms", "repro.datagraph.index.LabelIndex.__init__"),
    ("datagraph.index.build_ms", "repro.datagraph.index.LabelIndex.patched"),
    ("datagraph.compact.build_ms", "repro.datagraph.compact.CompactLabelIndex.from_label_index"),
    ("deltas.journal.composed_ms", "repro.deltas.journal.DeltaJournal.composed"),
    ("deltas.repair.repair_ms", "repro.deltas.repair.repair_full_relation"),
    # SQL backend: store ingest/refresh, statement execution
    ("sqlbackend.schema.ingest_ms", "repro.sqlbackend.backend.store_for"),
    ("sqlbackend.schema.refresh_ms", "repro.sqlbackend.schema.SqlStore.refresh"),
    ("sqlbackend.backend.rpq_ms", "repro.sqlbackend.backend.evaluate_rpq_pairs"),
    ("sqlbackend.backend.rpq_ms", "repro.sqlbackend.backend.closure_pairs"),
    ("sqlbackend.backend.plan_ms", "repro.sqlbackend.backend.evaluate_plan_rows"),
)


def _plan_trace_tag(args, kwargs, result):
    trace = kwargs.get("trace")
    if trace is None or not trace.steps:  # the whole-plan SQL route records no steps
        return None
    observed = sum(step[2] for step in trace.steps)
    return [trace.replans, observed, len(result)]


#: name -> ``tag(args, kwargs, result)``: the small fact about a call a
#: count metric needs (chosen route, repair success, join cardinalities).
TAGS: Dict[str, Callable[[tuple, dict, Any], Any]] = {
    "repro.planner.router.route_query": lambda a, k, route: route.strategy,
    "repro.deltas.repair.repair_full_relation": lambda a, k, repaired: repaired is not None,
    "repro.datagraph.index.LabelIndex.patched": lambda a, k, index: index is not None,
    "repro.planner.execute.execute_plan": _plan_trace_tag,
}

Span = Tuple[int, int, str, str, float, float, int, Any]


def _resolve(name: str) -> Tuple[Any, str]:
    """``(owner, attribute)`` of a dotted name: owner is a module or a class."""
    parts = name.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:-1]:
            owner = getattr(owner, attribute)
        return owner, parts[-1]
    raise ImportError(f"cannot resolve traced name {name!r}")


def raw_object(name: str) -> Any:
    """The object a dotted name is bound to *right now* (descriptors
    unbound), so tests can assert ``is``-identity before and after."""
    owner, attribute = _resolve(name)
    return vars(owner)[attribute]


class Tracer:
    """Records spans for :data:`TABLE` while installed; see module doc."""

    def __init__(self, table: Iterable[Tuple[str, str]] = TABLE):
        self.table = tuple(table)
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []
        #: op id recorded for spans outside any timed operation
        self.idle_op = -1

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            local.op = None
            return local.stack

    def begin_op(self, op_id: int) -> None:
        """Spans started on this thread from now on belong to *op_id*."""
        self._stack()
        self._local.op = op_id

    def end_op(self) -> None:
        self._local.op = None

    @contextmanager
    def span(self, metric: str, name: str):
        """A harness-level span around a block (e.g. one ``graph.batch()``)."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            op = self._local.op
            self.spans.append(
                (span_id, parent, metric, name, start, end, self.idle_op if op is None else op, None)
            )

    def _wrap(self, original: Callable, metric: str, name: str) -> Callable:
        ids, spans, local, clock = self._ids, self.spans, self._local, time.perf_counter
        stack_of = self._stack
        tag_of = TAGS.get(name)

        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            tag = "raised"
            start = clock()
            try:
                result = original(*args, **kwargs)
                tag = None
            finally:
                end = clock()
                stack.pop()
                if tag is None and tag_of is not None:
                    tag = tag_of(args, kwargs, result)
                op = local.op
                spans.append(
                    (span_id, parent, metric, name, start, end, self.idle_op if op is None else op, tag)
                )
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", "traced")
        return traced

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Replace every table name with its recording wrapper."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for metric, name in self.table:
            owner, attribute = _resolve(name)
            raw = vars(owner)[attribute]
            if isinstance(owner, type):
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(raw.__func__, metric, name))
                else:
                    wrapped = self._wrap(raw, metric, name)
                self._undo.append((owner, attribute, raw))
                setattr(owner, attribute, wrapped)
                continue
            wrapped = self._wrap(raw, metric, name)
            # A ``from .x import f`` binding elsewhere in the package holds
            # the same object under its own name; replace each of them.
            for module_name, module in list(sys.modules.items()):
                if module is None or not (
                    module_name == "repro" or module_name.startswith("repro.")
                ):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is raw:
                        self._undo.append((module, alias, raw))
                        setattr(module, alias, wrapped)

    def restore(self) -> None:
        """Put every original back (reverse order; idempotent)."""
        while self._undo:
            owner, attribute, raw = self._undo.pop()
            setattr(owner, attribute, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """span id -> self time in seconds (duration minus direct children)."""
        own = {span[0]: span[5] - span[4] for span in self.spans}
        for span_id, parent, _metric, _name, start, end, _op, _tag in self.spans:
            if parent in own:
                own[parent] -= end - start
        return own

    def write_jsonl(self, path: str) -> None:
        """One span per line: id, parent, metric, name, start, end, op, tag."""
        keys = ("id", "parent", "metric", "name", "start", "end", "op", "tag")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
