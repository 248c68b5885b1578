"""Measure one workload: set-up, timed passes, verification, layer trace.

A run repeats **passes** until the requested measuring time is spent.
Each pass sets the workload up from the graph JSON (timed: one
``setup_s`` sample), replays the fixed operation lists once in one
closed loop (a workload's clients take turns, one operation each),
checks every answer, and tears down — so every pass executes the same
operations in the same order and count-type metrics repeat exactly.  A
run's value for a metric is the **median of its passes' values**.

**Times are reported in reference-host units.**  The shared hosts this
repo is measured on change speed by up to 2x for seconds to minutes at
a time, which no amount of repetition inside one run averages out.  So
a small fixed calibration kernel (set / dict / tuple work, like the
program's hot loops) is timed before and after every set-up and every
quarter second of operations, and each measured time is scaled by
``REFERENCE_KERNEL_SECONDS / (kernel time measured around it)``.
``host.speed_factor`` reports the mean measured / reference ratio, so a
raw time is the reported one times that factor.

With tracing on, passes alternate plain / traced; the traced passes feed
the per-layer metrics and the plain ones the ``trace.overhead_share``
reference.  End-to-end numbers always come from a run with tracing off.
"""

from __future__ import annotations

import gc
import json
import operator
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median
from typing import Callable, Dict, List, Optional, Sequence

from drivers import (
    BENCH_DIR,
    WORK_DIR,
    DaemonDriver,
    LocalDriver,
    child_environment,
    own_cpu_seconds,
    process_cpu_seconds,
    process_peak_rss_mb,
)
from graphs import graph_document, graph_json
from oracle import answer_count, answer_rows, digest, load_expected
from tracer import Tracer
from workloads import OP_CLASSES, WORKLOADS, Op, Workload

#: The calibration kernel's time on the reference host (the 2-core
#: container this benchmark was defined on) in its undisturbed state.
#: It only fixes the unit of the reported times: never change it.
REFERENCE_KERNEL_SECONDS = 0.0022
CALIBRATE_EVERY_SECONDS = 0.25
KERNEL_REPEATS = 5

OP_STRIDE = 1_000_000  # op id = (pass * clients + client) * OP_STRIDE + index
ROUTE_STRATEGIES = ("sequential", "compact", "sql", "blocks", "sharded")

#: Set-up work that spans explain, reported as ``setup.<metric>``.
SETUP_SPAN_METRICS = (
    "datagraph.serialization.load_ms",
    "datagraph.index.build_ms",
    "datagraph.compact.build_ms",
    "planner.stats.build_ms",
    "sqlbackend.schema.ingest_ms",
    "engine.engine.compile_ms",
)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# ----------------------------------------------------------------------
# Host-speed calibration
# ----------------------------------------------------------------------
def _kernel() -> int:
    seen, index = set(), {}
    for i in range(8000):
        key = (i * 7919) % 4001
        seen.add((key, i & 7))
        index[key] = i
    return len(seen) + len(index)


def kernel_seconds() -> float:
    """How long the calibration kernel takes right now (a median)."""
    samples = []
    for _ in range(KERNEL_REPEATS):
        started = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - started)
    return median(samples)


def scale_between(before: float, after: float) -> float:
    """The factor turning a time measured between two calibrations into
    reference-host time."""
    return REFERENCE_KERNEL_SECONDS / ((before + after) / 2.0)


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------
class Verifier:
    """Checks every answer's count, and each distinct answer's digest once."""

    def __init__(self, expected: Dict[str, tuple]):
        self.expected = expected
        self.verified = set()
        self.cpu_seconds = 0.0
        self.problems: List[str] = []

    def check(self, op: Op, answers: tuple) -> bool:
        expected = self.expected
        for key, answer in zip(op.keys, answers):
            want = expected.get(key)
            if want is None:
                self.problems.append(f"{key}: no expectation")
                return False
            count = answer_count(answer)
            if count != want[0]:
                self.problems.append(f"{key}: {count} answers, expected {want[0]}")
                return False
            if key not in self.verified:
                self.verified.add(key)
                started = time.process_time()
                matches = digest(answer_rows(answer)) == want[1]
                self.cpu_seconds += time.process_time() - started
                if not matches:
                    self.problems.append(f"{key}: answer digest differs from the oracle")
                    return False
        return True


class ClientRun:
    """One client's progress through its operation list."""

    def __init__(self, client, ops: List[Op], op_base: int):
        self.client = client
        self.ops = ops
        self.op_base = op_base
        self.latencies: List[float] = []  # raw seconds
        self.calibrated_at: List[int] = []  # operations done at each in-loop calibration
        self.failed = 0
        self.errors: List[str] = []

    @property
    def done(self) -> bool:
        return len(self.latencies) == len(self.ops)

    def step(
        self, verifier: Verifier, tracer: Optional[Tracer], after_op: Optional[Callable[[], None]]
    ) -> float:
        """Execute, time and check the next operation; its raw latency."""
        index = len(self.latencies)
        op = self.ops[index]
        if tracer is not None:
            tracer.begin_op(self.op_base + index)
        answers = None
        started = time.perf_counter()
        try:
            answers = self.client.execute(op)
        except Exception as error:  # noqa: BLE001 - a failed op is a counted outcome
            self.errors.append(f"{op.keys[0]}: {type(error).__name__}: {error}")
        elapsed = time.perf_counter() - started
        self.latencies.append(elapsed)
        if tracer is not None:
            tracer.end_op()
            if after_op is not None:
                after_op()
        if answers is None or not verifier.check(op, answers):
            self.failed += 1
        return elapsed

    def scales(self, readings: List[float]) -> List[float]:
        """Per-operation reference-time factors; *readings* are the kernel
        times before the loop, at each in-loop calibration, and after it."""
        positions = [0, *self.calibrated_at, len(self.ops)]
        scales: List[float] = []
        for start, end, left, right in zip(positions, positions[1:], readings, readings[1:]):
            scales.extend([scale_between(left, right)] * (end - start))
        return scales


class PassResult:
    """One pass's measurements; every time already in reference-host units."""

    def __init__(self, traced: bool, index: int):
        self.traced = traced
        self.index = index
        self.raw_busy_seconds = 0.0
        self.kernel_seconds: List[float] = []
        self.setup_scale = 1.0
        self.setup_seconds = 0.0
        self.spawn_seconds = 0.0
        self.warmup_seconds = 0.0
        self.busy_seconds = 0.0
        self.cpu_seconds = 0.0
        self.peak_rss_mb = 0.0
        self.latencies: List[float] = []
        self.scales: List[float] = []
        self.classes: List[str] = []
        self.op_ids: List[int] = []
        self.failed = 0
        self.counters: Dict[str, float] = {}
        self.server: Dict[str, float] = {}
        self.bytes_out = 0
        self.bytes_in = 0

    @property
    def ops(self) -> int:
        return len(self.latencies)


def warmup_ops(ops: List[Op], share: float) -> List[Op]:
    """The operations set-up replays (without their writes) before timing:
    the first use of every distinct query — the same work for every seed,
    so ``setup_s`` does not depend on how the deck was shuffled — plus
    the leading *share* of a long list, which fills the session caches."""
    head = int(len(ops) * share)
    seen, chosen = set(), []
    for index, op in enumerate(ops):
        if index < head or op.queries not in seen:
            chosen.append(op)
        seen.add(op.queries)
    return chosen


def _reset_process_caches() -> None:
    """Every set-up starts from cold compile and SQL-statement caches."""
    from repro.engine import default_engine
    from repro.sqlbackend.backend import clear_sql_caches

    default_engine().clear_caches()
    clear_sql_caches()
    gc.collect()


def run_pass(
    workload: Workload,
    graph_text: str,
    graph_path: Optional[Path],
    client_ops: List[List[Op]],
    warm_ops: List[List[Op]],
    verifier: Verifier,
    tracer: Optional[Tracer],
    pass_index: int,
) -> PassResult:
    """Set up, warm up (*warm_ops*, per client), replay the operation
    lists once, tear down."""
    from repro.engine import default_engine
    from repro.sqlbackend.backend import sql_cache_stats

    result = PassResult(tracer is not None, pass_index)
    _reset_process_caches()
    if tracer is not None:
        tracer.idle_op = -(pass_index + 1)
        tracer.install()
    driver = None
    try:
        kernel_before_setup = kernel_seconds()
        started = time.perf_counter()
        if workload.driver == "daemon":
            driver = DaemonDriver(graph_path, count_bytes=tracer is not None)
        else:
            driver = LocalDriver(graph_text, workload.driver == "fresh", tracer)
        clients = driver.clients(len(client_ops))
        warm_started = time.perf_counter()
        for client, ops in zip(clients, warm_ops):
            for op in ops:
                client.execute(op, mutate=False)
        finished = time.perf_counter()
        kernel_before_ops = kernel_seconds()
        result.setup_scale = scale_between(kernel_before_setup, kernel_before_ops)
        result.setup_seconds = (finished - started) * result.setup_scale
        result.warmup_seconds = (finished - warm_started) * result.setup_scale
        result.spawn_seconds = getattr(driver, "spawn_seconds", 0.0) * result.setup_scale

        runs = [
            ClientRun(client, ops, (pass_index * len(client_ops) + index) * OP_STRIDE)
            for index, (client, ops) in enumerate(zip(clients, client_ops))
        ]
        after_op = driver.absorb_stats if (tracer is not None and workload.driver == "fresh") else None
        automata_before = default_engine().stats()["automata"]
        sql_before = sql_cache_stats()
        server_before = driver.server_metrics()
        processes = driver.processes()
        cpu_before = own_cpu_seconds() + sum(map(process_cpu_seconds, processes))
        verify_cpu_before = verifier.cpu_seconds
        wire_before = driver.wire_bytes()
        gc.collect()
        # One closed loop: the clients take turns, one operation each,
        # and the kernel is timed every quarter second of operations.
        pending = list(runs)
        readings = [kernel_before_ops]
        since_reading = 0.0
        while pending:
            for run in pending:
                since_reading += run.step(verifier, tracer, after_op)
            pending = [run for run in pending if not run.done]
            if since_reading >= CALIBRATE_EVERY_SECONDS and pending:
                readings.append(kernel_seconds())
                for run in runs:
                    run.calibrated_at.append(len(run.latencies))
                since_reading = 0.0
        processes = sorted(set(processes) | set(driver.processes()))
        raw_cpu = (
            own_cpu_seconds()
            + sum(map(process_cpu_seconds, processes))
            - cpu_before
            - (verifier.cpu_seconds - verify_cpu_before)
            - KERNEL_REPEATS * sum(readings[1:])  # the in-loop calibrations' own CPU
        )
        server_after = driver.server_metrics()
        readings.append(kernel_seconds())
        result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 + sum(
            map(process_peak_rss_mb, processes)
        )

        for run in runs:
            scales = run.scales(readings)
            result.latencies.extend(map(operator.mul, run.latencies, scales))
            result.scales.extend(scales)
            result.classes.extend(op.cls for op in run.ops)
            result.op_ids.extend(range(run.op_base, run.op_base + len(run.ops)))
            result.failed += run.failed
            result.raw_busy_seconds += sum(run.latencies)
            verifier.problems.extend(run.errors)
        result.kernel_seconds = [kernel_before_setup, *readings]
        # Timed wall: the operations' summed latencies (harness
        # bookkeeping between operations is not the program's time).
        result.busy_seconds = sum(result.latencies)
        result.cpu_seconds = max(raw_cpu, 0.0) * result.busy_seconds / result.raw_busy_seconds

        if tracer is not None:
            if workload.driver == "session":
                driver.absorb_stats()
            wire_after = driver.wire_bytes()
            result.bytes_out = wire_after[0] - wire_before[0]
            result.bytes_in = wire_after[1] - wire_before[1]
            result.counters = _local_counters(
                driver, automata_before, default_engine().stats()["automata"],
                sql_before, sql_cache_stats(),
            )
            if server_after is not None:
                result.server = _server_counters(server_before, server_after)
    finally:
        if tracer is not None:
            tracer.restore()
        if driver is not None:
            driver.close()
    return result


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _local_counters(driver, automata_before, automata_after, sql_before, sql_after) -> Dict:
    counters: Dict[str, float] = {}
    if isinstance(driver, LocalDriver):
        results, points = driver.cache_totals["results"], driver.cache_totals["points"]
        counters["api.session.result_hit_rate"] = _rate(results[0], results[1])
        counters["api.session.point_hit_rate"] = _rate(points[0], points[1])
        counters["api.session.point_evictions"] = points[2]
        for name, value in driver.maintenance.items():
            counters[f"api.session.{name}"] = value
    counters["engine.engine.automata_hit_rate"] = _rate(
        automata_after.hits - automata_before.hits, automata_after.misses - automata_before.misses
    )
    counters["sqlbackend.backend.sql_cache_hit_rate"] = _rate(
        sql_after.hits - sql_before.hits, sql_after.misses - sql_before.misses
    )
    return counters


def _server_counters(before: Dict, after: Dict) -> Dict[str, float]:
    """Deltas of the daemon's public ``metrics`` op over the timed phase."""

    def delta(name: str) -> float:
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    pool_before, pool_after = before.get("worker_pool", {}), after.get("worker_pool", {})
    busy = pool_after.get("busy_seconds", 0.0) - pool_before.get("busy_seconds", 0.0)
    uptime = after["uptime_seconds"] - before["uptime_seconds"]
    offered = delta("pool_queries") + delta("pool_fallbacks")
    latency = after.get("latency", {})
    return {
        "server.daemon.p50_ms": latency.get("p50_ms") or 0.0,
        "server.daemon.p95_ms": latency.get("p95_ms") or 0.0,
        "server.daemon.rejected": delta("queries_rejected"),
        "server.daemon.timed_out": delta("queries_timed_out"),
        "server.daemon.inflight_peak": after.get("inflight_peak", 0),
        "server.daemon.mutations": delta("mutations_total"),
        "server.workers.pool_queries": delta("pool_queries"),
        "server.workers.pool_fallback_share": delta("pool_fallbacks") / offered if offered else 0.0,
        "server.workers.busy_s": busy,
        "server.workers.utilization": busy / uptime if uptime > 0 else 0.0,
        "server.workers.respawns": pool_after.get("respawns", 0) - pool_before.get("respawns", 0),
        "server.workers.patched_epochs": pool_after.get("patched_epochs", 0)
        - pool_before.get("patched_epochs", 0),
    }


SERVER_METRICS = tuple(
    _server_counters({"counters": {}, "uptime_seconds": 0.0}, {"counters": {}, "uptime_seconds": 0.0})
)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end_metrics(passes: List[PassResult]) -> Dict[str, float]:
    """What a user of the system sees: the median over the run's passes
    of each pass's value, so a disturbed pass does not move the result."""
    return {
        "setup_s": median(each.setup_seconds for each in passes),
        "throughput_ops_s": median(each.ops / each.busy_seconds for each in passes),
        "latency_p50_ms": median(percentile(each.latencies, 0.50) for each in passes) * 1e3,
        "latency_p90_ms": median(percentile(each.latencies, 0.90) for each in passes) * 1e3,
        "cpu_ms_per_op": median(each.cpu_seconds / each.ops for each in passes) * 1e3,
        "peak_rss_mb": max(each.peak_rss_mb for each in passes),
    }


def _refined_classes(traced: List[PassResult], tracer: Tracer) -> Dict[int, str]:
    """op id -> op class, with ``point`` split into hit/miss (did a kernel
    run?) and ``crpq`` split by the route the router reported."""
    kernel_ops, routes = set(), {}
    for _id, _parent, metric, name, _start, _end, op, tag in tracer.spans:
        if metric.startswith(("engine.", "sqlbackend.")):
            kernel_ops.add(op)
        if name.endswith("route_query"):
            routes[op] = tag
    classes: Dict[int, str] = {}
    for each in traced:
        for op_id, cls in zip(each.op_ids, each.classes):
            if cls == "point":
                cls = "point-miss" if op_id in kernel_ops else "point-hit"
            elif cls == "crpq":
                cls = "crpq-sql" if routes.get(op_id) == "sql" else "crpq-compact"
            classes[op_id] = cls
    return classes


def layer_metrics(plain: List[PassResult], traced: List[PassResult], tracer: Tracer) -> Dict[str, float]:
    """Per-layer numbers from the traced passes' spans and counters."""
    passes = len(traced)
    ops = sum(each.ops for each in traced)
    own = tracer.self_times()
    # span op id -> reference-time factor: an operation's own, or (for
    # the negative ids of set-up and verification) its pass's set-up one.
    scale_of = {-(each.index + 1): each.setup_scale for each in traced}
    for each in traced:
        scale_of.update(zip(each.op_ids, each.scales))

    op_ms: Dict[str, float] = {metric: 0.0 for metric, _name in tracer.table}
    op_ms["datagraph.graph.batch_ms"] = 0.0
    setup_ms: Dict[str, float] = dict.fromkeys(SETUP_SPAN_METRICS, 0.0)
    routes = dict.fromkeys(ROUTE_STRATEGIES, 0)
    counts = dict.fromkeys(
        ("index_builds", "index_patches", "compact_builds", "partition_calls",
         "repairs_tried", "repairs_done", "replans", "step_rows", "answer_rows"), 0
    )
    for span_id, _parent, metric, name, _start, _end, op, tag in tracer.spans:
        self_ms = own[span_id] * scale_of[op] * 1e3
        if op >= 0:
            op_ms[metric] += self_ms
        elif metric in setup_ms:
            setup_ms[metric] += self_ms
        if name.endswith("route_query") and op >= 0 and tag in routes:
            routes[tag] += 1
        elif name.endswith("LabelIndex.__init__"):
            counts["index_builds"] += 1
        elif name.endswith("LabelIndex.patched"):
            counts["index_patches"] += tag is True
        elif name.endswith("from_label_index"):
            counts["compact_builds"] += 1
        elif name.endswith("partitioned_product_relation"):
            counts["partition_calls"] += 1
        elif name.endswith("repair_full_relation"):
            counts["repairs_tried"] += 1
            counts["repairs_done"] += tag is True
        elif name.endswith("execute_plan") and isinstance(tag, list):
            counts["replans"] += tag[0]
            counts["step_rows"] += tag[1]
            counts["answer_rows"] += tag[2]

    metrics: Dict[str, float] = {metric: total / ops for metric, total in op_ms.items()}
    for metric, total in setup_ms.items():
        metrics[f"setup.{metric}"] = total / passes
    everything = plain + traced
    metrics["setup.warmup_ms"] = fmean(each.warmup_seconds for each in everything) * 1e3
    metrics["setup.daemon_spawn_ms"] = fmean(each.spawn_seconds for each in everything) * 1e3

    routed = sum(routes.values())
    for strategy, count in routes.items():
        metrics[f"planner.router.share_{strategy}"] = count / routed if routed else 0.0
    metrics["datagraph.index.builds"] = counts["index_builds"] / passes
    metrics["datagraph.index.patches"] = counts["index_patches"] / passes
    metrics["datagraph.compact.builds"] = counts["compact_builds"] / passes
    metrics["engine.partition.calls"] = counts["partition_calls"] / passes
    metrics["deltas.repair.success_rate"] = _rate(
        counts["repairs_done"], counts["repairs_tried"] - counts["repairs_done"]
    )
    metrics["planner.execute.replans"] = counts["replans"] / passes
    metrics["planner.execute.rows_per_answer"] = (
        counts["step_rows"] / counts["answer_rows"] if counts["answer_rows"] else 0.0
    )

    # Counters read from the program's own public statistics; every
    # traced pass replays the same list, so the last one stands for all.
    for name in (
        "api.session.result_hit_rate", "api.session.point_hit_rate",
        "api.session.point_evictions", "api.session.repairs", "api.session.recomputes",
        "api.session.plans_retained", "engine.engine.automata_hit_rate",
        "sqlbackend.backend.sql_cache_hit_rate",
    ):
        metrics[name] = traced[-1].counters.get(name, 0.0)
    for name in SERVER_METRICS:
        metrics[name] = fmean(each.server.get(name, 0.0) for each in traced)
    metrics["server.protocol.bytes_out_per_op"] = sum(each.bytes_out for each in traced) / ops
    metrics["server.protocol.bytes_in_per_op"] = sum(each.bytes_in for each in traced) / ops
    metrics["wire_bytes_per_op"] = (
        metrics["server.protocol.bytes_out_per_op"] + metrics["server.protocol.bytes_in_per_op"]
    )

    traced_mean_ms = sum(sum(each.latencies) for each in traced) / ops * 1e3
    plain_mean_ms = median(fmean(each.latencies) for each in plain) * 1e3
    attributed = sum(op_ms.values()) / ops
    metrics["trace.mean_latency_ms"] = traced_mean_ms
    metrics["trace.overhead_share"] = (
        median(fmean(each.latencies) for each in traced) * 1e3 / plain_mean_ms - 1.0
    )
    metrics["trace.unattributed_ms"] = traced_mean_ms - attributed
    metrics["trace.unattributed_share"] = (traced_mean_ms - attributed) / traced_mean_ms
    metrics["host.speed_factor"] = (
        fmean(value for each in everything for value in each.kernel_seconds)
        / REFERENCE_KERNEL_SECONDS
    )

    classes = _refined_classes(traced, tracer)
    by_class: Dict[str, List[float]] = {cls: [] for cls in OP_CLASSES}
    for each in traced:
        for op_id, latency in zip(each.op_ids, each.latencies):
            by_class[classes[op_id]].append(latency)
    for cls, values in by_class.items():
        metrics[f"op.{cls}.p50_ms"] = percentile(values, 0.5) * 1e3
    metrics["op.all.p99_ms"] = (
        percentile([value for each in plain for value in each.latencies], 0.99) * 1e3
    )
    return metrics


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def _expected_in_child(workload: Workload, seed: int) -> Dict[str, tuple]:
    """Compute a seed's expectations in a child process, so the reference
    session's memory and caches never touch the measured process."""
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "oracle.py"), workload.name, str(seed)],
        env=child_environment(), stdout=subprocess.PIPE, check=True,
    )
    return {key: tuple(value) for key, value in json.loads(completed.stdout).items()}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    spans_path: Optional[str] = None,
    expected: Optional[Dict[str, tuple]] = None,
) -> Dict:
    """Measure workload *name*; the result carries ``correct``,
    ``attempted``, ``failed`` and every metric by name (no units)."""
    workload = WORKLOADS[name]
    document = graph_document(workload.graph, seed)
    graph_text = graph_json(document)
    client_ops = workload.client_ops(seed, document)
    warm_ops = [warmup_ops(ops, workload.warm_share) for ops in client_ops]
    if expected is None:
        expected = load_expected(workload, seed) or _expected_in_child(workload, seed)
    verifier = Verifier(expected)
    graph_path = None
    if workload.driver == "daemon":
        WORK_DIR.mkdir(exist_ok=True)
        graph_path = WORK_DIR / f"{workload.graph}-{os.getpid()}.json"
        graph_path.write_text(graph_text, encoding="utf-8")

    tracer = Tracer() if trace else None
    passes: List[PassResult] = []
    measured = 0.0
    try:
        while measured < seconds or (trace and len(passes) < 2):
            traced = trace and len(passes) % 2 == 1
            each = run_pass(
                workload, graph_text, graph_path, client_ops, warm_ops, verifier,
                tracer if traced else None, len(passes),
            )
            passes.append(each)
            measured += each.raw_busy_seconds
    finally:
        if graph_path is not None and graph_path.exists():
            graph_path.unlink()

    plain = [each for each in passes if not each.traced]
    if trace:
        metrics = layer_metrics(plain, [each for each in passes if each.traced], tracer)
        if spans_path is not None:
            tracer.write_jsonl(spans_path)
    else:
        metrics = end_to_end_metrics(plain)
    failed = sum(each.failed for each in passes)
    return {
        "correct": failed == 0,
        "attempted": sum(each.ops for each in passes),
        "failed": failed,
        "passes": len(passes),
        "metrics": metrics,
        "problems": verifier.problems[:20],
    }
