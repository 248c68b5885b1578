"""Compare two ``run.py --out`` result files: the A/A and A/B comparator.

    python3 benchmarks/e2e/compare.py A.json B.json

Per workload x end-to-end metric it prints both medians, how much worse
B is than A (as a share of A's median, signed by the metric's
direction), the run-to-run spread of each side (interquartile range /
median), the bound from ``BENCHMARK.json`` and a verdict:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — a side's spread is wider than the bound, so the data
  cannot show the metric unchanged;
* ``within``     — otherwise.

Count-type per-layer metrics of the local workloads (hit rates, build
and patch counts, route shares, repairs) come from fixed operation lists
and must be identical between the files' traced runs of the same seed;
``wire_bytes_per_op`` may differ by 0.5 % (responses carry an elapsed-time
float).  Exits non-zero on any regression or count mismatch.
"""

from __future__ import annotations

import fnmatch
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

MANIFEST = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

EXACT_PATTERNS = (
    "*_hit_rate", "*.builds", "*.patches", "planner.router.share_*", "api.session.repairs",
    "api.session.recomputes", "api.session.plans_retained", "api.session.point_evictions",
    "deltas.repair.success_rate", "planner.execute.replans", "engine.partition.calls",
)
#: Workloads whose clients interleave freely, so their counters do not repeat.
CONCURRENT_WORKLOADS = ("daemon_mixed",)
WIRE_TOLERANCE = 0.005


def _values(runs: List[Dict], metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs]


def spread(values: List[float]) -> Optional[float]:
    """Interquartile range as a share of the median (None for one value)."""
    if len(values) < 2:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def compare(a: Dict, b: Dict, manifest: Dict) -> int:
    problems = 0
    print(f"{'workload':15s} {'metric':18s} {'A median':>12s} {'B median':>12s} "
          f"{'worse by':>9s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict")
    for workload in a["results"]:
        if workload not in b["results"]:
            print(f"{workload}: missing from B")
            problems += 1
            continue
        runs_a, runs_b = a["results"][workload]["plain"], b["results"][workload]["plain"]
        for entry in manifest["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            values_a, values_b = _values(runs_a, name), _values(runs_b, name)
            median_a, median_b = statistics.median(values_a), statistics.median(values_b)
            worse = (median_b - median_a) / median_a
            if entry["better"] == "higher":
                worse = -worse
            spreads = [spread(values_a), spread(values_b)]
            if worse > bound:
                verdict = "regressed"
                problems += 1
            elif any(s is not None and s > bound for s in spreads):
                verdict = "unresolved"
            else:
                verdict = "within"
            shown = ["   n/a" if s is None else f"{s:9.4f}" for s in spreads]
            print(f"{workload:15s} {name:18s} {median_a:12.4f} {median_b:12.4f} "
                  f"{worse:+9.4f} {shown[0]:>9s} {shown[1]:>9s} {bound:6.2f}  {verdict}")

        traced_b = {run["seed"]: run for run in b["results"][workload]["traced"]}
        for run_a in a["results"][workload]["traced"]:
            run_b = traced_b.get(run_a["seed"])
            if run_b is None:
                continue
            for name, entry in run_a["metrics"].items():
                left, right = entry["value"], run_b["metrics"][name]["value"]
                if name == "wire_bytes_per_op":
                    mismatch = abs(left - right) > WIRE_TOLERANCE * max(left, right)
                elif workload in CONCURRENT_WORKLOADS:
                    continue
                else:
                    mismatch = left != right and any(
                        fnmatch.fnmatch(name, pattern) for pattern in EXACT_PATTERNS
                    )
                if mismatch:
                    print(f"{workload:15s} {name}: count differs, A {left!r} vs B {right!r}")
                    problems += 1
    return problems


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    if a.get("fingerprint", {}).get("cpu_model") != b.get("fingerprint", {}).get("cpu_model") or (
        a.get("fingerprint", {}).get("nproc") != b.get("fingerprint", {}).get("nproc")
    ):
        print("warning: the two files were measured on different hosts", file=sys.stderr)
    problems = compare(a, b, manifest)
    print("no regression" if not problems else f"{problems} regression(s) / count mismatch(es)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
