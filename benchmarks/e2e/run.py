"""The repo's benchmark: six workloads, end to end and layer by layer.

One workload, as the benchmark driver runs it (the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer ones)::

    python3 benchmarks/e2e/run.py --workload rpq_full --seed 1 --seconds 10 --trace 0

Every workload, each in its own fresh process, as a table::

    python3 benchmarks/e2e/run.py [--seed N] [--runs K] [--trace] [--out FILE]

``--verify-oracle`` cross-checks the answer oracle against the naive
evaluators; ``--write-expected`` regenerates ``expected.json``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
BASELINE_PATH = BENCH_DIR / "baseline.json"


def _import_program() -> None:
    """Put the checkout's own ``src`` first on the path; the benchmark
    measures the program it sits beside, never an installed copy."""
    source = REPO_ROOT / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"{source}/repro not found: the benchmark runs from a checkout of the repo")
    sys.path.insert(0, str(source))


def manifest() -> Dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared_metrics(trace: bool) -> List[Dict]:
    return manifest()["per_layer" if trace else "end_to_end"]


def fingerprint() -> Dict:
    """The host and commit a result was measured on."""
    model = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "kernel": platform.release(),
        "python": platform.python_version(),
        "commit": commit,
    }


def _warn_if_host_differs(current: Dict) -> None:
    if not BASELINE_PATH.exists():
        return
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8")).get("fingerprint", {})
    differing = [
        f"{key}: baseline {baseline.get(key)!r}, here {current.get(key)!r}"
        for key in ("nproc", "cpu_model", "kernel", "python")
        if baseline.get(key) != current.get(key)
    ]
    if differing:
        print(
            "warning: this host differs from the committed baseline's ("
            + "; ".join(differing)
            + "); compare runs made on one host only",
            file=sys.stderr,
        )


def result_line(result: Dict, trace: bool) -> str:
    """The driver-facing JSON: exactly the declared metrics, with units."""
    metrics = {
        entry["name"]: {"value": result["metrics"][entry["name"]], "unit": entry["unit"]}
        for entry in declared_metrics(trace)
    }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def _pin_hash_seed(seed: int) -> None:
    """Re-execute with ``PYTHONHASHSEED`` set from the workload seed.

    String hashing decides set and dict iteration order inside the
    program (and in the daemon child, which inherits the variable), so a
    random hash seed makes the same inputs do slightly different work in
    every process.  Pinning it to the seed makes a run reproducible while
    different seeds still sample different hash orders.
    """
    wanted = str(seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        os.environ["PYTHONHASHSEED"] = wanted
        os.execv(sys.executable, [sys.executable, *sys.argv])


def run_one(arguments: argparse.Namespace) -> int:
    """Measure one workload in this process; print its result line last."""
    _import_program()
    from harness import run_workload

    result = run_workload(
        arguments.workload, arguments.seed, arguments.seconds, bool(arguments.trace),
        spans_path=arguments.spans,
    )
    for problem in result["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    print(
        f"{arguments.workload}: seed {arguments.seed}, {result['passes']} passes, "
        f"{result['attempted']} ops, {result['failed']} failed",
        file=sys.stderr,
    )
    print(result_line(result, bool(arguments.trace)))
    return 0


def _child(workload: str, seed: int, seconds: int, trace: bool, spans: Optional[str]) -> Dict:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if spans is not None:
        command += ["--spans", spans]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def sweep(arguments: argparse.Namespace) -> int:
    """Every workload, each run in its own fresh subprocess."""
    from workloads import WORKLOADS

    current = fingerprint()
    _warn_if_host_differs(current)
    names = [arguments.workload] if arguments.workload else list(WORKLOADS)
    seeds = list(range(arguments.seed, arguments.seed + arguments.runs))
    results: Dict[str, Dict[str, List[Dict]]] = {}
    failed = 0
    for name in names:
        results[name] = {"plain": [], "traced": []}
        for seed in seeds:
            plain = _child(name, seed, arguments.seconds, False, None)
            results[name]["plain"].append({"seed": seed, **plain})
            failed += plain["failed"]
            if arguments.trace and seed == seeds[0]:
                spans = None
                if arguments.out:
                    spans = str(Path(arguments.out).with_suffix(f".{name}.spans.jsonl"))
                traced = _child(name, seed, arguments.seconds, True, spans)
                results[name]["traced"].append({"seed": seed, **traced})
                failed += traced["failed"]
        for mode in ("plain", "traced"):
            for run in results[name][mode]:
                print(f"\n{name} [{mode}, seed {run['seed']}] "
                      f"{run['attempted']} ops, {run['failed']} failed")
                for metric, entry in run["metrics"].items():
                    print(f"  {metric:44s} {entry['value']:14.4f} {entry['unit']}")
    if arguments.out:
        payload = {"fingerprint": current, "seconds": arguments.seconds, "results": results}
        Path(arguments.out).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="also (sweep) or instead (--workload with a value) run traced")
    parser.add_argument("--runs", type=int, default=None, metavar="K",
                        help="sweep: K runs per workload, seeds SEED..SEED+K-1")
    parser.add_argument("--out", help="sweep: write every result and the host fingerprint here")
    parser.add_argument("--spans", help="traced --workload run: write the spans here as JSONL")
    parser.add_argument("--verify-oracle", action="store_true",
                        help="check the reference session against the naive evaluators")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected.json at the oracle seed")
    arguments = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))
    if arguments.seconds is None:
        arguments.seconds = manifest()["run_seconds"]

    if arguments.verify_oracle or arguments.write_expected:
        _import_program()
        import oracle

        if arguments.write_expected:
            print(f"wrote {oracle.write_expected()} expectations to {oracle.EXPECTED_PATH}")
            return 0
        problems = oracle.verify_oracle()
        for problem in problems:
            print(problem)
        print("oracle verified against the naive evaluators" if not problems else "ORACLE MISMATCH")
        return 1 if problems else 0
    # The driver's form names one workload and gives --trace a value; a
    # sweep is everything else (no workload, or several runs of one).
    if arguments.workload and arguments.runs is None and arguments.out is None:
        if argv is None:  # the real command line, not a test calling main()
            _pin_hash_seed(arguments.seed)
        return run_one(arguments)
    arguments.runs = arguments.runs or 1
    return sweep(arguments)


if __name__ == "__main__":
    sys.exit(main())
