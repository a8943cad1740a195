"""Benchmark suite: cold/warm reproduce, replay and serve workloads.

One command measures the four ways this repository runs its pipeline —
a cold build, a warm checkpoint reopen, an event-by-event live world and
the HTTP service — and checks their outputs against each other::

    python3 perfbench/run.py --workload cold_reproduce --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 7                      # all four workloads
    python3 perfbench/run.py --seed 7 --trace 1 --out result.json

For each metric it prints ``workload metric value unit n=<samples>``,
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
untraced, the per-layer metrics with ``--trace 1``.  A traced run also
writes every span it recorded to ``.perfbench/trace_<workload>.json``.
The exit code is 0 only when every op and output check passed.

Runs from the repository root and touches nothing outside it: scratch
stores live under ``.perfbench/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

#: Every end-to-end metric, measured untraced, with its unit.
END_TO_END = (
    ("setup_s", "s"),
    ("round_s", "s"),
    ("op_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

WORKLOAD_NAMES = ("cold_reproduce", "warm_reproduce", "replay", "serve")

PROVENANCE = "# provenance "


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile of ``samples``."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, max(0, round(p / 100 * (len(ordered) - 1))))]


def summary(samples: list[float]) -> tuple[float, int]:
    return (statistics.median(samples) if samples else 0.0), len(samples)


def end_to_end(run) -> dict[str, tuple[float, str, int]]:
    """The bounded metrics; every time in them is adjusted for host speed."""
    from workloads import typical_op, typical_round

    rss, n_rss = summary(run.rss)
    return {
        "setup_s": (typical_round(run.setups), "s", len(run.setups)),
        "round_s": (typical_round(run.rounds), "s", len(run.rounds)),
        "op_ms": (typical_op(run) * 1000, "ms", len(run.ops)),
        "peak_rss_mb": (rss, "MB", n_rss),
    }


def per_layer(run) -> dict[str, tuple[float, str, int]]:
    from layers import PER_LAYER, layer_samples
    from workloads import typical_round

    samples = layer_samples(run.processes)
    samples["spawn_s"] = run.spawns
    samples["checkpoint.entry_mb"] = run.entry_mb
    if run.rounds and run.traced_rounds:
        samples["trace.overhead_ratio"] = [
            typical_round(run.traced_rounds) / typical_round(run.rounds)
        ]
    metrics = {}
    for name, unit in PER_LAYER:
        value, n = summary(samples.get(name, []))
        metrics[name] = (value, unit, n)
    return metrics


def git_rev() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(seed: int, params: dict[str, dict]) -> dict:
    """What two result files must share to measure the same program path."""
    from dataclasses import asdict
    from importlib.metadata import version

    from child import RUNTIME

    return {
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "runtime": asdict(RUNTIME),
        "seed": seed,
        "workloads": params,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, **params) -> "Run":
    """Run one workload in this process, in a scratch directory of its own."""
    from workloads import WORKLOADS, Run

    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(name, seed, seconds, trace, work)
    try:
        WORKLOADS[name](run, **params)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return run


def report(run) -> dict:
    """Print the metric lines of ``run``; return its result object."""
    from layers import span_extras

    metrics = per_layer(run) if run.trace else end_to_end(run)
    for name, (value, unit, n) in metrics.items():
        print(f"{run.workload} {name} {value!r} {unit} n={n}")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"{run.workload} fail_ratio {ratio!r} ratio n={run.attempted} failed={run.failed}")
    if run.ops and not run.trace:
        # The tail is printed, not bounded: bursts of contention on a
        # shared host move it by more than any usable bound.
        p95 = percentile([s * 1000 for s in run.ops], 95)
        print(f"{run.workload} op_p95_ms {p95!r} ms n={len(run.ops)}")
    extras = dict(run.extras)
    extras["host.probe_ms"] = ([p * 1000 for p in run.prober.samples], "ms")
    if run.trace:
        extras.update(span_extras(run.processes))
    for name, (samples, unit) in sorted(extras.items()):
        value, n = summary(samples)
        print(f"{run.workload} {name} {value!r} {unit} n={n}")
    for problem in run.problems[:20]:
        print(f"{run.workload} FAILED {problem}", file=sys.stderr)
    return {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed if run.attempted else 1,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()
        },
    }


def write_trace(run, meta: dict) -> Path:
    """Every traced span as a flat record: name, start, end, parent, round, self time."""
    from layers import self_time, walk

    records = []
    for process in run.processes:
        parents = {}
        for root in process["spans"]:
            for node in walk(root):
                index = len(records)
                for child in node["children"]:
                    parents[id(child)] = index
                records.append({
                    "process": process["label"],
                    "round": process["round"],
                    "name": node["name"],
                    "start": node["start"],
                    "end": node["end"],
                    "self_s": self_time(node),
                    "parent": parents.get(id(node)),
                    "attrs": node.get("attrs", {}),
                })
    path = WORK / f"trace_{run.workload}.json"
    path.write_text(json.dumps({"provenance": meta, "spans": records}))
    return path


def single(args) -> int:
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    meta = provenance(args.seed, {args.workload: run.params})
    print(f"{PROVENANCE}{json.dumps(meta, sort_keys=True)}")
    if run.trace:
        print(f"# trace written to {write_trace(run, meta)}")
    result = report(run)
    if args.out:
        args.out.write_text(json.dumps({"provenance": meta, "result": result}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def suite(args) -> int:
    """Every workload, each in its own subprocess, serially."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        meta = [json.loads(line[len(PROVENANCE):]) for line in lines if line.startswith(PROVENANCE)]
        results[name] = {"provenance": meta[0] if meta else None, "result": result}
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    if args.out:
        args.out.write_text(json.dumps(results, indent=1))
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="one workload (default: all four, each in a subprocess)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measure rounds for this long, after the minimum of three")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path, default=None, help="also write the result here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    return single(args) if args.workload else suite(args)


if __name__ == "__main__":
    raise SystemExit(main())
