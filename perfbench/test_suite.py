"""Tests of the benchmark suite itself, at tiny parameters.

Each workload function is called directly at scale 0.05 (12 replay
events, 200 hits per serve round), untraced and traced; the fault cases
check that a broken checkpoint and a refused request are counted as
failed ops instead of crashing the suite.  Run with::

    PYTHONPATH=src python -m pytest perfbench/test_suite.py -q
"""

from __future__ import annotations

import asyncio
import json
import shutil
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import run as suite
import workloads
from layers import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "cold_reproduce": {"scale": 0.05},
    "warm_reproduce": {"scale": 0.05},
    "replay": {"scale": 0.05, "events": 12},
    "serve": {"scale": 0.05, "hits": 200},
}


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(suite.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(suite.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(suite.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(TINY))
def test_workload_emits_every_metric(workload, trace, capsys):
    run = suite.run_workload(workload, seed=3, seconds=0, trace=trace, **TINY[workload])
    result = suite.report(run)
    lines = capsys.readouterr().out.splitlines()

    assert run.failed == 0, run.problems
    assert result["correct"] and result["attempted"] > 0
    assert f"{workload} fail_ratio 0.0 ratio n={run.attempted} failed=0" in lines
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    # Every metric is measured on every workload, never a placeholder 0.
    assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]
    for name, unit in expected.items():
        prefix = f"{workload} {name} "
        assert any(line.startswith(prefix) and f" {unit} n=" in line for line in lines)


def test_build_stages_cover_build_world():
    run = suite.run_workload("cold_reproduce", seed=3, seconds=0, trace=True, scale=0.05)
    coverage = suite.per_layer(run)["build.stage_coverage"][0]
    assert coverage > 0.9


def test_truncated_checkpoint_member_counts_a_failed_op(tmp_path):
    run = workloads.Run("warm_reproduce", 3, 0, False, tmp_path)
    store = tmp_path / "store"
    assert workloads.prepare_store(run, store, 0.05, 3, False, "prepare") is not None
    assert run.failed == 0
    member = next(store.glob("*/arrays.npz"))
    member.write_bytes(member.read_bytes()[: member.stat().st_size // 2])

    workloads.warm_round(run, store, 0.05, 3, 0, False)

    assert run.failed == 1
    assert "checkpoint load" in run.problems[-1]
    assert run.rounds == []


async def _answer_503(reader, writer):
    await reader.readuntil(b"\r\n\r\n")
    writer.write(b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n")
    await writer.drain()
    writer.close()


def test_refused_requests_count_failed_ops(tmp_path):
    async def scenario(run):
        server = await asyncio.start_server(_answer_503, "127.0.0.1", 0)
        shedding = workloads.Client(run, server.sockets[0].getsockname()[1])
        try:
            assert await shedding.get("/experiments/fig4", 5) == 503
        finally:
            server.close()
            await server.wait_closed()
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            closed_port = sock.getsockname()[1]
        assert await workloads.Client(run, closed_port).get("/healthz", 5) is None

    run = workloads.Run("serve", 3, 0, False, tmp_path)
    asyncio.run(scenario(run))
    assert (run.attempted, run.failed) == (2, 2)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_reproduce",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
