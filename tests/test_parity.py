"""The parity table: every way of reaching a world must hash the same.

Each axis builds or reaches the pinned (0.3, 7) world along a different
mechanism and must land on its ``world_digest`` in
``tests/goldens/world_digests.json``.  Each axis also proves through
counters that its mechanism really ran, so a fallback to the serial
path can never pass as parity:

* ``sharded`` — 2 column shards on 2 workers.  Every sharded stage
  (RIB collection, ROV and IRR validation, transit scoring) counts its
  shards, and no shard set is discarded or lacks a pool.
* ``spilled`` — the same build under a zero build budget.  Each of the
  three column accumulators (collect_rib, ROV, IRR) opens a spill file;
  transit scoring materialises per shard and owns none.
* ``reopened-mmap`` — the sharded world saved to a checkpoint and
  reopened lazily over memory-mapped columns (the column file must
  actually map), then fully materialised, so every ``_rebuild_*``
  decoder runs (a digest alone reads only some of the fields).
* ``rebuilt-sharded`` — ``cold_rebuild`` of the sharded world with no
  events, under the sharded runtime: the rebuild runs the builder's
  derive half, so every sharded stage must count its shards again.
* ``replay`` — ``repro replay`` in a subprocess: a synthetic event
  stream applied through the live world must digest-equal cold rebuilds
  at three instants (replay == rebuild, end to end through the CLI).

The serial build is pinned by ``tests/test_goldens.py``; the scenario
families by ``tests/test_scenarios.py``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import config, obs
from repro.config import RuntimeConfig
from repro.datasets.checkpoint import CheckpointStore, world_digest
from repro.datasets.columnar import LazyWorld
from repro.delta import cold_rebuild
from repro.scenario.build import build_world
from repro.scenario.config import ScenarioConfig
from repro.scenario.world import World

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDENS_PATH = Path(__file__).parent / "goldens" / "world_digests.json"
SCALE, SEED = 0.3, 7

SHARDED = RuntimeConfig(jobs=2, shards=2)
SPILLED = RuntimeConfig(jobs=2, shards=2, build_budget_mb=0)

#: Counters each sharded stage bumps once per shard set it fans out.
SHARD_COUNTERS = (
    "collect.vp_shards",
    "rov.validate_shards",
    "irr.validate_shards",
    "ihr.transit_shards",
)

CHECKPOINT_LINE = re.compile(r"^checkpoint\s+\d+\s+[0-9a-f]{16}\s+ok$")


def _golden_digest() -> str:
    entries = json.loads(GOLDENS_PATH.read_text())["entries"]
    entry = next(e for e in entries if (e["scale"], e["seed"]) == (SCALE, SEED))
    return entry["world_digest"]


def _counted(action):
    """Run ``action``; return its result and the counters it moved."""
    before = obs.counters()
    result = action()
    after = obs.counters()
    moved = {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }
    return result, moved


@pytest.fixture(scope="module")
def sharded():
    return _counted(lambda: build_world(SCALE, SEED, runtime=SHARDED))


@pytest.fixture(scope="module")
def store(sharded, tmp_path_factory):
    store = CheckpointStore(tmp_path_factory.mktemp("parity-store"))
    store.save(sharded[0])
    return store


def _assert_sharded(moved):
    for name in SHARD_COUNTERS:
        assert moved.get(name, 0) > 0, f"{name} never rose: a stage ran unsharded"
    assert "shard.discarded" not in moved
    assert "shard.pool_unavailable" not in moved


def _sharded_axis(request):
    world, moved = request.getfixturevalue("sharded")
    _assert_sharded(moved)
    return world_digest(world)


def _spilled_axis(request):
    world, moved = _counted(lambda: build_world(SCALE, SEED, runtime=SPILLED))
    assert moved.get("build.spill.files") == 3, moved
    assert "shard.discarded" not in moved
    return world_digest(world)


def _reopened_axis(request):
    store = request.getfixturevalue("store")
    with config.use(RuntimeConfig()):
        world, moved = _counted(
            lambda: store.load(ScenarioConfig(), SCALE, SEED).materialize()
        )
    assert moved.get("checkpoint.hit") == 1, moved
    assert isinstance(world, LazyWorld)
    assert moved.get("columns.open.mapped", 0) >= 1, moved
    assert "columns.open.map_failed" not in moved
    assert world.materialized_fields() == {
        field.name for field in dataclasses.fields(World)
    }
    return world_digest(world)


def _rebuilt_axis(request):
    base, _ = request.getfixturevalue("sharded")
    with config.use(SHARDED):
        world, moved = _counted(lambda: cold_rebuild(base, []))
    _assert_sharded(moved)
    return world_digest(world)


#: Axis name → a check that reaches the pinned world along that axis,
#: asserts its mechanism ran, and returns the world's digest.
AXES = {
    "sharded": _sharded_axis,
    "spilled": _spilled_axis,
    "reopened-mmap": _reopened_axis,
    "rebuilt-sharded": _rebuilt_axis,
}


@pytest.mark.parametrize("axis", AXES)
def test_axis_matches_golden(axis, request):
    assert AXES[axis](request) == _golden_digest(), f"{axis} diverged"


def test_axis_replay(tmp_path):
    env = {
        name: value
        for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [
            sys.executable, "-m", "repro",
            "--scale", "0.05", "--seed", "3",
            "replay", "--events", "9", "--checkpoints", "3",
            "--cache-dir", str(tmp_path),
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = [line.strip() for line in result.stdout.splitlines()]
    assert sum(bool(CHECKPOINT_LINE.match(line)) for line in lines) == 3, lines
    assert "replay==rebuild: all equal" in result.stdout
