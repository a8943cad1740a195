"""The parity table: every way of reaching a world must hash the same.

Each axis reaches the pinned (0.3, 7) world along a different mechanism
and must land on its ``world_digest`` in
``tests/goldens/world_digests.json``.  Each axis also proves through
counters that its mechanism really ran:

* ``reopened-mmap`` — the built world saved to a checkpoint and
  reopened lazily over memory-mapped columns (the column file must
  actually map), then fully materialised, so every ``_rebuild_*``
  decoder runs (a digest alone reads only some of the fields).
* ``rebuilt`` — ``cold_rebuild`` of the built world with no events: the
  rebuild runs the builder's derive half on a fresh engine, so it must
  propagate and score hegemony again.
* ``replay`` — ``repro replay`` in a subprocess: a synthetic event
  stream applied through the live world must digest-equal cold rebuilds
  at three instants (replay == rebuild, end to end through the CLI).

The build itself is pinned by ``tests/test_goldens.py``.  Here it runs
under a spy that shows the one build path stays in this process and
bounds its working set: no ``batch_paths`` call takes more than
``BATCH_ORIGINS`` origins, and hegemony scores more than one partition.
The scenario families are pinned by ``tests/test_scenarios.py``.
"""

from __future__ import annotations

import _posixsubprocess
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import config, obs
from repro.bgp import propagation
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
def built():
    """The pinned world, built with every ``batch_paths`` batch size
    recorded and process creation forbidden; returns (world, counters
    moved, batch sizes)."""
    sizes: list[int] = []
    real = propagation.batch_paths

    def spy(plan, bases, *args):
        sizes.append(len(bases))
        return real(plan, bases, *args)

    def forbidden(*args, **kwargs):
        raise AssertionError("the build started a process")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(propagation, "batch_paths", spy)
        # Every way Python starts a process: fork-started pools,
        # spawn/forkserver pools, and subprocess.
        for owner, name in (
            (os, "fork"),
            (_posixsubprocess, "fork_exec"),
            (subprocess.Popen, "_execute_child"),
        ):
            patch.setattr(owner, name, forbidden)
        world, moved = _counted(lambda: build_world(SCALE, SEED))
    return world, moved, sizes


@pytest.fixture(scope="module")
def store(built, tmp_path_factory):
    store = CheckpointStore(tmp_path_factory.mktemp("parity-store"))
    store.save(built[0])
    return store


def test_build_bounds_batches_and_partitions(built):
    world, moved, sizes = built
    assert world_digest(world) == _golden_digest()
    assert max(sizes) <= propagation.BATCH_ORIGINS, sizes
    assert propagation.BATCH_ORIGINS in sizes, "the bound never cut a batch"
    assert moved["propagation.batches"] == len(sizes)
    assert moved["hegemony.partitions"] > 1


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
    base, _, _ = request.getfixturevalue("built")
    world, moved = _counted(lambda: cold_rebuild(base, []))
    assert moved.get("propagation.batches", 0) > 1, moved
    assert moved.get("hegemony.partitions", 0) > 1, moved
    return world_digest(world)


#: Axis name → a check that reaches the pinned world along that axis,
#: asserts its mechanism ran, and returns the world's digest.
AXES = {
    "reopened-mmap": _reopened_axis,
    "rebuilt": _rebuilt_axis,
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
