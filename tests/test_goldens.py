"""Golden-digest regression suite.

Pins :func:`~repro.datasets.checkpoint.dataset_digests` at the
(scale, seed) points ``scripts/update_goldens.py`` lists.  Any change to world construction or dataset
serialisation — intended or not — shows up here as a named per-dataset
drift, not a silent behaviour change.  Regenerate the goldens with
``PYTHONPATH=src python scripts/update_goldens.py`` only when the drift
is intended, and justify it in the commit message.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.datasets.checkpoint import dataset_digests, world_digest
from repro.scenario.build import build_world

GOLDENS_PATH = Path(__file__).parent / "goldens" / "world_digests.json"


def _entries() -> list[dict]:
    return json.loads(GOLDENS_PATH.read_text())["entries"]


def _drift_report(expected: dict[str, str], actual: dict[str, str]) -> str:
    """A readable per-dataset diff for the assertion message."""
    lines = []
    for name in sorted(set(expected) | set(actual)):
        want = expected.get(name, "<absent>")
        got = actual.get(name, "<absent>")
        if want != got:
            lines.append(f"  {name}: golden {want[:16]}… != built {got[:16]}…")
    return "\n".join(lines)


@pytest.mark.parametrize(
    "entry",
    _entries(),
    ids=lambda entry: f"scale{entry['scale']:g}-seed{entry['seed']}",
)
def test_world_digests_match_goldens(entry, small_world):
    scale, seed = entry["scale"], entry["seed"]
    if (scale, seed) == (small_world.scale, small_world.seed):
        world = small_world
    else:
        world = build_world(scale=scale, seed=seed)
    actual = dataset_digests(world)
    drift = _drift_report(entry["datasets"], actual)
    assert not drift, (
        f"dataset digests drifted at scale={scale:g} seed={seed}:\n{drift}\n"
        "If this change is intended, regenerate with "
        "scripts/update_goldens.py and explain why in the commit."
    )
    assert world_digest(world) == entry["world_digest"]


def test_goldens_file_shape():
    entries = _entries()
    assert len(entries) >= 2, "golden suite needs at least two points"
    for entry in entries:
        assert set(entry) == {"scale", "seed", "world_digest", "datasets"}
        assert len(entry["world_digest"]) == 64
        assert entry["datasets"], "entry pins at least one dataset digest"
        for digest in entry["datasets"].values():
            assert len(digest) == 64
