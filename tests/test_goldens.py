"""Golden-digest regression suite.

Pins :func:`~repro.datasets.checkpoint.dataset_digests` at the
(scale, seed) points ``scripts/update_goldens.py`` lists.  The RIB,
IHR, IRR and VRP entries hash stored columns, and the as2org,
relationships and participants entries their bundle text, so any change
to world construction or to the stored form — intended or not — shows
up here as a named per-dataset drift, not a silent behaviour change.
The exported bundle's files, prefix2as and AS rank among them, are
pinned by ``tests/test_datasets.py``.  Regenerate the goldens with
``PYTHONPATH=src python scripts/update_goldens.py`` only when the drift
is intended, and justify it in the commit message.
"""

from __future__ import annotations

import importlib.util
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


def test_update_goldens_check_reports_drift_and_writes_nothing(
    tmp_path, monkeypatch, capsys
):
    """``update_goldens.py --check`` exits 0 when every computed pin
    equals the committed file and 1 when one differs, printing the same
    per-artifact lines, and leaves the golden files as they were.  The
    computed pins are stubbed: the goldens tests above build them."""
    script_path = Path(__file__).parent.parent / "scripts" / "update_goldens.py"
    spec = importlib.util.spec_from_file_location("update_goldens", script_path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for name in ("GOLDENS_PATH", "REPLAY_GOLDENS_PATH", "RENDER_GOLDENS_PATH"):
        committed = getattr(script, name)
        copy = tmp_path / committed.name
        copy.write_text(committed.read_text())
        monkeypatch.setattr(script, name, copy)
    points = {
        (entry["scale"], entry["seed"]): entry
        for entry in json.loads(script.GOLDENS_PATH.read_text())["entries"]
    }
    replay = json.loads(script.REPLAY_GOLDENS_PATH.read_text())["entry"]
    renders = json.loads(script.RENDER_GOLDENS_PATH.read_text())["entry"]
    monkeypatch.setattr(script, "golden_entry", lambda *point: points[point])
    monkeypatch.setattr(script, "replay_entry", lambda: replay)
    monkeypatch.setattr(script, "render_entry", lambda: renders)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

    assert script.main(["--check"]) == 0
    out = capsys.readouterr().out
    assert "renders unchanged" in out and "wrote" not in out

    drifted = {**renders, "digests": {**renders["digests"], "fig2": "0" * 64}}
    monkeypatch.setattr(script, "render_entry", lambda: drifted)
    assert script.main(["--check"]) == 1
    assert "renders changed: fig2" in capsys.readouterr().out
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
