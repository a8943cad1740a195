#!/usr/bin/env python
"""Regenerate the goldens under tests/goldens/.

They are the world digests (``world_digests.json``, pinned by
tests/test_goldens.py), the replayed-instant digests
(``replay_digests.json``, tests/test_delta.py) and the rendered-text
digests of every registry entry (``render_digests.json``,
tests/test_scenarios.py).  Run this ONLY when a change is *supposed* to
alter world construction, dataset serialisation or a rendered artefact
(new behaviour, new field, fixed bug).  Commit the rewritten files
together with the change and explain the drift in the commit message —
an unexplained golden update defeats the regression suite.

Usage::

    PYTHONPATH=src python scripts/update_goldens.py
    PYTHONPATH=src python scripts/update_goldens.py --check

For each world point the script prints which per-artifact digests
changed relative to the committed file, e.g.
``scale=0.12 seed=11 world=... changed: ihr, rib``, then, each on its
own line, the entries the new digests drop (``removed: asrank``) or
add (``added: ...``); likewise for the replay checkpoints and the
renders.  ``--check`` computes and prints the same, writes nothing, and
exits 1 if any golden file would change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datasets.checkpoint import dataset_digests, world_digest  # noqa: E402
from repro.scenario.build import build_world  # noqa: E402

GOLDENS_PATH = (
    Path(__file__).resolve().parent.parent
    / "tests"
    / "goldens"
    / "world_digests.json"
)

REPLAY_GOLDENS_PATH = GOLDENS_PATH.parent / "replay_digests.json"

RENDER_GOLDENS_PATH = GOLDENS_PATH.parent / "render_digests.json"

#: The render pin: every registry entry (the paper artefacts and the
#: scenario families) rendered at the ``small_world`` point and
#: digested.  (scale, seed) matches the first DEFAULT_POINTS entry so
#: tests/test_scenarios.py can reuse the session fixture.
RENDER_SCALE, RENDER_SEED = 0.12, 11

#: The replayed-instant pin: synthetic events applied to the
#: ``small_world`` point through the live world, digested mid-stream and
#: at the end.  (scale, seed) must match the first DEFAULT_POINTS entry
#: so tests/test_delta.py can reuse the session fixture.
REPLAY_SCALE, REPLAY_SEED = 0.12, 11
REPLAY_EVENT_SEED = 5
REPLAY_EVENTS = 6
REPLAY_CHECKPOINTS = (3, 6)

#: (scale, seed) points pinned by the suite.  The first matches the
#: session-scoped ``small_world`` test fixture so the golden check reuses
#: the already-built world instead of building a third one.  The 0.3
#: point is the world ``tests/test_parity.py`` reopens from a checkpoint
#: and cold-rebuilds: every one of its axes must land on this pin, and it
#: is large enough to run several propagation batches and hegemony
#: partitions.  The 0.5 point is the largest pinned world.
DEFAULT_POINTS: list[tuple[float, int]] = [
    (0.12, 11), (0.05, 3), (0.5, 7), (0.3, 7),
]


def golden_entry(scale: float, seed: int) -> dict:
    world = build_world(scale=scale, seed=seed)
    return {
        "scale": scale,
        "seed": seed,
        "world_digest": world_digest(world),
        "datasets": dataset_digests(world),
    }


def replay_entry() -> dict:
    """Digest the live world at fixed instants along a synthetic stream."""
    from repro.delta import LiveWorld, synthesize_events

    world = build_world(scale=REPLAY_SCALE, seed=REPLAY_SEED)
    events = synthesize_events(
        world, n=REPLAY_EVENTS, seed=REPLAY_EVENT_SEED
    )
    live = LiveWorld(world)
    checkpoints = []
    for applied, event in enumerate(events, start=1):
        live.apply(event)
        if applied in REPLAY_CHECKPOINTS:
            checkpoints.append(
                {
                    "applied": applied,
                    "world_digest": world_digest(live.world()),
                }
            )
    return {
        "scale": REPLAY_SCALE,
        "seed": REPLAY_SEED,
        "event_seed": REPLAY_EVENT_SEED,
        "events": REPLAY_EVENTS,
        "checkpoints": checkpoints,
    }


def render_entry() -> dict:
    """Digest every registry entry's rendered text at the pin point."""
    import hashlib

    from repro.experiments.registry import REGISTRY

    world = build_world(scale=RENDER_SCALE, seed=RENDER_SEED)
    digests = {}
    for name, spec in REGISTRY.items():
        text = spec.render(spec.run(world))
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    return {
        "scale": RENDER_SCALE,
        "seed": RENDER_SEED,
        "digests": digests,
    }


def _changed(before: dict, after: dict) -> str:
    """Which digests moved from ``before`` to ``after``: one line each
    for the names whose value changed, the names only ``before`` has
    and the names only ``after`` has, or ``unchanged``."""
    groups = {
        "changed": {
            name
            for name in before.keys() & after.keys()
            if before[name] != after[name]
        },
        "removed": before.keys() - after.keys(),
        "added": after.keys() - before.keys(),
    }
    lines = [
        f"{label}: {', '.join(sorted(names))}"
        for label, names in groups.items()
        if names
    ]
    return "\n".join(lines) or "unchanged"


def _committed(path: Path, *keys: str):
    """The committed golden at ``path`` indexed by ``keys``, or None."""
    try:
        value = json.loads(path.read_text())
        for key in keys:
            value = value[key]
    except (OSError, ValueError, KeyError):
        return None
    return value


def _store(path: Path, payload: dict, check: bool) -> bool:
    """Write ``payload`` to ``path`` unless ``check``; True if that
    changes the file."""
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    try:
        drifted = path.read_text() != text
    except OSError:
        drifted = True
    if not check:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return drifted


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="write nothing; exit 1 if any golden file would change",
    )
    check = parser.parse_args(argv).check
    committed_points = {
        (entry["scale"], entry["seed"]): entry["datasets"]
        for entry in _committed(GOLDENS_PATH, "entries") or []
    }
    payload = {
        "comment": (
            "Golden dataset digests; regenerate with "
            "scripts/update_goldens.py and justify drift in the commit."
        ),
        "entries": [golden_entry(scale, seed) for scale, seed in DEFAULT_POINTS],
    }
    drifted = _store(GOLDENS_PATH, payload, check)
    for entry in payload["entries"]:
        before = committed_points.get((entry["scale"], entry["seed"]), {})
        print(
            f"scale={entry['scale']:g} seed={entry['seed']} "
            f"world={entry['world_digest'][:16]} "
            f"{_changed(before, entry['datasets'])}"
        )
    if not check:
        print(f"wrote {len(payload['entries'])} entries to {GOLDENS_PATH}")
    committed_replay = {
        str(point["applied"]): point["world_digest"]
        for point in _committed(REPLAY_GOLDENS_PATH, "entry", "checkpoints")
        or []
    }
    replay = {
        "comment": (
            "Replayed-instant world digests (event replay through "
            "repro.delta.LiveWorld); regenerate with "
            "scripts/update_goldens.py and justify drift in the commit."
        ),
        "entry": replay_entry(),
    }
    drifted |= _store(REPLAY_GOLDENS_PATH, replay, check)
    replayed = {
        str(point["applied"]): point["world_digest"]
        for point in replay["entry"]["checkpoints"]
    }
    for applied, digest in replayed.items():
        print(f"replay applied={applied} world={digest[:16]}")
    print(f"replay {_changed(committed_replay, replayed)}")
    if not check:
        print(f"wrote replay golden to {REPLAY_GOLDENS_PATH}")
    committed_renders = (
        _committed(RENDER_GOLDENS_PATH, "entry", "digests") or {}
    )
    renders = {
        "comment": (
            "Rendered-text digests of every registry entry (the paper "
            "artefacts and the scenario families); regenerate with "
            "scripts/update_goldens.py and justify drift in the commit."
        ),
        "entry": render_entry(),
    }
    drifted |= _store(RENDER_GOLDENS_PATH, renders, check)
    digests = renders["entry"]["digests"]
    print(f"renders {_changed(committed_renders, digests)}")
    if not check:
        print(f"wrote {len(digests)} render digests to {RENDER_GOLDENS_PATH}")
    elif drifted:
        print("drift: the golden files above would change")
    return 1 if check and drifted else 0


if __name__ == "__main__":
    raise SystemExit(main())
