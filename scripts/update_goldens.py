#!/usr/bin/env python
"""Regenerate the golden world digests pinned by tests/test_goldens.py.

Run this ONLY when a change is *supposed* to alter world construction or
dataset serialisation (new behaviour, new field, fixed bug).  Commit the
rewritten ``tests/goldens/world_digests.json`` together with the change
and explain the drift in the commit message — an unexplained golden
update defeats the regression suite.

Usage::

    PYTHONPATH=src python scripts/update_goldens.py

For each world point the script prints which per-artifact digests
changed relative to the committed file, e.g.
``scale=0.12 seed=11 world=... changed: ihr, rib``.
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

SCENARIO_GOLDENS_PATH = GOLDENS_PATH.parent / "scenario_digests.json"

#: The scenario-pack pin: every family rendered at the ``small_world``
#: point and digested.  (scale, seed) matches the first DEFAULT_POINTS
#: entry so tests/test_scenarios.py can reuse the session fixture.
SCENARIO_SCALE, SCENARIO_SEED = 0.12, 11

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
#: the already-built world instead of building a third one; the 0.5
#: point matches ``make scale-smoke`` so the sharded-parity gate and the
#: golden suite pin the same world.  The 0.3 point is the world
#: ``make build-smoke`` builds spilled and unspilled: that gate checks
#: the two builds agree, and this pin fixes what they must agree on.
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


def scenario_entry() -> dict:
    """Digest every scenario family's rendered figure at the pin point."""
    import hashlib

    from repro.scenarios import FAMILIES

    world = build_world(scale=SCENARIO_SCALE, seed=SCENARIO_SEED)
    digests = {}
    for name, family in FAMILIES.items():
        text = family.render(family.run(world))
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    return {
        "scale": SCENARIO_SCALE,
        "seed": SCENARIO_SEED,
        "digests": digests,
    }


def _changed(before: dict, after: dict) -> str:
    """Which artifacts' digests moved from ``before`` to ``after``."""
    names = sorted(
        name
        for name in before.keys() | after.keys()
        if before.get(name) != after.get(name)
    )
    return f"changed: {', '.join(names)}" if names else "unchanged"


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    try:
        committed = json.loads(GOLDENS_PATH.read_text())["entries"]
    except (OSError, ValueError, KeyError):
        committed = []
    committed_points = {
        (entry["scale"], entry["seed"]): entry["datasets"]
        for entry in committed
    }
    payload = {
        "comment": (
            "Golden dataset digests; regenerate with "
            "scripts/update_goldens.py and justify drift in the commit."
        ),
        "entries": [golden_entry(scale, seed) for scale, seed in DEFAULT_POINTS],
    }
    GOLDENS_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDENS_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    for entry in payload["entries"]:
        before = committed_points.get((entry["scale"], entry["seed"]), {})
        print(
            f"scale={entry['scale']:g} seed={entry['seed']} "
            f"world={entry['world_digest'][:16]} "
            f"{_changed(before, entry['datasets'])}"
        )
    print(f"wrote {len(payload['entries'])} entries to {GOLDENS_PATH}")
    replay = {
        "comment": (
            "Replayed-instant world digests (event replay through "
            "repro.delta.LiveWorld); regenerate with "
            "scripts/update_goldens.py and justify drift in the commit."
        ),
        "entry": replay_entry(),
    }
    REPLAY_GOLDENS_PATH.write_text(
        json.dumps(replay, indent=1, sort_keys=True) + "\n"
    )
    for point in replay["entry"]["checkpoints"]:
        print(
            f"replay applied={point['applied']} "
            f"world={point['world_digest'][:16]}"
        )
    print(f"wrote replay golden to {REPLAY_GOLDENS_PATH}")
    scenarios = {
        "comment": (
            "Scenario-pack rendered-figure digests (repro.scenarios); "
            "regenerate with scripts/update_goldens.py and justify "
            "drift in the commit."
        ),
        "entry": scenario_entry(),
    }
    SCENARIO_GOLDENS_PATH.write_text(
        json.dumps(scenarios, indent=1, sort_keys=True) + "\n"
    )
    for name, digest in scenarios["entry"]["digests"].items():
        print(f"scenario {name} digest={digest[:16]}")
    print(f"wrote scenario goldens to {SCENARIO_GOLDENS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
