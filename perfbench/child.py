"""One benchmark step, run in a fresh interpreter.

``run.py`` starts this script once per round, per store preparation and
per serve check.  Every round therefore pays its own interpreter start
and import, starts from an empty heap and cold module-level caches, and
has a high-water RSS of its own (``ru_maxrss`` never goes down within a
process).  A live world also shares its base world's propagation
engine, so a second replay round in the same process would start warm.

Usage (internal)::

    python perfbench/child.py '<task JSON>'

The task names a step (``prepare``, ``cold_round``, ``warm_round``,
``replay_round`` or ``serve_check``) and its inputs.  The last line of
standard output is one JSON object: the step's timings, its op count and
failures, the outputs the parent compares, and, when the task is traced,
the span forest recorded by :mod:`repro.obs`.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path

_T_IMPORT = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hostspeed import Prober  # noqa: E402
from repro import config, obs  # noqa: E402
from repro.config import RuntimeConfig  # noqa: E402
from repro.datasets.checkpoint import CheckpointStore, world_digest  # noqa: E402
from repro.delta import LiveWorld, cold_rebuild, synthesize_events  # noqa: E402
from repro.experiments.registry import REGISTRY  # noqa: E402
from repro.obs.trace import high_water_rss_mb  # noqa: E402
from repro.scenario.build import build_world  # noqa: E402
from repro.scenario.config import ScenarioConfig  # noqa: E402
from repro.scenarios import FAMILIES  # noqa: E402
from repro.sweep.spec import Job  # noqa: E402
from repro.sweep.worker import run_job  # noqa: E402

#: Every build knob pinned and passed explicitly: serial, one shard,
#: numpy kernels, no spill budget, no ambient store.
RUNTIME = RuntimeConfig(jobs=1, shards=1, kernels="numpy", build_budget_mb=None)

#: The twelve paper artefacts in registry order.  The scenario families
#: are left out: roastorm alone would make the delta layer dominate both
#: reproduce workloads.
ARTEFACTS = tuple(name for name in REGISTRY if name not in FAMILIES)

#: Twenty events in the proportions ``synthesize_events`` draws them.
#: Every replay stream is made of shuffled copies of this block, so all
#: streams share one mix of kinds (freely drawn 40-event streams over one
#: world at scale 0.3 peaked at either about 206 or about 245 MB, and
#: apply latency follows the mix).  The order of kinds follows the run's
#: seed, so every round applies the same kind at each position; the
#: events themselves differ between the run's worlds.
EVENT_BLOCK = (
    ("RoaIssued",) * 4 + ("RoaExpired",) * 4 + ("RouteObjectAdded",) * 4
    + ("RouteObjectRemoved",) * 2 + ("MemberJoined",) * 2 + ("MemberLeft",)
    + ("PolicyFlipped",) * 2 + ("LinkAdded",)
)


def text_sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Step:
    """Timings, op outcomes and outputs of this process's step."""

    def __init__(self, task: dict):
        self.task = task
        self.trace = bool(task.get("trace"))
        self.prober = Prober()
        ready_s = time.time() - task["t0"]
        #: Interpreter start and imports, adjusted for host speed as a
        #: set-up part (``ready_s`` itself stays as measured).
        self.ready = self.prober.adjust(ready_s, self.prober.start())
        self.out: dict = {
            "ready_s": ready_s,
            "attempted": 0,
            "failed": 0,
            "problems": [],
            "calls_s": [],
            "ops_s": [],
            "probes_s": self.prober.samples,
        }

    @contextmanager
    def call(self, name: str, *samples: list):
        """Time one public call into each of ``samples``.

        A sampled call's time is adjusted for the host's speed, probed
        just before and just after the call.  Traced steps also open a
        ``suite.<name>`` span around the call.
        """
        before = self.prober.start() if samples else 0.0
        start = time.perf_counter()
        try:
            with obs.span(f"suite.{name}") if self.trace else nullcontext():
                yield
        finally:
            elapsed = time.perf_counter() - start
            if samples:
                elapsed = self.prober.adjust(elapsed, before)
            for sample in samples:
                sample.append(elapsed)

    def op(self, ok: bool, problem: str = "") -> bool:
        self.out["attempted"] += 1
        if not ok:
            self.out["failed"] += 1
            self.out["problems"].append(problem)
        return ok

    def outcomes(self, world, *samples: list) -> dict[str, str]:
        """Run and render the twelve artefacts: ``{name: sha256 or error}``."""
        results = {}
        with self.call("artefacts"):
            for name in ARTEFACTS:
                spec = REGISTRY[name]
                try:
                    with self.call(f"experiment.{name}", *samples):
                        text = spec.render(spec.run(world))
                except Exception as error:  # noqa: BLE001 - reported as an outcome
                    results[name] = f"error: {error!r}"
                else:
                    results[name] = text_sha(text)
        return results

    def artefacts(self, world, *samples: list) -> dict[str, str]:
        """:meth:`outcomes`, counting each artefact as an op that must not raise."""
        results = self.outcomes(world, *samples)
        for name, result in results.items():
            self.op(not result.startswith("error"), f"{name}: {result}")
        return results

    def load(self, store: CheckpointStore, scale: float, seed: int, *samples: list):
        """Open the stored world lazily; a missing or corrupt entry fails."""
        with self.call("load", *samples):
            world = store.load(ScenarioConfig(), scale, seed, mode="columnar")
        self.op(world is not None, "checkpoint load returned no world")
        return world

    def digest(self, world, *samples: list) -> str:
        with self.call("world_digest", *samples):
            return world_digest(world)


def prepare(step: Step) -> None:
    """Build the world and save it into an empty store.

    The set-up of ``warm_reproduce`` and ``replay``.  With ``reference``
    it also records the world digest and artefact hashes the warm rounds
    are checked against (after the set-up timer has stopped).
    """
    task = step.task
    parts = [step.ready]
    with step.call("build_world", parts):
        world = build_world(task["scale"], task["seed"], runtime=RUNTIME)
    with step.call("save", parts):
        entry = CheckpointStore(task["store"]).save(world)
    step.out["setup_parts_s"] = parts
    step.out["entry_mb"] = entry_mb(entry)
    if task.get("reference"):
        step.out["digest"] = step.digest(world)
        step.out["hashes"] = step.artefacts(world)


def cold_round(step: Step) -> None:
    """``build_world`` → ``save`` into an empty store → twelve artefacts."""
    task = step.task
    calls, ops = step.out["calls_s"], step.out["ops_s"]
    store = CheckpointStore(task["store"])
    start = time.perf_counter()
    with step.call("build_world", calls):
        world = build_world(task["scale"], task["seed"], runtime=RUNTIME)
    with step.call("save", calls):
        entry = store.save(world)
    step.out["hashes"] = step.artefacts(world, ops, calls)
    step.out["round_s"] = time.perf_counter() - start
    step.out["rss_mb"] = high_water_rss_mb()
    step.out["setup_parts_s"] = [step.ready]
    step.out["entry_mb"] = entry_mb(entry)
    if task.get("check"):
        built = step.digest(world)
        reopened = step.load(store, task["scale"], task["seed"])
        if reopened is not None:
            step.op(
                step.digest(reopened) == built,
                "reopened checkpoint digest differs from the built world",
            )


def warm_round(step: Step) -> None:
    """Lazy ``load`` from the prepared store → twelve artefacts."""
    task = step.task
    calls, ops = step.out["calls_s"], step.out["ops_s"]
    start = time.perf_counter()
    world = step.load(CheckpointStore(task["store"]), task["scale"], task["seed"], calls)
    if world is None:
        return
    step.out["hashes"] = step.artefacts(world, ops, calls)
    step.out["round_s"] = time.perf_counter() - start
    step.out["rss_mb"] = high_water_rss_mb()
    if task.get("check"):
        step.out["digest"] = step.digest(world)


def replay_round(step: Step) -> None:
    """Apply a synthesized event stream to a live world.

    Set-up opens the stored base world, materialises every field and
    draws the events.  The timed part applies each event through
    ``LiveWorld.apply`` and materialises and digests the live world at
    evenly spaced checkpoints, as ``repro replay --no-verify`` does.
    """
    task = step.task
    setup = [step.ready]
    base = step.load(CheckpointStore(task["store"]), task["scale"], task["seed"], setup)
    if base is None:
        return
    with step.call("materialize", setup):
        base.materialize()
    with step.call("synthesize_events", setup):
        events = synthesize_events(
            base, seed=task["event_seed"], kinds=event_kinds(task["events"], task["kinds_seed"])
        )
    step.out["setup_parts_s"] = setup

    n = len(events)
    marks = {
        max(1, round((i + 1) * n / task["checkpoints"]))
        for i in range(task["checkpoints"])
    }
    calls, ops = step.out["calls_s"], step.out["ops_s"]
    start = time.perf_counter()
    with step.call("live_world", calls):
        live = LiveWorld(base)
    digest = world = None
    for index, event in enumerate(events, start=1):
        try:
            with step.call("apply", ops, calls):
                live.apply(event)
        except Exception as error:  # noqa: BLE001 - a failed op
            step.op(False, f"apply {type(event).__name__}: {error!r}")
        else:
            step.op(True)
        if index in marks:
            with step.call("live_world.world", calls):
                world = live.world()
            digest = step.digest(world, calls)
    step.out["round_s"] = time.perf_counter() - start
    step.out["rss_mb"] = high_water_rss_mb()
    if task.get("check"):
        with step.call("cold_rebuild"):
            rebuilt = cold_rebuild(base, events)
        step.op(
            step.digest(rebuilt) == digest,
            "live digest differs from the cold_rebuild digest",
        )
        # The digest covers the datasets; the artefacts also read
        # behaviours, policies and the propagation engine.  Some raise on
        # live worlds (f70, f83 and tab2 after a MemberJoined event, whose
        # org is missing from as2org); the check is that both worlds give
        # the same answer, error or text.
        live_outcomes = step.outcomes(world)
        rebuilt_outcomes = step.outcomes(rebuilt)
        for name, outcome in live_outcomes.items():
            step.op(
                outcome == rebuilt_outcomes[name],
                f"{name} on the live world differs from cold_rebuild",
            )
        step.out["artefact_errors"] = sum(
            outcome.startswith("error") for outcome in live_outcomes.values()
        )


def serve_check(step: Step) -> None:
    """Recompute served answers in-process.

    Builds and saves the served world, runs ``run_job`` for the twelve
    artefacts on it, and checks that the world a pool worker saved into
    the server's store digests equal to the one built here.  The parent
    compares the payload hashes with what the server returned.
    """
    task = step.task
    scale, seed = task["scale"], task["seed"]
    check_store = CheckpointStore(task["store"])
    config.set_current(replace(RUNTIME, cache_dir=str(check_store.root)))
    with step.call("build_world"):
        world = build_world(scale, seed, runtime=RUNTIME)
    with step.call("save"):
        entry = check_store.save(world)
    step.out["entry_mb"] = entry_mb(entry)
    job = Job("perfbench", "serve", {}, scale, seed, ARTEFACTS)
    with step.call("run_job"):
        payload = run_job(job)
    step.out["payload"] = {name: item["sha256"] for name, item in payload.items()}
    here = step.digest(world)
    served = step.load(CheckpointStore(task["server_store"]), scale, seed)
    if served is not None:
        step.op(
            step.digest(served) == here,
            "pool-built world digest differs from the in-process build",
        )


def event_kinds(n: int, seed: int) -> list[str]:
    """``n`` event kinds: shuffled copies of :data:`EVENT_BLOCK`."""
    rng = random.Random(seed)
    kinds: list[str] = []
    while len(kinds) < n:
        block = list(EVENT_BLOCK)
        rng.shuffle(block)
        kinds += block
    return kinds[:n]


def entry_mb(entry: Path) -> float:
    return sum(p.stat().st_size for p in entry.rglob("*") if p.is_file()) / 2**20


def span_tree(span, origin: float) -> dict:
    """A span as ``{name, start, end, attrs, counters, children}``."""
    return {
        "name": span.name,
        "start": span.start - origin,
        "end": span.start + span.elapsed - origin,
        "attrs": {key: str(value) for key, value in span.attrs.items()},
        "counters": dict(span.counters),
        "children": [span_tree(child, origin) for child in span.children],
    }


STEPS = {
    "prepare": prepare,
    "cold_round": cold_round,
    "warm_round": warm_round,
    "replay_round": replay_round,
    "serve_check": serve_check,
}


def main() -> int:
    step = Step(json.loads(sys.argv[1]))
    config.set_current(RUNTIME)
    obs.reset()
    try:
        STEPS[step.task["step"]](step)
    except Exception as error:  # noqa: BLE001 - reported to the parent
        import traceback

        traceback.print_exc()
        step.op(False, f"{step.task['step']}: {error!r}")
    if step.trace:
        step.out["spans"] = [span_tree(s, _T_IMPORT) for s in obs.root_spans()]
    print(json.dumps(step.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
