"""Per-layer metrics computed from the span forests of a traced run.

A traced step records a ``suite.<call>`` span around every public call
it makes (``build_world``, ``save``, ``load``, ``world_digest``, each
artefact, ``LiveWorld.apply`` …); the spans the program itself opens
(``build.*``, ``ihr.*``, ``checkpoint.*``, ``columnar.materialize.*``,
``timeline.*``, ``delta.*``) nest beneath them.  A span's self time is
its duration minus the time its children cover.

Every metric in :data:`PER_LAYER` is one sample per unit of work, over
the whole traced run (set-up and checks included), reported as the
median: per ``build_world`` call for the build stages, per checkpoint
save or load, per digest, per pass over the artefacts, per process for
materialisation.  Every workload exercises each of these layers at
least once, so every metric is measured on every workload.
"""

from __future__ import annotations

from collections import defaultdict

#: Build stages in pipeline order; ``build.ihr`` is its self time, net of
#: the ``ihr.validate`` and ``ihr.hegemony`` spans inside it.
BUILD_STAGES = (
    "build.topology",
    "build.behaviors",
    "build.originations",
    "build.rpki",
    "build.irr",
    "build.relying_party",
    "build.classify",
    "build.collect_rib",
    "build.ihr",
    "ihr.validate",
    "ihr.hegemony",
)

#: Memo and cache hit ratios inside ``build_world``: (hits, misses).
BUILD_RATIOS = {
    "rov.memo_hit_ratio": ("rov.memo_hits", "rov.memo_misses"),
    "irr.memo_hit_ratio": ("irr.memo_hits", "irr.memo_misses"),
}

TIMELINE = ("timeline.rov_at", "timeline.saturation_series")

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    ("spawn_s", "s"),
    *((f"{stage}_s", "s") for stage in BUILD_STAGES),
    ("build.unattributed_s", "s"),
    ("build.stage_coverage", "ratio"),
    *((name, "ratio") for name in BUILD_RATIOS),
    ("checkpoint.save_s", "s"),
    ("checkpoint.entry_mb", "MB"),
    ("checkpoint.load_s", "s"),
    ("columnar.materialize_s", "s"),
    ("checkpoint.world_digest_s", "s"),
    ("experiments_s", "s"),
    *((f"{name}_s", "s") for name in TIMELINE),
    ("trace.overhead_ratio", "ratio"),
)


def duration(node: dict) -> float:
    return node["end"] - node["start"]


def self_time(node: dict) -> float:
    return duration(node) - sum(duration(child) for child in node["children"])


def walk(node: dict):
    yield node
    for child in node["children"]:
        yield from walk(child)


def inner_self_times(node: dict) -> dict[str, float]:
    """Self time by span name over ``node``'s descendants."""
    totals: dict[str, float] = defaultdict(float)
    for child in node["children"]:
        for inner in walk(child):
            totals[inner["name"]] += self_time(inner)
    return totals


def is_experiment(name: str) -> bool:
    head, _, rest = name.partition(".experiment.")
    return bool(rest) and head in ("suite", "sweep")


def build_unit(node: dict, samples: dict[str, list[float]]) -> None:
    inner = inner_self_times(node)
    for stage in BUILD_STAGES:
        samples[f"{stage}_s"].append(inner.get(stage, 0.0))
    samples["build.unattributed_s"].append(self_time(node))
    samples["build.stage_coverage"].append(1.0 - self_time(node) / duration(node))
    counters: dict[str, float] = defaultdict(float)
    for inner_node in walk(node):
        for name, value in inner_node.get("counters", {}).items():
            counters[name] += value
    for metric, (hit, miss) in BUILD_RATIOS.items():
        total = counters[hit] + counters[miss]
        if total:
            samples[metric].append(counters[hit] / total)


def experiment_pass(node: dict, samples: dict[str, list[float]]) -> None:
    samples["experiments_s"].append(
        sum(self_time(child) for child in node["children"] if is_experiment(child["name"]))
    )
    inner = inner_self_times(node)
    for name in TIMELINE:
        samples[f"{name}_s"].append(inner.get(name, 0.0))


def layer_samples(processes: list[dict]) -> dict[str, list[float]]:
    """Samples of every span-derived :data:`PER_LAYER` metric."""
    samples: dict[str, list[float]] = defaultdict(list)
    for process in processes:
        materialized = 0.0
        for root in process["spans"]:
            for node in walk(root):
                name = node["name"]
                if name.startswith("columnar.materialize."):
                    materialized += self_time(node)
                elif name == "suite.build_world":
                    build_unit(node, samples)
                elif name in ("checkpoint.save", "checkpoint.load"):
                    samples[f"{name}_s"].append(duration(node))
                elif name == "suite.world_digest":
                    inner = inner_self_times(node)
                    samples["checkpoint.world_digest_s"].append(
                        duration(node)
                        - sum(v for k, v in inner.items() if k.startswith("columnar.materialize."))
                    )
                if any(is_experiment(child["name"]) for child in node["children"]):
                    experiment_pass(node, samples)
        if materialized:
            samples["columnar.materialize_s"].append(materialized)
    return samples


def span_extras(processes: list[dict]) -> dict[str, tuple[list[float], str]]:
    """Per-name self times of every span, for the printed detail lines.

    These cover the layers only some workloads exercise: each artefact
    (``experiment.<name>``), each materialised field, each delta event
    kind, the serve client's requests.  Each ``build_world`` call also
    gets its wall time and the sum of its stages' self times.
    """
    extras: dict[str, tuple[list[float], str]] = {}

    def put(name: str, value: float) -> None:
        extras.setdefault(name, ([], "s"))[0].append(value)

    for process in processes:
        label = process["label"].replace(" ", "")
        for root in process["spans"]:
            for node in walk(root):
                name = node["name"]
                put(f"span.{name}.self_s", self_time(node))
                if name == "delta.apply":
                    put(f"delta.apply.{node['attrs'].get('event', '?')}_s", duration(node))
                elif name == "suite.build_world":
                    put(f"build_world.{label}.wall_s", duration(node))
                    put(f"build_world.{label}.stage_self_s", duration(node) - self_time(node))
    return extras
