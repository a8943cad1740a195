"""Validate a ``--trace-json`` snapshot (the ``make trace-smoke`` gate).

Checks that the document parses, that the span tree covers the world
build and every registry experiment, and that the headline counters
(routes propagated, memo hits) are present — the invariants the
observability layer promises tooling.  A ``repro replay`` trace (one
with a ``cli.replay`` root span) must cover the delta apply and
checkpoint spans and their cache counters instead of the experiments.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.registry import REGISTRY  # noqa: E402


def span_names(nodes: list[dict]) -> set[str]:
    names: set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        names.add(node["name"])
        stack.extend(node.get("children", ()))
    return names


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(f"usage: {argv[0]} TRACE.json", file=sys.stderr)
        return 2
    document = json.loads(Path(argv[1]).read_text())
    problems: list[str] = []
    if document.get("schema_version") != 1:
        problems.append("missing/unexpected schema_version")
    roots = {node["name"] for node in document.get("spans", [])}
    replay = "cli.replay" in roots
    names = span_names(document.get("spans", []))
    required_spans = ["cli.build_world", "build.topology", "build.collect_rib"]
    required_counters = [
        "collect.routes_propagated",
        "rov.memo_hits",
        "build.routes_classified",
    ]
    if replay:
        required_spans += [
            "delta.apply",
            "delta.materialise",
            "delta.materialise.paths",
            "delta.materialise.ihr",
        ]
        required_counters += ["delta.transit_hits", "propagation.cache_hits"]
    else:
        required_spans += [f"experiment.{name}" for name in REGISTRY]
    for required in required_spans:
        if required not in names:
            problems.append(f"span tree misses {required}")
    counters = document.get("metrics", {}).get("counters", {})
    for required in required_counters:
        if required not in counters:
            problems.append(f"counters miss {required}")
    if problems:
        for problem in problems:
            print(f"TRACE SMOKE FAIL: {problem}", file=sys.stderr)
        return 1
    print(
        f"trace ok: {len(names)} span names, {len(counters)} counters"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
