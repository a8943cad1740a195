#!/usr/bin/env python
"""Rewrite EXPERIMENTS.md's findings tables from the declared findings.

Builds the (1.0, 7) world, runs every paper artefact that declares
findings and evaluates them, then replaces the text between each
``<!-- findings:<name> -->`` and ``<!-- /findings:<name> -->`` marker
pair with that artefact's table.  Everything outside the markers is
hand-written prose and is left as it is.

Usage::

    PYTHONPATH=src python scripts/update_experiments.py

Prints ``unchanged`` or ``rewrote EXPERIMENTS.md``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.findings import COLUMNS, evaluate  # noqa: E402
from repro.experiments.registry import REGISTRY  # noqa: E402
from repro.scenario.build import build_world  # noqa: E402

EXPERIMENTS_PATH = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"

#: The world EXPERIMENTS.md records.
SCALE, SEED = 1.0, 7


def findings_table(outcomes) -> str:
    """One artefact's findings as a markdown table."""
    lines = ["| " + " | ".join(COLUMNS) + " |", "|---" * len(COLUMNS) + "|"]
    for outcome in outcomes:
        finding_id, *rest = outcome.cells()
        lines.append(f"| `{finding_id}` | " + " | ".join(rest) + " |")
    return "\n".join(lines)


def main() -> int:
    world = build_world(scale=SCALE, seed=SEED)
    text = EXPERIMENTS_PATH.read_text()
    updated = text
    for spec in REGISTRY.values():
        if not spec.findings:
            continue
        block = re.compile(
            rf"(<!-- findings:{spec.name} -->\n).*?(<!-- /findings:{spec.name} -->)",
            re.DOTALL,
        )
        if not block.search(updated):
            print(f"EXPERIMENTS.md has no findings:{spec.name} markers", file=sys.stderr)
            return 1
        table = findings_table(evaluate(spec.findings, spec.run(world)))
        updated = block.sub(lambda match: f"{match[1]}{table}\n{match[2]}", updated)
    if updated == text:
        print("unchanged")
    else:
        EXPERIMENTS_PATH.write_text(updated)
        print("rewrote EXPERIMENTS.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
