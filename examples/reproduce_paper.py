#!/usr/bin/env python3
"""Reproduce every table and figure of the paper in one run.

Builds the full-scale world and prints, in registry order, the
series/rows behind Figures 2, 4a/4b, 5a/5b, 6, 7a/7b, 8, 9, Tables 1
and 2 and Findings 7.0, 8.3/8.4 and 8.7, each followed by a ✓/✗ line
per paper finding it is checked against, then the scenario families and
two extensions beyond the paper.  Optionally exports every input
dataset (prefix2as, as2org, AS relationships, VRPs, IRR dumps,
participant list) to a directory.

Usage::

    python examples/reproduce_paper.py [scale] [seed] [--export DIR]
"""

from __future__ import annotations

import sys

from repro import experiments as ex
from repro.datasets import export_world
from repro.experiments.findings import evaluate
from repro.scenario import build_world


def main() -> None:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    scale = float(args[0]) if args else 1.0
    seed = int(args[1]) if len(args) > 1 else 7
    export_dir = None
    if "--export" in sys.argv:
        export_dir = sys.argv[sys.argv.index("--export") + 1]

    print(f"Building world (scale={scale}, seed={seed})...", flush=True)
    world = build_world(scale=scale, seed=seed)
    print(f"  {len(world.topology)} ASes, {len(world.members())} MANRS members")
    print()

    for spec in ex.REGISTRY.values():
        result = spec.run(world)
        print(spec.render(result))
        for outcome in evaluate(spec.findings, result):
            print(outcome.line())
        print()
    print(ex.ext_other_actions.render(ex.ext_other_actions.run(world)))
    print()
    print(
        ex.ablations.render_visibility_ablation(
            ex.ablations.visibility_ablation(world, fractions=(0.25, 1.0))
        )
    )
    print()

    if export_dir:
        path = export_world(world, export_dir)
        print(f"datasets exported to {path}/")


if __name__ == "__main__":
    main()
