#!/usr/bin/env python3
"""Quickstart: build a synthetic Internet and measure its MANRS ecosystem.

Builds a small world (about a thousand ASes), runs the paper's full
measurement methodology over it, and prints the findings table: each of
the paper's claims with the paper's value, the value measured here, the
bound it is checked against and whether it holds.

Usage::

    python examples/quickstart.py [scale] [seed]

``scale`` (default 0.2) multiplies the world size; 1.0 reproduces the
paper-shaped ~10k-AS world.
"""

from __future__ import annotations

import sys
import time

from repro.experiments import paper_findings, render_table
from repro.scenario import build_world


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.2
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 42

    print(f"Building world (scale={scale}, seed={seed})...")
    started = time.perf_counter()
    world = build_world(scale=scale, seed=seed)
    elapsed = time.perf_counter() - started
    print(
        f"  {len(world.topology)} ASes, {world.all_announcements()} announced "
        f"prefixes, {len(world.rov)} VRPs, {world.irr.route_count} IRR route "
        f"objects ({elapsed:.1f}s)"
    )
    print()
    print(render_table(paper_findings(world)))


if __name__ == "__main__":
    main()
