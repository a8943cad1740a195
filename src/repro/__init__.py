"""repro: a full reproduction of "Mind Your MANRS: Measuring the MANRS
Ecosystem" (Du et al., IMC 2022).

The package builds a synthetic but behaviourally calibrated Internet —
AS topology, BGP propagation, RPKI, IRR, route collectors, the MANRS
membership registry — and runs the paper's complete measurement
methodology over it: participation (§7), Action 4 prefix-origination
conformance (§8), Action 1 route-filtering conformance (§9), and the
MANRS impact analyses (RPKI saturation, preference scores).

Quickstart (one ✓/✗ row per declared paper finding)::

    from repro.experiments import paper_findings, render_table
    from repro.scenario import build_world

    world = build_world(scale=0.2, seed=42)
    print(render_table(paper_findings(world)))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.config import RuntimeConfig
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = ["ReproError", "RuntimeConfig", "__version__"]
