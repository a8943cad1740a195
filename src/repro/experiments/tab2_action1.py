"""Table 2: Action 1 (route filtering) conformance by size class."""

from __future__ import annotations

from repro.core.report import Action1Summary, action1_summaries
from repro.scenario.world import World
from repro.topology.classify import SizeClass

__all__ = ["run", "render"]


def run(world: World) -> dict[SizeClass, Action1Summary]:
    """Table 2's rows: transit-conformant and total-conformant counts."""
    return action1_summaries(world)


def render(summaries: dict[SizeClass, Action1Summary]) -> str:
    """Tabulate Table 2."""
    lines = [
        "Table 2 — Action 1 conformance",
        f"{'size':>6}  {'transit conf.':>13}  {'total transit':>13}  "
        f"{'total conf.':>11}  {'total MANRS':>11}",
    ]
    for size in SizeClass:
        summary = summaries[size]
        lines.append(
            f"{size.value:>6}  {summary.transit_conformant:6d} "
            f"({summary.pct_transit_conformant:5.1f}%)  "
            f"{summary.transit_total:13d}  "
            f"{summary.total_conformant:4d} ({summary.pct_total_conformant:5.1f}%)  "
            f"{summary.total_members:11d}"
        )
    return "\n".join(lines)
