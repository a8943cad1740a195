"""Table 2: Action 1 (route filtering) conformance by size class."""

from __future__ import annotations

from repro.core.report import Action1Summary, action1_summaries
from repro.experiments.findings import Finding
from repro.scenario.world import World
from repro.topology.classify import SizeClass

__all__ = ["FINDINGS", "run", "render"]


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


FINDINGS = (
    Finding("tab2.large_transit", "Table 2", "24",
            lambda summaries: summaries[SizeClass.LARGE].transit_total, ">", 0),
    Finding("tab2.large_transit_conformant", "Table 2", "0/24 (0%)",
            lambda summaries: summaries[SizeClass.LARGE].transit_conformant, "==", 0),
    Finding("tab2.small_transit_pct", "Table 2", "101/104 (97.1%)",
            lambda summaries: summaries[SizeClass.SMALL].pct_transit_conformant, ">", 88.0),
    Finding("tab2.small_total_pct", "Table 2", "448/451 (99.3%)",
            lambda summaries: summaries[SizeClass.SMALL].pct_total_conformant, ">", 95.0),
    Finding("tab2.medium_transit_pct", "Table 2", "200/307 (65.1%)",
            lambda summaries: summaries[SizeClass.MEDIUM].pct_transit_conformant,
            "()", (40.0, 90.0)),
    Finding("tab2.small_transit_minority", "§9.3", "23%",
            lambda summaries: summaries[SizeClass.SMALL].transit_total
            - 0.5 * summaries[SizeClass.SMALL].total_members, "<", 0),
)
