"""Figure 2: growth of MANRS organisations and ASes, 2015–2022."""

from __future__ import annotations

from repro.experiments.findings import Finding
from repro.scenario.timeline import GrowthPoint, Timeline
from repro.scenario.world import World

__all__ = ["FINDINGS", "run", "render"]


def run(world: World) -> list[GrowthPoint]:
    """The Figure 2 series: (year, member orgs, member ASes)."""
    return Timeline(world).growth()


def render(points: list[GrowthPoint]) -> str:
    """Print the series as the paper's figure would tabulate it."""
    lines = ["Figure 2 — MANRS growth", "year  organisations  ASes"]
    for point in points:
        lines.append(
            f"{point.year}  {point.organizations:13d}  {point.asns:4d}"
        )
    return "\n".join(lines)


def _largest_org_jump_year(points: list[GrowthPoint]) -> int:
    orgs = [point.organizations for point in points]
    increments = [b - a for a, b in zip(orgs, orgs[1:])]
    return points[1:][increments.index(max(increments))].year


FINDINGS = (
    Finding("fig2.orgs_monotone", "§7, Figure 2", "monotone 2015→2022, acceleration from 2019",
            lambda points: sum(b.organizations < a.organizations
                               for a, b in zip(points, points[1:])), "==", 0),
    Finding("fig2.largest_org_jump_year", "§7, Figure 2", "2020 (Brazil wave + CDN program)",
            _largest_org_jump_year, "==", 2020),
)
