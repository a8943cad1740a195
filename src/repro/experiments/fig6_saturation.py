"""Figure 6: RPKI-covered address space, MANRS vs non-MANRS, 2015–2022."""

from __future__ import annotations

from repro.experiments.findings import Finding
from repro.scenario.timeline import SaturationPoint, Timeline
from repro.scenario.world import World

__all__ = ["FINDINGS", "run", "render"]


def run(world: World) -> list[SaturationPoint]:
    """The Figure 6 series."""
    return Timeline(world).saturation_series()


def render(points: list[SaturationPoint]) -> str:
    """Tabulate the two saturation series."""
    lines = [
        "Figure 6 — RPKI saturation of routed address space",
        "year  MANRS%  non-MANRS%",
    ]
    for point in points:
        lines.append(
            f"{point.year}  {point.manrs_saturation:6.1f}  "
            f"{point.other_saturation:10.1f}"
        )
    return "\n".join(lines)


def _manrs_by_year(points: list[SaturationPoint]) -> dict[int, float]:
    return {point.year: point.manrs_saturation for point in points}


def _manrs_increments(points: list[SaturationPoint]) -> dict[int, float]:
    """MANRS saturation gained in each year 2016–2022 (percentage points)."""
    by_year = _manrs_by_year(points)
    return {year: by_year[year] - by_year[year - 1] for year in range(2016, 2023)}


FINDINGS = (
    Finding("fig6.manrs_vs_other_2022", "Finding 8.8", "58.2% vs 30.2% (1.9×)",
            lambda points: points[-1].manrs_saturation - 1.5 * points[-1].other_saturation,
            ">", 0),
    Finding("fig6.manrs_2022", "Finding 8.8", "58.2%",
            lambda points: points[-1].manrs_saturation, "[]", (40.0, 80.0)),
    Finding("fig6.largest_jump_year", "§8.6, Figure 6", "steep rise 2020→2022",
            lambda points: max(_manrs_increments(points).items(), key=lambda item: item[1])[0],
            "==", 2020),
    Finding("fig6.jump_2020", "§8.6, Figure 6", "steep rise 2020→2022",
            lambda points: _manrs_increments(points)[2020], ">", 8.0),
    Finding("fig6.rise_2019_2022", "§8.6, Figure 6", "steep rise 2020→2022",
            lambda points: _manrs_by_year(points)[2022] - (_manrs_by_year(points)[2019] + 15.0),
            ">", 0),
)
