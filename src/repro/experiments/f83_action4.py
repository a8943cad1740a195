"""Findings 8.3/8.4: AS-level conformance to MANRS Action 4."""

from __future__ import annotations

from repro.core.report import Action4Summary, action4_summaries
from repro.manrs.actions import Program
from repro.scenario.world import World

__all__ = ["run", "render"]


def run(world: World) -> dict[Program, Action4Summary]:
    """Action 4 conformance per program (CDN needs 100%, ISP 90%)."""
    return action4_summaries(world)


def render(summaries: dict[Program, Action4Summary]) -> str:
    """Summarise both programs' conformance."""
    lines = ["Findings 8.3/8.4 — Action 4 conformance"]
    for program, summary in summaries.items():
        lines.append(
            f"{program.value.upper():4}: {summary.conformant}/"
            f"{summary.total_members} conformant "
            f"({summary.pct_conformant:.0f}%), "
            f"{summary.trivially_conformant} trivially, "
            f"{len(summary.unconformant_asns)} unconformant"
        )
    return "\n".join(lines)
