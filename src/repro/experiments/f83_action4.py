"""Findings 8.3/8.4: AS-level conformance to MANRS Action 4."""

from __future__ import annotations

from repro.core.report import Action4Summary, action4_summaries
from repro.experiments.findings import Finding
from repro.manrs.actions import Program
from repro.scenario.world import World

__all__ = ["FINDINGS", "run", "render"]


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


FINDINGS = (
    Finding("f83.isp_conformant_pct", "Finding 8.4", "810/849 (95%)",
            lambda summaries: summaries[Program.ISP].pct_conformant, "[]", (88.0, 99.5)),
    Finding("f83.isp_unconformant", "Finding 8.4", "39 of 849",
            lambda summaries: len(summaries[Program.ISP].unconformant_asns), ">", 0),
    Finding("f83.isp_trivially_conformant", "Finding 8.4", "95",
            lambda summaries: summaries[Program.ISP].trivially_conformant, ">", 0),
    Finding("f83.cdn_members", "Finding 8.3", "21",
            lambda summaries: summaries[Program.CDN].total_members, ">=", 5),
    Finding("f83.cdn_unconformant", "Finding 8.3", "3 (top-5 originators)",
            lambda summaries: len(summaries[Program.CDN].unconformant_asns), "[]", (1, 4)),
    Finding("f83.cdn_conformant_pct", "Finding 8.3", "18/21 (86%)",
            lambda summaries: summaries[Program.CDN].pct_conformant, "[]", (60.0, 97.0)),
)
