"""Figure 4: MANRS participation by RIR region over time.

4a — member AS counts per RIR (the LACNIC/Brazil outreach wave);
4b — percent of routed IPv4 address space announced by member ASes per
RIR (the APNIC flagship-transit and ARIN CDN-program jumps).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.findings import Finding
from repro.registry.rir import RIR
from repro.scenario.timeline import Timeline
from repro.scenario.world import World

__all__ = ["FINDINGS", "Fig4Result", "run", "render"]


@dataclass(frozen=True)
class Fig4Result:
    """Both panels of Figure 4."""

    ases_by_rir: dict[RIR, list[tuple[int, int]]]
    space_share_by_rir: dict[RIR, list[tuple[int, float]]]

    def ases_in(self, rir: RIR, year: int) -> int:
        """Member AS count for one (RIR, year)."""
        return dict(self.ases_by_rir[rir])[year]

    def share_in(self, rir: RIR, year: int) -> float:
        """Member routed-space share (percent) for one (RIR, year)."""
        return dict(self.space_share_by_rir[rir])[year]


def run(world: World) -> Fig4Result:
    """Compute both Figure 4 panels."""
    timeline = Timeline(world)
    return Fig4Result(
        ases_by_rir=timeline.members_by_rir_series(),
        space_share_by_rir=timeline.routed_share_series(),
    )


def render(result: Fig4Result) -> str:
    """Tabulate both panels year × RIR."""
    years = [year for year, _ in next(iter(result.ases_by_rir.values()))]
    lines = ["Figure 4a — MANRS ASes per RIR"]
    header = "year  " + "  ".join(f"{rir.value:>7}" for rir in RIR)
    lines.append(header)
    for i, year in enumerate(years):
        row = f"{year}  " + "  ".join(
            f"{result.ases_by_rir[rir][i][1]:7d}" for rir in RIR
        )
        lines.append(row)
    lines.append("")
    lines.append("Figure 4b — % routed IPv4 space announced by MANRS ASes")
    lines.append(header)
    for i, year in enumerate(years):
        row = f"{year}  " + "  ".join(
            f"{result.space_share_by_rir[rir][i][1]:7.2f}" for rir in RIR
        )
        lines.append(row)
    return "\n".join(lines)


def _lacnic_wave_margin(result: Fig4Result) -> int:
    """LACNIC's 2020 member-AS increment over its largest other one."""
    ases = dict(result.ases_by_rir[RIR.LACNIC])
    jumps = {year: ases[year] - ases[year - 1] for year in range(2016, 2023)}
    return jumps.pop(2020) - max(jumps.values())


def _space_jump_2020(result: Fig4Result, rir: RIR) -> float:
    return result.share_in(rir, 2020) - result.share_in(rir, 2019)


FINDINGS = (
    Finding("fig4.lacnic_as_wave_2020", "§7, Figure 4a", "+90 small Brazilian ASes in 2020",
            _lacnic_wave_margin, ">", 0),
    Finding("fig4.apnic_space_jump_2020", "§7, Figure 4b",
            "China Telecom (4.0% of v4 table) joins",
            lambda result: _space_jump_2020(result, RIR.APNIC), ">", 1.0),
    Finding("fig4.lacnic_space_below_apnic_2020", "§7, Figure 4b", "little added space (0.24%)",
            lambda result: _space_jump_2020(result, RIR.LACNIC)
            - _space_jump_2020(result, RIR.APNIC), "<", 0),
)
