"""Finding 7.0: organisation-level MANRS registration completeness."""

from __future__ import annotations

from repro.core.participation import CompletenessReport, registration_completeness
from repro.experiments.findings import Finding
from repro.scenario.world import World

__all__ = ["FINDINGS", "run", "render"]


def run(world: World) -> CompletenessReport:
    """Compute Finding 7.0 at the world's snapshot date."""
    return registration_completeness(
        world.topology, world.manrs, world.prefix2as, world.snapshot_date
    )


def render(report: CompletenessReport) -> str:
    """Summarise the completeness statistics."""
    return "\n".join(
        [
            "Finding 7.0 — registration completeness",
            f"member organisations:                      {report.total_orgs}",
            f"registered all their ASNs:                 "
            f"{report.all_asns_registered} ({report.pct_all_asns:.0f}%)",
            f"announce space only via registered ASNs:   "
            f"{report.all_space_via_registered} ({report.pct_all_space:.0f}%)",
            f"announce some space from unregistered ASNs: {report.partial_announcers}",
            f"announce only from unregistered ASNs:      "
            f"{report.only_unregistered_announcers}",
            f"unregistered ASNs all quiescent:           "
            f"{report.quiescent_unregistered_only}",
        ]
    )


FINDINGS = (
    Finding("f70.all_asns_registered", "Finding 7.0", "70%",
            lambda report: report.pct_all_asns / 100, "[]", (0.55, 0.90)),
    Finding("f70.space_vs_asns", "Finding 7.0", "82% vs 70%",
            lambda report: report.pct_all_space - report.pct_all_asns, ">=", 0),
    Finding("f70.partial_announcers", "Finding 7.0", "117 of 661",
            lambda report: report.partial_announcers, ">", 0),
    Finding("f70.only_unregistered", "Finding 7.0", "8",
            lambda report: report.only_unregistered_announcers, ">=", 0),
    Finding("f70.only_unregistered_within_partial", "Finding 7.0", "8 of 117",
            lambda report: report.only_unregistered_announcers - report.partial_announcers,
            "<=", 0),
)
