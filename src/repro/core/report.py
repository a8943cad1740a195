"""Whole-ecosystem report: every headline finding from one world.

``build_report`` runs the full §6 methodology over a built world and
returns a structured summary; ``render_report`` formats it as the textual
report the examples print.  This is the "operator-facing" entry point the
paper's future-work section promises ("we will make our analysis code
available to network operators").  The Action 4 and Action 1 sections
are also callable alone (``action4_summaries``, ``action1_summaries``),
so an artefact that renders one section computes only that section.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.conformance import (
    OriginationStats,
    PropagationStats,
    is_action1_fully_conformant,
    is_action4_conformant,
    origination_stats,
    propagation_stats,
)
from repro.core.impact import irr_coverage, preference_scores, rpki_saturation
from repro.core.participation import (
    CompletenessReport,
    registration_completeness,
)
from repro.manrs.actions import Program
from repro.scenario.world import World
from repro.topology.classify import SizeClass

__all__ = [
    "Action4Summary",
    "Action1Summary",
    "EcosystemReport",
    "action1_summaries",
    "action4_summaries",
    "build_report",
    "render_report",
    "report_as_dict",
]


@dataclass
class Action4Summary:
    """Action 4 conformance for one program (Findings 8.3/8.4)."""

    program: Program
    total_members: int = 0
    trivially_conformant: int = 0
    conformant: int = 0
    unconformant_asns: list[int] = field(default_factory=list)

    @property
    def pct_conformant(self) -> float:
        """Percent of member ASNs conformant (incl. trivial)."""
        return (
            100.0 * self.conformant / self.total_members
            if self.total_members
            else 100.0
        )


@dataclass
class Action1Summary:
    """Action 1 conformance for one size class (Table 2)."""

    size: SizeClass
    transit_total: int = 0
    transit_conformant: int = 0
    total_members: int = 0
    total_conformant: int = 0

    @property
    def pct_transit_conformant(self) -> float:
        """Percent among ASes actually providing customer transit."""
        return (
            100.0 * self.transit_conformant / self.transit_total
            if self.transit_total
            else 100.0
        )

    @property
    def pct_total_conformant(self) -> float:
        """Percent including trivially conformant members."""
        return (
            100.0 * self.total_conformant / self.total_members
            if self.total_members
            else 100.0
        )


@dataclass
class EcosystemReport:
    """Everything the paper's summary section reports, for one world."""

    n_ases: int
    n_member_ases: int
    n_member_orgs: int
    completeness: CompletenessReport
    action4: dict[Program, Action4Summary]
    action1: dict[SizeClass, Action1Summary]
    saturation_manrs: float
    saturation_other: float
    irr_coverage_manrs: float
    irr_coverage_other: float
    #: Fraction of prefix-origins preferring MANRS transit, per RPKI status.
    preference_positive: dict[str, float]


def action4_summaries(world: World) -> dict[Program, Action4Summary]:
    """Action 4 conformance per program (Findings 8.3/8.4)."""
    og_stats = origination_stats(world.ihr)
    action4: dict[Program, Action4Summary] = {}
    for program in (Program.ISP, Program.CDN):
        summary = Action4Summary(program=program)
        for asn in sorted(world.manrs.member_asns(
            as_of=world.snapshot_date, program=program
        )):
            summary.total_members += 1
            stats = og_stats.get(asn)
            if stats is None or stats.total == 0:
                summary.trivially_conformant += 1
                summary.conformant += 1
            elif is_action4_conformant(stats, program):
                summary.conformant += 1
            else:
                summary.unconformant_asns.append(asn)
        action4[program] = summary
    return action4


def action1_summaries(world: World) -> dict[SizeClass, Action1Summary]:
    """Action 1 conformance per size class (Table 2)."""
    pg_stats = propagation_stats(world.ihr)
    action1: dict[SizeClass, Action1Summary] = {}
    for size in SizeClass:
        action1[size] = Action1Summary(size=size)
    for asn in sorted(world.members()):
        if asn not in world.topology:
            continue
        summary = action1[world.size_of[asn]]
        summary.total_members += 1
        stats = pg_stats.get(asn)
        fully = is_action1_fully_conformant(stats)
        if stats is not None and stats.customer_total > 0:
            summary.transit_total += 1
            if fully:
                summary.transit_conformant += 1
        if fully:
            summary.total_conformant += 1
    return action1


def build_report(world: World) -> EcosystemReport:
    """Run the complete methodology over ``world``."""
    members = world.members()
    sat_m, sat_n = rpki_saturation(world.prefix2as, world.rov, members)
    cov_m, cov_n = irr_coverage(world.prefix2as, world.irr, members)
    scores = preference_scores(world.ihr, members)
    preference_positive = {
        status: (
            sum(1 for s in values if s > 0) / len(values) if values else 0.0
        )
        for status, values in scores.items()
    }
    return EcosystemReport(
        n_ases=len(world.topology),
        n_member_ases=len(members),
        n_member_orgs=len(world.manrs.member_orgs(as_of=world.snapshot_date)),
        completeness=registration_completeness(
            world.topology, world.manrs, world.prefix2as, world.snapshot_date
        ),
        action4=action4_summaries(world),
        action1=action1_summaries(world),
        saturation_manrs=sat_m.saturation,
        saturation_other=sat_n.saturation,
        irr_coverage_manrs=cov_m.saturation,
        irr_coverage_other=cov_n.saturation,
        preference_positive=preference_positive,
    )


def report_as_dict(report: EcosystemReport) -> dict:
    """The report as a JSON-ready document (``report --json``).

    Enum keys become their string values; derived percentages are
    included alongside the raw counts so consumers need not recompute
    them.
    """
    return {
        "n_ases": report.n_ases,
        "n_member_ases": report.n_member_ases,
        "n_member_orgs": report.n_member_orgs,
        "completeness": {
            "total_orgs": report.completeness.total_orgs,
            "all_asns_registered": report.completeness.all_asns_registered,
            "all_space_via_registered": (
                report.completeness.all_space_via_registered
            ),
            "partial_announcers": report.completeness.partial_announcers,
            "only_unregistered_announcers": (
                report.completeness.only_unregistered_announcers
            ),
            "pct_all_asns": report.completeness.pct_all_asns,
            "pct_all_space": report.completeness.pct_all_space,
        },
        "action4": {
            program.value: {
                "total_members": summary.total_members,
                "trivially_conformant": summary.trivially_conformant,
                "conformant": summary.conformant,
                "pct_conformant": summary.pct_conformant,
                "unconformant_asns": list(summary.unconformant_asns),
            }
            for program, summary in report.action4.items()
        },
        "action1": {
            size.value: {
                "transit_total": summary.transit_total,
                "transit_conformant": summary.transit_conformant,
                "total_members": summary.total_members,
                "total_conformant": summary.total_conformant,
                "pct_transit_conformant": summary.pct_transit_conformant,
                "pct_total_conformant": summary.pct_total_conformant,
            }
            for size, summary in report.action1.items()
        },
        "rpki_saturation": {
            "manrs": report.saturation_manrs,
            "other": report.saturation_other,
        },
        "irr_coverage": {
            "manrs": report.irr_coverage_manrs,
            "other": report.irr_coverage_other,
        },
        "preference_positive": dict(report.preference_positive),
    }


def render_report(report: EcosystemReport) -> str:
    """Format the report as readable text."""
    lines = [
        "MANRS ecosystem report",
        "======================",
        f"ASes in topology: {report.n_ases}",
        f"MANRS member ASNs: {report.n_member_ases} "
        f"({report.n_member_orgs} organisations)",
        "",
        "Participation (Finding 7.0)",
        f"  orgs with all ASNs registered:        "
        f"{report.completeness.all_asns_registered} "
        f"({report.completeness.pct_all_asns:.0f}%)",
        f"  orgs announcing only via registered:  "
        f"{report.completeness.all_space_via_registered} "
        f"({report.completeness.pct_all_space:.0f}%)",
        "",
        "Action 4 conformance (Findings 8.3/8.4)",
    ]
    for program, summary in report.action4.items():
        lines.append(
            f"  {program.value.upper():4} program: {summary.conformant}/"
            f"{summary.total_members} conformant "
            f"({summary.pct_conformant:.0f}%), "
            f"{summary.trivially_conformant} trivially"
        )
    lines.append("")
    lines.append("Action 1 conformance (Table 2)")
    for size, summary in report.action1.items():
        lines.append(
            f"  {size.value:6}: transit {summary.transit_conformant}/"
            f"{summary.transit_total} "
            f"({summary.pct_transit_conformant:.1f}%), total "
            f"{summary.total_conformant}/{summary.total_members} "
            f"({summary.pct_total_conformant:.1f}%)"
        )
    lines.extend(
        [
            "",
            "Impact (Findings 8.8, 9.4)",
            f"  RPKI saturation: MANRS {report.saturation_manrs:.1f}% vs "
            f"non-MANRS {report.saturation_other:.1f}%",
            f"  IRR coverage:    MANRS {report.irr_coverage_manrs:.1f}% vs "
            f"non-MANRS {report.irr_coverage_other:.1f}%",
            "  prefix-origins preferring MANRS transit:",
        ]
    )
    for status, fraction in report.preference_positive.items():
        lines.append(f"    RPKI {status:10}: {100 * fraction:.0f}%")
    return "\n".join(lines)
