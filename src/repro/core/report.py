"""Member conformance summaries: Action 4 per program, Action 1 per size.

``action4_summaries`` is Findings 8.3/8.4's ``run`` and
``action1_summaries`` Table 2's; each computes only its own section.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.conformance import (
    is_action1_fully_conformant,
    is_action4_conformant,
    origination_stats,
    propagation_stats,
)
from repro.manrs.actions import Program
from repro.scenario.world import World
from repro.topology.classify import SizeClass

__all__ = [
    "Action4Summary",
    "Action1Summary",
    "action1_summaries",
    "action4_summaries",
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
