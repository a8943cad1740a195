#!/usr/bin/env python3
"""Operator-facing conformance audit — the "monthly MANRS report".

§10 of the paper reports that operators found ISOC's private conformance
reports short on actionable information.  This example shows what an
actionable report looks like: for each unconformant MANRS member
organisation, it lists every offending prefix-origin, what exactly is
wrong (RPKI Invalid?  stale IRR object?  registered nowhere?), whom the
conflicting registration points at, and the concrete fix.

Usage::

    python examples/manrs_audit.py [scale] [seed]
"""

from __future__ import annotations

import sys

from repro.core.classification import is_conformant
from repro.core.conformance import (
    is_action4_conformant,
    origination_stats,
)
from repro.irr.validation import IRRStatus
from repro.manrs.actions import Program, action4_threshold
from repro.scenario import World, build_world


def audit_asn(world: World, asn: int) -> list[str]:
    """Per-prefix findings and remediation advice for one member AS."""
    lines: list[str] = []
    for record in world.ihr.records_of(asn):
        if is_conformant(record.rpki, record.irr):
            continue
        problem: str
        fix: str
        if record.rpki.is_invalid:
            conflicting = {
                vrp.asn
                for vrp in world.rov.covering_vrps(record.prefix)
                if vrp.asn != asn
            }
            problem = f"RPKI {record.rpki.value}"
            if 0 in conflicting:
                fix = "an AS0 ROA forbids this announcement; replace it"
            else:
                owners = ", ".join(f"AS{a}" for a in sorted(conflicting))
                fix = f"ROA authorises {owners or 'nothing'}; re-issue for AS{asn}"
        elif record.irr is IRRStatus.INVALID_ORIGIN:
            conflicting = {
                obj.origin
                for obj in world.irr.routes_covering(record.prefix)
                if obj.origin != asn
            }
            related = [
                a for a in conflicting if world.as2org.same_org(asn, a)
            ]
            problem = "stale IRR route object (RPKI NotFound)"
            if related:
                fix = (
                    f"route object names sibling AS{related[0]}; update the "
                    "origin or create a ROA"
                )
            else:
                owners = ", ".join(f"AS{a}" for a in sorted(conflicting))
                fix = f"route object names {owners}; update it or create a ROA"
        else:
            problem = "registered in neither IRR nor RPKI"
            fix = "create a route object or (preferably) a ROA"
        lines.append(f"      {record.prefix}: {problem} -> {fix}")
    return lines


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.35
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7
    world = build_world(scale=scale, seed=seed)
    stats = origination_stats(world.ihr)
    snapshot = world.snapshot_date

    print(f"MANRS conformance audit — snapshot {snapshot}")
    print("=" * 60)
    audited = 0
    for participant in world.manrs.participants:
        if participant.joined > snapshot:
            continue
        program = participant.program
        if program not in (Program.ISP, Program.CDN):
            continue
        bad_asns = [
            asn
            for asn in participant.asns
            if asn in stats
            and stats[asn].total > 0
            and not is_action4_conformant(stats[asn], program)
        ]
        if not bad_asns:
            continue
        audited += 1
        org = world.topology.get_org(participant.org_id)
        print()
        print(
            f"{org.name} ({participant.org_id}, {program.value.upper()} "
            f"program, joined {participant.joined})"
        )
        for asn in bad_asns:
            as_stats = stats[asn]
            print(
                f"   AS{asn}: {as_stats.og_conformant:.1f}% conformant "
                f"(needs {action4_threshold(program):.0f}%), "
                f"{as_stats.total} prefixes, "
                f"{as_stats.rpki_valid} RPKI-valid, "
                f"{as_stats.irr_valid} IRR-valid"
            )
            for line in audit_asn(world, asn):
                print(line)
    print()
    print(f"{audited} organisations need attention.")


if __name__ == "__main__":
    main()
