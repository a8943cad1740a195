"""Table 1: case studies of unconformant MANRS networks.

Reproduces the paper's six case studies — the three unconformant CDNs and
the three largest unconformant ISP organisations — attributing each
unconformant prefix-origin to Sibling/C-P or Unrelated registrations.
"""

from __future__ import annotations

from repro.core.casestudy import CaseStudyRow, attribute_unconformant
from repro.core.conformance import (
    is_action4_conformant,
    origination_stats,
)
from repro.experiments.findings import Finding
from repro.manrs.actions import Program
from repro.scenario.world import World

__all__ = ["FINDINGS", "run", "render", "case_study_targets"]


def case_study_targets(world: World) -> list[tuple[str, tuple[int, ...]]]:
    """Pick the paper's case-study networks from a world.

    All unconformant CDN-program ASes (anonymised CDN1..), then the three
    ISP organisations owning the most unconformant member ASes (ISP1..).
    """
    stats = origination_stats(world.ihr)
    snapshot = world.snapshot_date
    targets: list[tuple[str, tuple[int, ...]]] = []

    cdn_unconformant = [
        asn
        for asn in sorted(world.manrs.member_asns(as_of=snapshot, program=Program.CDN))
        if not is_action4_conformant(stats.get(asn), Program.CDN)
    ]
    for index, asn in enumerate(cdn_unconformant[:3], start=1):
        targets.append((f"CDN{index}", (asn,)))

    unconformant_by_org: dict[str, list[int]] = {}
    unconformant_prefixes: dict[str, int] = {}
    for asn in sorted(world.manrs.member_asns(as_of=snapshot, program=Program.ISP)):
        if asn not in world.topology:
            continue
        if not is_action4_conformant(stats.get(asn), Program.ISP):
            org_id = world.topology.get_as(asn).org_id
            unconformant_by_org.setdefault(org_id, []).append(asn)
            unconformant_prefixes[org_id] = unconformant_prefixes.get(
                org_id, 0
            ) + stats[asn].unconformant
    # Rank by affirmatively-unconformant prefix-origins (the attributable
    # ones), so the case studies have substance — Table 1 rows for a
    # network whose problem is "registered nowhere" would be all zeros.
    worst_orgs = sorted(
        unconformant_by_org.items(),
        key=lambda item: (-unconformant_prefixes[item[0]], item[0]),
    )[:3]
    for index, (_, asns) in enumerate(worst_orgs, start=1):
        targets.append((f"ISP{index}", tuple(asns)))
    return targets


def run(world: World) -> list[CaseStudyRow]:
    """Build the Table 1 rows for this world's case-study networks."""
    return [
        attribute_unconformant(
            label,
            asns,
            world.ihr,
            world.rov,
            world.irr,
            world.topology,
            world.as2org,
        )
        for label, asns in case_study_targets(world)
    ]


def render(rows: list[CaseStudyRow]) -> str:
    """Tabulate Table 1."""
    lines = [
        "Table 1 — unconformant prefix-origin attribution",
        f"{'network':>8}  {'RPKI-Inv':>8}  {'Sib/C-P':>7}  {'Unrel':>5}  "
        f"{'IRR-Inv':>7}  {'Sib/C-P':>7}  {'Unrel':>5}",
    ]
    for row in rows:
        lines.append(
            f"{row.label:>8}  {row.rpki_invalid:8d}  {row.rpki_sibling_cp:7d}  "
            f"{row.rpki_unrelated:5d}  {row.irr_invalid:7d}  "
            f"{row.irr_sibling_cp:7d}  {row.irr_unrelated:5d}"
        )
    return "\n".join(lines)


def _rows_labelled(rows: list[CaseStudyRow], prefix: str) -> list[CaseStudyRow]:
    return [row for row in rows if row.label.startswith(prefix)]


FINDINGS = (
    Finding("tab1.rows", "Table 1", "3 CDNs + 3 ISPs", len, "==", 6),
    Finding("tab1.cdn_rows", "Table 1", "3 CDNs",
            lambda rows: len(_rows_labelled(rows, "CDN")), "==", 3),
    Finding("tab1.cdn_rows_unattributed", "Table 1", "CDN 2–48",
            lambda rows: sum(row.total_attributed < 1 for row in _rows_labelled(rows, "CDN")),
            "==", 0),
    Finding("tab1.attributed", "Table 1", "CDN 2–48, ISP1 302",
            lambda rows: sum(row.total_attributed for row in rows), ">", 0),
    Finding("tab1.sibling_cp_majority", "Finding 8.5", "51–100% per row",
            lambda rows: sum(row.rpki_sibling_cp + row.irr_sibling_cp for row in rows)
            - 0.5 * sum(row.total_attributed for row in rows), ">", 0),
    Finding("tab1.irr_over_rpki_invalid", "Finding 8.5", "~1% RPKI-Invalid",
            lambda rows: sum(row.irr_invalid for row in rows)
            - sum(row.rpki_invalid for row in rows), ">", 0),
    Finding("tab1.isp_rpki_invalid", "Table 1", "ISP1's forgotten ROAs",
            lambda rows: sum(row.rpki_invalid for row in _rows_labelled(rows, "ISP")), ">=", 1),
)
