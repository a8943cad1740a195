"""Finding 8.7 / §8.5: conformance stability over weekly snapshots."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.stability import StabilityReport, conformance_stability
from repro.experiments.findings import Finding
from repro.scenario.timeline import (
    PrefixChurn,
    WeeklyConformance,
    flagship_prefix_churn,
    weekly_member_conformance,
)
from repro.scenario.world import World

__all__ = ["FINDINGS", "StabilityResult", "run", "render"]


@dataclass(frozen=True)
class StabilityResult:
    """The weekly series plus the paper's stability classification."""

    weekly: WeeklyConformance
    report: StabilityReport
    #: Prefix-level churn of the top CDN originators (§8.5's CDN study).
    cdn_churn: dict[int, PrefixChurn]


def run(world: World, n_weeks: int = 12, seed: int = 0) -> StabilityResult:
    """Generate weekly snapshots and classify member stability."""
    weekly = weekly_member_conformance(world, n_weeks=n_weeks, seed=seed)
    report = conformance_stability(weekly.verdicts)
    churn = flagship_prefix_churn(world, n_weeks=n_weeks, seed=seed)
    return StabilityResult(weekly=weekly, report=report, cdn_churn=churn)


def render(result: StabilityResult) -> str:
    """Summarise the stable/flapping split and CDN prefix churn."""
    report = result.report
    lines = [
        f"Finding 8.7 — conformance stability over "
        f"{report.n_snapshots} weekly snapshots",
        f"consistently conformant:   {report.always_conformant}",
        f"consistently unconformant: {report.always_unconformant}",
        f"flapping:                  {report.flapping}",
    ]
    for index, churn in enumerate(result.cdn_churn.values(), start=1):
        lines.append(
            f"CDN{index} prefixes: {churn.stable} stable "
            f"({churn.status_changes} changed status), "
            f"{churn.withdrawn} withdrawn, {churn.added} new"
        )
    return "\n".join(lines)


def _flapping_slack(result: StabilityResult) -> int:
    """Distance of the flapping count inside [1, max(2, 6% of members)]."""
    report = result.report
    cap = max(2, int(0.06 * len(report.classification)))
    return min(report.flapping - 1, cap - report.flapping)


def _flapping_outside_churn(result: StabilityResult) -> int:
    verdicts = result.report.classification.items()
    flapping = {asn for asn, verdict in verdicts if verdict.value == "flapping"}
    return len(flapping - set(result.weekly.flapped))


FINDINGS = (
    Finding("f87.always_conformant_majority", "Finding 8.7", "803/849 ISPs + 18/21 CDNs",
            lambda result: result.report.always_conformant
            - 0.8 * len(result.report.classification), ">", 0),
    Finding("f87.always_unconformant", "Finding 8.7", "35 ISPs + 3 CDNs",
            lambda result: result.report.always_unconformant, ">=", 1),
    Finding("f87.flapping_slack", "Finding 8.7", "11", _flapping_slack, ">=", 0),
    Finding("f87.flapping_outside_churn", "§8.5", "(model check)",
            _flapping_outside_churn, "==", 0),
)
