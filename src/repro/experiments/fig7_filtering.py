"""Figure 7: invalid prefixes propagated through each AS (Action 1).

7a — CDF of the percent of RPKI-Invalid (incl. invalid-length) prefixes
among everything each AS provides transit for; 7b — the same for
IRR-Invalid.  Populations as in Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.conformance import propagation_stats
from repro.core.stats import CDF
from repro.experiments.common import POPULATIONS, group_metric, population_label
from repro.experiments.findings import Finding
from repro.scenario.world import World
from repro.topology.classify import SizeClass

__all__ = ["FINDINGS", "Fig7Result", "run", "render"]

Population = tuple[SizeClass, bool]
SMALL_M, SMALL_N, _, _, LARGE_M, LARGE_N = POPULATIONS


@dataclass(frozen=True)
class Fig7Result:
    """Both Figure 7 panels."""

    rpki_cdf: dict[Population, CDF]
    irr_cdf: dict[Population, CDF]


def run(world: World) -> Fig7Result:
    """Compute Figure 7 over the IHR transit dataset."""
    stats = {
        asn: s for asn, s in propagation_stats(world.ihr).items() if s.total > 0
    }
    return Fig7Result(
        rpki_cdf=group_metric(world, stats, lambda s: s.pg_rpki_invalid),
        irr_cdf=group_metric(world, stats, lambda s: s.pg_irr_invalid),
    )


def render(result: Fig7Result) -> str:
    """Tabulate per-population propagation statistics."""
    lines = [
        "Figure 7 — invalid prefixes propagated, by population",
        f"{'population':>20}  {'n':>5}  {'zero-RPKI-inv':>13}  "
        f"{'max %RPKI':>9}  {'max %IRR':>8}",
    ]
    for population in POPULATIONS:
        size, member = population
        rpki = result.rpki_cdf[population]
        irr = result.irr_cdf[population]
        if rpki.n == 0:
            continue
        lines.append(
            f"{population_label(size, member):>20}  {rpki.n:5d}  "
            f"{100 * rpki.fraction_at_most(0.0):12.1f}%  "
            f"{rpki.maximum:9.2f}  {irr.maximum:8.2f}"
        )
    return "\n".join(lines)


FINDINGS = (
    Finding("fig7.small_zero_rpki_invalid", "§9.1, Figure 7a", "99.2%/99.1% at zero",
            lambda result: min(result.rpki_cdf[p].fraction_at_most(0.0)
                               for p in (SMALL_M, SMALL_N)), ">", 0.9),
    Finding("fig7.max_rpki_invalid_share", "§9.1, Figure 7a", "≤1.1% / ≤6.4%",
            lambda result: max(cdf.maximum for cdf in result.rpki_cdf.values() if cdf.n),
            "<", 12.0),
    Finding("fig7.large_non_zero_rpki_invalid", "§9.1, Figure 7a", "36.0% at zero",
            lambda result: result.rpki_cdf[LARGE_N].fraction_at_most(0.0), "<", 1.0),
    Finding("fig7.large_manrs_irr_invalid", "§9.1, Figure 7b", "max 25.5%",
            lambda result: result.irr_cdf[LARGE_M].maximum, ">", 0.0),
    Finding("fig7.large_non_irr_invalid", "§9.1, Figure 7b", "max 74.5%",
            lambda result: result.irr_cdf[LARGE_N].maximum, ">", 0.0),
    Finding("fig7.large_irr_tail_non_vs_manrs", "§9.1, Figure 7b", "74.5% vs 25.5% max",
            lambda result: result.irr_cdf[LARGE_N].maximum - result.irr_cdf[LARGE_M].median,
            ">", 0),
)
