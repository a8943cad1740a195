"""Figure 8: MANRS-unconformant *customer* prefixes propagated per AS."""

from __future__ import annotations

from repro.core.conformance import propagation_stats
from repro.core.stats import CDF
from repro.experiments.common import POPULATIONS, group_metric, population_label
from repro.experiments.findings import Finding
from repro.scenario.world import World
from repro.topology.classify import SizeClass

__all__ = ["FINDINGS", "run", "render"]

Population = tuple[SizeClass, bool]
SMALL_M, _, _, _, LARGE_M, _ = POPULATIONS


def run(world: World) -> dict[Population, CDF]:
    """CDF of Formula 6 (PG_unconformant) per population.

    Only ASes that actually provide transit to customer announcements
    appear (the reason Figure 8's legend counts are smaller than
    Figure 7's).
    """
    stats = {
        asn: s
        for asn, s in propagation_stats(world.ihr).items()
        if s.customer_total > 0
    }
    return group_metric(world, stats, lambda s: s.pg_unconformant)


def render(cdfs: dict[Population, CDF]) -> str:
    """Tabulate per-population unconformant-propagation stats."""
    lines = [
        "Figure 8 — unconformant customer prefixes propagated",
        f"{'population':>20}  {'n':>5}  {'median %':>8}  {'max %':>6}",
    ]
    for population in POPULATIONS:
        size, member = population
        cdf = cdfs[population]
        if cdf.n == 0:
            continue
        lines.append(
            f"{population_label(size, member):>20}  {cdf.n:5d}  "
            f"{cdf.median:8.2f}  {cdf.maximum:6.2f}"
        )
    return "\n".join(lines)


FINDINGS = (
    Finding("fig8.large_manrs_transit", "§9.2, Figure 8", "24 large MANRS",
            lambda cdfs: cdfs[LARGE_M].n, ">", 0),
    Finding("fig8.large_manrs_max", "§9.2, Figure 8", "max <15%",
            lambda cdfs: cdfs[LARGE_M].maximum, "<", 15.0),
    Finding("fig8.large_manrs_median", "§9.2, Figure 8", "median 2.5%",
            lambda cdfs: cdfs[LARGE_M].median, "<", 8.0),
    Finding("fig8.small_manrs_median", "§9.2, Figure 8", "long tails only for non-members",
            lambda cdfs: cdfs[SMALL_M].median, "==", 0.0),
)
