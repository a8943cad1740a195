"""Figure 5: prefix-origination validity CDFs (Action 4 behaviour).

5a — CDF of the percent of RPKI-Valid prefixes each AS originates, per
population; 5b — the same for IRR-Valid.  The module also computes the
§8.1/§8.2 side statistics: the bimodal mode shares (all-valid /
no-valid), RPKI-Invalid originators, and IRR-only registration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.conformance import OriginationStats, origination_stats
from repro.core.stats import CDF
from repro.experiments.common import POPULATIONS, group_metric, population_label
from repro.experiments.findings import Finding
from repro.scenario.world import World
from repro.topology.classify import SizeClass

__all__ = ["FINDINGS", "Fig5Result", "run", "render"]

Population = tuple[SizeClass, bool]
SMALL_M, SMALL_N, MEDIUM_M, MEDIUM_N, LARGE_M, LARGE_N = POPULATIONS


@dataclass(frozen=True)
class PopulationModes:
    """§8.1/§8.2 per-population mode shares."""

    n_ases: int
    only_rpki_valid: float     # fraction of ASes with 100% RPKI Valid
    no_rpki_valid: float       # fraction with 0% RPKI Valid
    originates_rpki_invalid: float
    irr_only_registration: float


@dataclass(frozen=True)
class Fig5Result:
    """Both Figure 5 panels plus the mode statistics."""

    rpki_cdf: dict[Population, CDF]
    irr_cdf: dict[Population, CDF]
    modes: dict[Population, PopulationModes]


def run(world: World) -> Fig5Result:
    """Compute Figure 5 for one world."""
    stats = origination_stats(world.ihr)
    rpki_cdf = group_metric(world, stats, lambda s: s.og_rpki_valid)
    irr_cdf = group_metric(world, stats, lambda s: s.og_irr_valid)
    members = world.members()
    grouped: dict[Population, list[OriginationStats]] = {
        population: [] for population in POPULATIONS
    }
    for asn, as_stats in stats.items():
        if asn not in world.topology:
            continue
        grouped[(world.size_of[asn], asn in members)].append(as_stats)
    modes: dict[Population, PopulationModes] = {}
    for population, stats_list in grouped.items():
        n = len(stats_list)
        if n == 0:
            modes[population] = PopulationModes(0, 0.0, 0.0, 0.0, 0.0)
            continue
        modes[population] = PopulationModes(
            n_ases=n,
            only_rpki_valid=sum(s.only_rpki_valid for s in stats_list) / n,
            no_rpki_valid=sum(s.no_rpki_valid for s in stats_list) / n,
            originates_rpki_invalid=sum(
                s.rpki_invalid > 0 for s in stats_list
            )
            / n,
            irr_only_registration=sum(
                s.irr_only_registration for s in stats_list
            )
            / n,
        )
    return Fig5Result(rpki_cdf=rpki_cdf, irr_cdf=irr_cdf, modes=modes)


def render(result: Fig5Result) -> str:
    """Tabulate medians and mode shares per population."""
    lines = [
        "Figure 5 — originated prefix validity by population",
        f"{'population':>20}  {'n':>5}  {'med %RPKI':>9}  {'med %IRR':>8}  "
        f"{'all-RPKI':>8}  {'no-RPKI':>7}  {'IRR-only':>8}",
    ]
    for population in POPULATIONS:
        size, member = population
        cdf = result.rpki_cdf[population]
        irr = result.irr_cdf[population]
        mode = result.modes[population]
        if cdf.n == 0:
            continue
        lines.append(
            f"{population_label(size, member):>20}  {cdf.n:5d}  "
            f"{cdf.median:9.1f}  {irr.median:8.1f}  "
            f"{100 * mode.only_rpki_valid:7.1f}%  "
            f"{100 * mode.no_rpki_valid:6.1f}%  "
            f"{100 * mode.irr_only_registration:7.1f}%"
        )
    return "\n".join(lines)


FINDINGS = (
    Finding("fig5.small_rpki_bimodal", "Finding 8.1", "most ASes 0% or 100%",
            lambda result: min(result.modes[p].only_rpki_valid + result.modes[p].no_rpki_valid
                               for p in (SMALL_M, SMALL_N)), ">", 0.75),
    Finding("fig5.small_all_valid_manrs_vs_non", "Finding 8.1", "60.1% vs 24.7% (2.4×)",
            lambda result: result.modes[SMALL_M].only_rpki_valid
            - 1.8 * result.modes[SMALL_N].only_rpki_valid, ">", 0),
    Finding("fig5.small_no_valid_non_vs_manrs", "Finding 8.1", "68.1% vs 23.6%",
            lambda result: result.modes[SMALL_N].no_rpki_valid
            - 1.8 * result.modes[SMALL_M].no_rpki_valid, ">", 0),
    Finding("fig5.medium_all_valid_manrs_vs_non", "Finding 8.1", "41.5% vs 23.8%",
            lambda result: result.modes[MEDIUM_M].only_rpki_valid
            - 1.4 * result.modes[MEDIUM_N].only_rpki_valid, ">", 0),
    Finding("fig5.small_rpki_median_manrs_vs_non", "§8.1, Figure 5a", "MANRS shifted right",
            lambda result: result.rpki_cdf[SMALL_M].median - result.rpki_cdf[SMALL_N].median,
            ">", 0),
    Finding("fig5.medium_rpki_median_manrs_vs_non", "§8.1, Figure 5a", "MANRS shifted right",
            lambda result: result.rpki_cdf[MEDIUM_M].median - result.rpki_cdf[MEDIUM_N].median,
            ">", 0),
    Finding("fig5.large_irr_median_manrs_vs_non", "Finding 8.2", "63.5% vs 84.0%",
            lambda result: result.irr_cdf[LARGE_M].median - result.irr_cdf[LARGE_N].median,
            "<", 0),
    Finding("fig5.small_irr_median_gap", "§8.2", "72.3% vs 70.0%",
            lambda result: abs(result.irr_cdf[SMALL_M].median - result.irr_cdf[SMALL_N].median),
            "<", 25.0),
    Finding("fig5.small_irr_only_non_vs_manrs", "§8.2", "65.4% vs 23.6%",
            lambda result: result.modes[SMALL_N].irr_only_registration
            - 2 * result.modes[SMALL_M].irr_only_registration, ">", 0),
    Finding("fig5.medium_irr_only_non_vs_manrs", "§8.2", "skews non-MANRS",
            lambda result: result.modes[MEDIUM_N].irr_only_registration
            - 1.5 * result.modes[MEDIUM_M].irr_only_registration, ">", 0),
    Finding("fig5.small_manrs_invalid_originators", "§8.1", "0",
            lambda result: result.modes[SMALL_M].originates_rpki_invalid, "<", 0.02),
    Finding("fig5.large_vs_small_non_invalid_originators", "§8.1",
            "rises with size (32.9% of large non-MANRS)",
            lambda result: result.modes[LARGE_N].originates_rpki_invalid
            - result.modes[SMALL_N].originates_rpki_invalid, ">=", 0),
)
