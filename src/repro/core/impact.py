"""MANRS impact analyses (§6.5): RPKI saturation and preference scores.

* **RPKI saturation** (Equations 7/8, Figure 6): the fraction of routed
  address space covered by ROAs, split MANRS vs non-MANRS.
* **MANRS preference score** (Equation 9, Figure 9): per prefix-origin,
  the sum of MANRS transit hegemonies minus the sum of non-MANRS transit
  hegemonies — positive means the announcement preferentially crosses
  MANRS networks.  Comparing the score distribution of RPKI Invalid
  announcements against Valid/NotFound ones reveals collective ROV
  effectiveness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bgp.table import Prefix2AS
from repro.ihr.records import IHRDataset
from repro.irr.database import IRRCollection, IRRDatabase
from repro.kernels.intervals import _sorted_contains, union_address_count
from repro.net.prefix import Prefix, aggregate_address_count
from repro.rpki.rov import ROVValidator, RPKIStatus

__all__ = [
    "SaturationReport",
    "rpki_saturation",
    "irr_coverage",
    "preference_scores",
]


@dataclass(frozen=True)
class SaturationReport:
    """RPKI saturation of one population of ASes (Equation 7/8)."""

    routed_space: int
    covered_space: int

    @property
    def saturation(self) -> float:
        """Percent of routed space covered by ROAs."""
        return (
            100.0 * self.covered_space / self.routed_space
            if self.routed_space
            else 0.0
        )


def rpki_saturation(
    prefix2as: Prefix2AS,
    rov: ROVValidator,
    member_asns: frozenset[int],
) -> tuple[SaturationReport, SaturationReport]:
    """(MANRS, non-MANRS) saturation over the routed IPv4 table.

    Columnar: per-population sweeps over presorted rows.  The
    routed/covered address counts are unions of integer intervals, so
    they only depend on which rows each population selects, not on
    bucket assembly order — the presorted columns plus boolean masks
    yield the exact integers of :func:`_rpki_saturation_python`.
    """
    cols = prefix2as.v4_columns()
    covered = rov.interval_index().covers_v4(
        cols.unique_values, cols.unique_lengths
    )[cols.unique_inverse]
    members = np.array(sorted(member_asns), dtype=np.int64)
    member_rows = _sorted_contains(members, cols.origins)
    reports = []
    for rows in (member_rows, ~member_rows):
        hit = rows & covered
        reports.append(
            SaturationReport(
                routed_space=union_address_count(
                    cols.firsts[rows], cols.lasts[rows]
                ),
                covered_space=union_address_count(
                    cols.firsts[hit], cols.lasts[hit]
                ),
            )
        )
    return reports[0], reports[1]


def _rpki_saturation_python(
    prefix2as: Prefix2AS,
    rov: ROVValidator,
    member_asns: frozenset[int],
) -> tuple[SaturationReport, SaturationReport]:
    """The per-prefix reference for :func:`rpki_saturation`.

    Buckets each origin's IPv4 prefixes by population, asks the radix
    trie whether any VRP covers each one, and aggregates the address
    counts.  Only ``tests/test_kernels.py`` calls it, as the oracle the
    columnar path must match exactly.
    """
    member_prefixes: list[Prefix] = []
    other_prefixes: list[Prefix] = []
    for asn in prefix2as.origin_asns:
        bucket = member_prefixes if asn in member_asns else other_prefixes
        bucket.extend(p for p in prefix2as.prefixes_of(asn) if p.version == 4)
    return (
        _saturation_of(member_prefixes, rov),
        _saturation_of(other_prefixes, rov),
    )


def _saturation_of(prefixes: list[Prefix], rov: ROVValidator) -> SaturationReport:
    covered = [prefix for prefix in prefixes if rov.covering_vrps(prefix)]
    return SaturationReport(
        routed_space=aggregate_address_count(prefixes),
        covered_space=aggregate_address_count(covered),
    )


def irr_coverage(
    prefix2as: Prefix2AS,
    irr: IRRCollection | IRRDatabase,
    member_asns: frozenset[int],
) -> tuple[SaturationReport, SaturationReport]:
    """Like :func:`rpki_saturation` but for IRR route-object coverage
    (the §8.6 comparison: 95.0% of MANRS vs 84.6% of non-MANRS space)."""
    member_prefixes: list[Prefix] = []
    other_prefixes: list[Prefix] = []
    for asn in prefix2as.origin_asns:
        bucket = member_prefixes if asn in member_asns else other_prefixes
        bucket.extend(p for p in prefix2as.prefixes_of(asn) if p.version == 4)

    def coverage_of(prefixes: list[Prefix]) -> SaturationReport:
        covered = [p for p in prefixes if irr.routes_covering(p)]
        return SaturationReport(
            routed_space=aggregate_address_count(prefixes),
            covered_space=aggregate_address_count(covered),
        )

    return coverage_of(member_prefixes), coverage_of(other_prefixes)


def preference_scores(
    dataset: IHRDataset,
    member_asns: frozenset[int],
) -> dict[str, list[float]]:
    """MANRS preference score per prefix-origin, grouped by RPKI status.

    Returns ``{"valid": [...], "not_found": [...], "invalid": [...]}`` —
    the paper folds both invalid flavours into one Figure 9 series.
    """
    scores: dict[str, list[float]] = {"valid": [], "not_found": [], "invalid": []}
    for group in dataset.transit_groups:
        member_sum = 0.0
        other_sum = 0.0
        for transit, info in group.transits.items():
            if transit in member_asns:
                member_sum += info.hegemony
            else:
                other_sum += info.hegemony
        score = member_sum - other_sum
        for _, (rpki, _irr) in zip(group.prefixes, group.statuses):
            if rpki is RPKIStatus.VALID:
                scores["valid"].append(score)
            elif rpki is RPKIStatus.NOT_FOUND:
                scores["not_found"].append(score)
            else:
                scores["invalid"].append(score)
    return scores
