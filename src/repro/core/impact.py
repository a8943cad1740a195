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
from repro.ihr.records import RPKI_STATUSES, IHRDataset
from repro.irr.database import IRRCollection, IRRDatabase
from repro.irr.validation import interval_index
from repro.kernels.intervals import (
    RouteIntervalIndex,
    _sorted_contains,
    union_address_count,
)
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
    """(MANRS, non-MANRS) saturation over the routed IPv4 table."""
    return _coverage(prefix2as, rov.interval_index(), member_asns)


def irr_coverage(
    prefix2as: Prefix2AS,
    irr: IRRCollection | IRRDatabase,
    member_asns: frozenset[int],
) -> tuple[SaturationReport, SaturationReport]:
    """Like :func:`rpki_saturation` but for IRR route-object coverage
    (the §8.6 comparison: 95.0% of MANRS vs 84.6% of non-MANRS space)."""
    return _coverage(prefix2as, interval_index(irr), member_asns)


def _coverage(
    prefix2as: Prefix2AS,
    index: RouteIntervalIndex,
    member_asns: frozenset[int],
) -> tuple[SaturationReport, SaturationReport]:
    """(MANRS, non-MANRS) routed v4 space and the part ``index`` covers.

    Columnar: per-population sweeps over presorted rows.  The
    routed/covered address counts are unions of integer intervals, so
    they only depend on which rows each population selects, not on
    bucket assembly order — the presorted columns plus boolean masks
    yield the exact integers of the per-prefix bucket loops
    ``tests/test_kernels.py`` and ``tests/test_core_analyses.py`` keep
    as the oracles.
    """
    cols = prefix2as.v4_columns()
    covered = index.covers_v4(cols.unique_values, cols.unique_lengths)[
        cols.unique_inverse
    ]
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


def preference_scores(
    dataset: IHRDataset,
    member_asns: frozenset[int],
) -> dict[str, list[float]]:
    """MANRS preference score per prefix-origin, grouped by RPKI status.

    Returns ``{"valid": [...], "not_found": [...], "invalid": [...]}`` —
    the paper folds both invalid flavours into one Figure 9 series.  A
    group's hegemonies are summed left to right in transit order.
    """
    scores: dict[str, list[float]] = {"valid": [], "not_found": [], "invalid": []}
    names = {RPKIStatus.VALID: "valid", RPKIStatus.NOT_FOUND: "not_found"}
    series = [scores[names.get(status, "invalid")] for status in RPKI_STATUSES]
    columns = dataset.arrays
    rpki = columns["tg_rpki"].tolist()
    prefix_offsets = columns["tg_offsets"].tolist()
    transit_offsets = columns["tr_offsets"].tolist()
    transits = columns["tr_asn"].tolist()
    hegemony = columns["tr_hegemony"].tolist()
    for group in range(len(prefix_offsets) - 1):
        member_sum = 0.0
        other_sum = 0.0
        for row in range(transit_offsets[group], transit_offsets[group + 1]):
            if transits[row] in member_asns:
                member_sum += hegemony[row]
            else:
                other_sum += hegemony[row]
        score = member_sum - other_sum
        for row in range(prefix_offsets[group], prefix_offsets[group + 1]):
            series[rpki[row]].append(score)
    return scores
