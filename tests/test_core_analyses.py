"""Unit tests for participation, impact, case-study, stability, stats."""

from __future__ import annotations

import pytest

from repro.core.impact import (
    SaturationReport,
    irr_coverage,
    preference_scores,
    rpki_saturation,
)
from repro.core.stability import (
    StabilityClass,
    conformance_stability,
)
from repro.core.stats import make_cdf
from repro.ihr.records import RPKI_STATUSES, IHRDataset
from repro.irr.validation import IRRStatus
from repro.net.prefix import Prefix, aggregate_address_count
from repro.rpki.rov import RPKIStatus
from tests.ihr_tables import ihr_dataset


class TestCDF:
    def test_fractions(self):
        cdf = make_cdf([0.0, 1.0, 2.0, 3.0])
        assert cdf.n == 4
        assert cdf.fraction_at_most(1.0) == pytest.approx(0.5)
        assert cdf.fraction_above(1.0) == pytest.approx(0.5)
        assert cdf.fraction_at_most(-1.0) == 0.0
        assert cdf.fraction_at_most(99.0) == 1.0

    def test_percentiles(self):
        cdf = make_cdf([10.0, 20.0, 30.0])
        assert cdf.median == pytest.approx(20.0)
        assert cdf.maximum == 30.0
        assert cdf.mean == pytest.approx(20.0)

    def test_variance(self):
        assert make_cdf([0.0, 10.0]).variance == pytest.approx(25.0)

    def test_empty_cdf(self):
        cdf = make_cdf([])
        assert cdf.fraction_at_most(1.0) == 0.0
        with pytest.raises(ValueError):
            cdf.median

    def test_series(self):
        cdf = make_cdf([5.0, 1.0])
        assert cdf.series() == [(1.0, 0.5), (5.0, 1.0)]


class TestStability:
    def test_classification(self):
        snapshots = [
            {1: True, 2: False, 3: True},
            {1: True, 2: False, 3: False},
        ]
        report = conformance_stability(snapshots)
        assert report.classification[1] is StabilityClass.ALWAYS_CONFORMANT
        assert report.classification[2] is StabilityClass.ALWAYS_UNCONFORMANT
        assert report.classification[3] is StabilityClass.FLAPPING
        assert report.always_conformant == 1
        assert report.always_unconformant == 1
        assert report.flapping == 1

    def test_partial_presence(self):
        snapshots = [{1: True}, {2: False}]
        report = conformance_stability(snapshots)
        assert report.classification[1] is StabilityClass.ALWAYS_CONFORMANT
        assert report.classification[2] is StabilityClass.ALWAYS_UNCONFORMANT

    def test_requires_snapshots(self):
        with pytest.raises(ValueError):
            conformance_stability([])


def _dataset_with_groups() -> IHRDataset:
    prefix_a = Prefix.parse("12.0.0.0/16")
    prefix_b = Prefix.parse("12.1.0.0/16")
    return ihr_dataset(
        [
            (
                100,
                10,
                [(prefix_a, RPKIStatus.VALID, IRRStatus.VALID)],
                [(1, 1.0, True), (2, 0.4, False)],  # member, other
            ),
            (
                101,
                4,
                [(prefix_b, RPKIStatus.INVALID_ASN, IRRStatus.NOT_FOUND)],
                [(2, 0.9, True)],
            ),
        ]
    )


class TestPreferenceScores:
    def test_scores_by_status(self):
        scores = preference_scores(_dataset_with_groups(), frozenset({1}))
        assert scores["valid"] == [pytest.approx(0.6)]
        assert scores["invalid"] == [pytest.approx(-0.9)]
        assert scores["not_found"] == []

    def test_sums_run_left_to_right_in_transit_order(self, small_world):
        """Each score sums its group's hegemonies in transit order, so the
        Figure 9 series are bit-identical to a per-row reference (float
        addition is not associative)."""
        members = small_world.members()
        columns = small_world.ihr.arrays
        prefix_offsets = columns["tg_offsets"].tolist()
        transit_offsets = columns["tr_offsets"].tolist()
        rows = list(
            zip(columns["tr_asn"].tolist(), columns["tr_hegemony"].tolist())
        )
        series = {
            RPKIStatus.VALID: "valid",
            RPKIStatus.NOT_FOUND: "not_found",
        }
        reference = {"valid": [], "not_found": [], "invalid": []}
        for group in range(len(prefix_offsets) - 1):
            transits = rows[transit_offsets[group]:transit_offsets[group + 1]]
            score = sum(h for asn, h in transits if asn in members) - sum(
                h for asn, h in transits if asn not in members
            )
            for row in range(prefix_offsets[group], prefix_offsets[group + 1]):
                status = RPKI_STATUSES[int(columns["tg_rpki"][row])]
                reference[series.get(status, "invalid")].append(score)
        assert preference_scores(small_world.ihr, members) == reference


class TestSaturation:
    def test_split_by_membership(self, small_world):
        members = small_world.members()
        manrs_report, other_report = rpki_saturation(
            small_world.prefix2as, small_world.rov, members
        )
        assert manrs_report.routed_space > 0
        assert other_report.routed_space > 0
        assert 0 <= manrs_report.saturation <= 100
        assert 0 <= other_report.saturation <= 100
        assert manrs_report.covered_space <= manrs_report.routed_space

    def test_irr_coverage_bounds(self, small_world):
        for report in irr_coverage(small_world.prefix2as, small_world.irr, small_world.members()):
            assert 0 <= report.saturation <= 100

    @pytest.mark.parametrize("members", ["manrs", "half"])
    def test_irr_coverage_matches_the_per_prefix_loop(self, small_world, members):
        """The interval-index reduction gives the exact routed and
        covered space of one covering lookup per routed v4 prefix."""
        member_asns = small_world.members()
        if members == "half":
            member_asns = frozenset(sorted(small_world.prefix2as.origin_asns)[::2])
        reports = irr_coverage(small_world.prefix2as, small_world.irr, member_asns)
        reference = _irr_coverage_python(
            small_world.prefix2as, small_world.irr, member_asns
        )
        assert reports == reference
        assert all(report.covered_space > 0 for report in reports)


def _irr_coverage_python(prefix2as, irr, member_asns):
    """The per-prefix reference for ``irr_coverage``: one covering
    lookup per routed v4 prefix of each population."""
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
