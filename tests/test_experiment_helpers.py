"""Unit tests for experiment plumbing: group_metric, case-study targets,
and World convenience accessors."""

from __future__ import annotations

from repro.experiments.common import POPULATIONS, group_metric
from repro.experiments.tab1_casestudies import case_study_targets


class TestGroupMetric:
    def test_groups_cover_all_known_ases(self, small_world):
        per_as = {asn: float(asn % 7) for asn in small_world.topology.asns}
        cdfs = group_metric(small_world, per_as, lambda value: value)
        assert set(cdfs) == set(POPULATIONS)
        assert sum(cdf.n for cdf in cdfs.values()) == len(per_as)

    def test_unknown_ases_skipped(self, small_world):
        per_as = {999999: 1.0}
        cdfs = group_metric(small_world, per_as, lambda value: value)
        assert sum(cdf.n for cdf in cdfs.values()) == 0

    def test_metric_applied(self, small_world):
        asn = small_world.topology.asns[0]
        cdfs = group_metric(small_world, {asn: 10.0}, lambda v: v * 2)
        population = (
            small_world.size_of[asn],
            asn in small_world.members(),
        )
        assert cdfs[population].values == (20.0,)


class TestCaseStudyTargets:
    def test_labels_and_membership(self, mid_world):
        targets = case_study_targets(mid_world)
        labels = [label for label, _ in targets]
        assert labels[:3] == ["CDN1", "CDN2", "CDN3"]
        assert any(label.startswith("ISP") for label in labels)
        members = mid_world.members()
        for _, asns in targets:
            assert asns
            assert all(asn in members for asn in asns)

    def test_isp_targets_are_distinct_orgs(self, mid_world):
        targets = case_study_targets(mid_world)
        isp_orgs = [
            mid_world.topology.get_as(asns[0]).org_id
            for label, asns in targets
            if label.startswith("ISP")
        ]
        assert len(isp_orgs) == len(set(isp_orgs))


class TestWorldAccessors:
    def test_all_announcements_counts(self, small_world):
        total = sum(
            len(origs) for origs in small_world.originations.values()
        )
        assert small_world.all_announcements() == total

    def test_members_defaults_to_snapshot(self, small_world):
        assert small_world.members() == small_world.manrs.member_asns(
            as_of=small_world.snapshot_date
        )

    def test_is_member_matches_set(self, small_world):
        members = small_world.members()
        some_member = next(iter(members))
        assert small_world.is_member(some_member)
        non_member = next(
            asn for asn in small_world.topology.asns if asn not in members
        )
        assert not small_world.is_member(non_member)
