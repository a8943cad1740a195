"""Tests for the annual timeline and weekly churn generator."""

from __future__ import annotations

from repro.manrs.actions import Program, action4_threshold
from repro.scenario.timeline import Timeline, weekly_member_conformance


class TestAnnualTimeline:
    def test_years_span_config(self, small_world):
        timeline = Timeline(small_world)
        assert timeline.years[0] == small_world.config.first_year
        assert timeline.years[-1] == small_world.snapshot_date.year

    def test_growth_monotone(self, small_world):
        points = Timeline(small_world).growth()
        asns = [p.asns for p in points]
        orgs = [p.organizations for p in points]
        assert asns == sorted(asns)
        assert orgs == sorted(orgs)
        assert asns[-1] == len(small_world.members())

    def test_vrps_grow_over_time(self, small_world):
        timeline = Timeline(small_world)
        counts = [len(timeline.rov_at(year)) for year in timeline.years]
        assert counts == sorted(counts)
        assert counts[-1] == len(small_world.rov)

    def test_members_by_rir_sums_to_total(self, small_world):
        timeline = Timeline(small_world)
        series = timeline.members_by_rir_series()
        final_total = sum(points[-1][1] for points in series.values())
        in_topology = [
            a for a in small_world.members() if a in small_world.topology
        ]
        assert final_total == len(in_topology)

    def test_routed_share_bounded(self, small_world):
        series = Timeline(small_world).routed_share_series()
        for points in series.values():
            for _, share in points:
                assert 0.0 <= share <= 100.0

    def test_saturation_series_monotone_per_population(self, small_world):
        """More ROAs + more members can only raise MANRS saturation noise
        aside; we assert the weaker invariant that the final year matches
        the world's own report."""
        from repro.core.impact import rpki_saturation

        points = Timeline(small_world).saturation_series()
        final = points[-1]
        manrs_report, other_report = rpki_saturation(
            small_world.prefix2as, small_world.rov, small_world.members()
        )
        assert final.manrs_saturation == manrs_report.saturation
        assert final.other_saturation == other_report.saturation


class TestWeeklyChurn:
    def test_shape(self, small_world):
        weekly = weekly_member_conformance(small_world, n_weeks=12, seed=1)
        assert len(weekly.dates) == 12
        assert len(weekly.percentages) == 12
        assert weekly.dates[-1] == small_world.snapshot_date
        assert weekly.dates == sorted(weekly.dates)

    def test_deterministic(self, small_world):
        a = weekly_member_conformance(small_world, seed=4)
        b = weekly_member_conformance(small_world, seed=4)
        assert a.percentages == b.percentages
        assert a.flapped == b.flapped

    def test_non_flapped_ases_are_stable(self, small_world):
        weekly = weekly_member_conformance(small_world, seed=1)
        for asn in weekly.percentages[0]:
            if asn in weekly.flapped:
                continue
            values = {week[asn] for week in weekly.percentages}
            assert len(values) == 1

    def test_flapped_ases_dip_below_threshold(self, small_world):
        weekly = weekly_member_conformance(small_world, seed=1)
        for asn in weekly.flapped:
            threshold = action4_threshold(
                small_world.manrs.program_of(asn, small_world.snapshot_date)
                or Program.ISP
            )
            verdicts = [week[asn] >= threshold for week in weekly.percentages]
            assert not all(verdicts), f"AS{asn} never dipped"
            assert any(verdicts), f"AS{asn} never recovered"

    def test_verdicts_align_with_percentages(self, small_world):
        weekly = weekly_member_conformance(small_world, seed=1)
        for pcts, verdicts in zip(weekly.percentages, weekly.verdicts):
            assert set(pcts) == set(verdicts)


class TestArchiveIntegration:
    def test_to_archive_matches_validators(self, small_world):
        from repro.rpki.rov import ROVValidator
        from repro.scenario.timeline import Timeline

        timeline = Timeline(small_world)
        archive = timeline.to_archive()
        assert len(archive.dates) == len(timeline.years)
        # The final snapshot reproduces the world's validator verbatim.
        final = archive.latest_at(small_world.snapshot_date)
        rebuilt = ROVValidator(list(final))
        assert len(rebuilt) == len(small_world.rov)
        for record in small_world.ihr.prefix_origins()[:50]:
            assert (
                rebuilt.validate(record.prefix, record.origin) is record.rpki
            )

    def test_archive_snapshots_grow(self, small_world):
        from repro.scenario.timeline import Timeline

        archive = Timeline(small_world).to_archive()
        sizes = [len(archive.snapshot(d)) for d in archive.dates]
        assert sizes == sorted(sizes)
