"""Tests for the ecosystem report and every experiment's render()."""

from __future__ import annotations

import pytest

from repro import experiments as ex
from repro.core.report import build_report, render_report
from repro.manrs.actions import Program
from repro.topology.classify import SizeClass


class TestEcosystemReport:
    @pytest.fixture(scope="class")
    def report(self, small_world):
        return build_report(small_world)

    def test_membership_counts(self, small_world, report):
        assert report.n_ases == len(small_world.topology)
        assert report.n_member_ases == len(small_world.members())
        assert report.n_member_orgs <= report.n_member_ases

    def test_action4_totals_add_up(self, small_world, report):
        for program in (Program.ISP, Program.CDN):
            summary = report.action4[program]
            assert (
                summary.conformant + len(summary.unconformant_asns)
                == summary.total_members
            )
            assert summary.trivially_conformant <= summary.conformant

    def test_action1_totals_add_up(self, report):
        for size in SizeClass:
            summary = report.action1[size]
            assert summary.transit_conformant <= summary.transit_total
            assert summary.total_conformant <= summary.total_members
            assert summary.transit_total <= summary.total_members

    def test_split_sections_match_report(self, small_world, report):
        # f83 and tab2 compute only their own section; the full report
        # composes the same section functions, so the two cannot drift.
        assert ex.f83_action4.run(small_world) == report.action4
        assert ex.tab2_action1.run(small_world) == report.action1

    def test_action1_members_partition_by_size(self, small_world, report):
        in_topology = sum(
            1 for a in small_world.members() if a in small_world.topology
        )
        assert (
            sum(s.total_members for s in report.action1.values())
            == in_topology
        )

    def test_saturation_bounds(self, report):
        assert 0 <= report.saturation_manrs <= 100
        assert 0 <= report.saturation_other <= 100
        assert 0 <= report.irr_coverage_manrs <= 100

    def test_preference_fractions_bounded(self, report):
        for fraction in report.preference_positive.values():
            assert 0.0 <= fraction <= 1.0

    def test_render_contains_sections(self, report):
        text = render_report(report)
        for marker in (
            "Participation",
            "Action 4",
            "Action 1",
            "Impact",
            "RPKI saturation",
        ):
            assert marker in text

    def test_empty_summaries_render_without_division_errors(self):
        from repro.core.report import Action1Summary, Action4Summary

        empty4 = Action4Summary(program=Program.ISP)
        assert empty4.pct_conformant == 100.0
        empty1 = Action1Summary(size=SizeClass.LARGE)
        assert empty1.pct_transit_conformant == 100.0
        assert empty1.pct_total_conformant == 100.0


class TestExperimentRenders:
    """Every experiment's render() must produce its table header."""

    def test_fig4(self, small_world):
        text = ex.fig4_participation.render(ex.fig4_participation.run(small_world))
        assert "Figure 4a" in text and "Figure 4b" in text

    def test_f70(self, small_world):
        text = ex.f70_completeness.render(ex.f70_completeness.run(small_world))
        assert "Finding 7.0" in text

    def test_fig5(self, small_world):
        text = ex.fig5_origination.render(ex.fig5_origination.run(small_world))
        assert "Figure 5" in text and "small MANRS" in text

    def test_f83(self, small_world):
        text = ex.f83_action4.render(ex.f83_action4.run(small_world))
        assert "ISP" in text and "CDN" in text

    def test_tab1(self, small_world):
        text = ex.tab1_casestudies.render(ex.tab1_casestudies.run(small_world))
        assert "Table 1" in text

    def test_f87(self, small_world):
        text = ex.f87_stability.render(ex.f87_stability.run(small_world))
        assert "Finding 8.7" in text

    def test_fig6(self, small_world):
        text = ex.fig6_saturation.render(ex.fig6_saturation.run(small_world))
        assert "Figure 6" in text and "2022" in text

    def test_fig7(self, small_world):
        text = ex.fig7_filtering.render(ex.fig7_filtering.run(small_world))
        assert "Figure 7" in text

    def test_fig8(self, small_world):
        text = ex.fig8_unconformant.render(ex.fig8_unconformant.run(small_world))
        assert "Figure 8" in text

    def test_tab2(self, small_world):
        text = ex.tab2_action1.render(ex.tab2_action1.run(small_world))
        assert "Table 2" in text

    def test_fig9(self, small_world):
        text = ex.fig9_preference.render(ex.fig9_preference.run(small_world))
        assert "Figure 9" in text

    def test_population_label(self):
        from repro.experiments.common import population_label

        assert population_label(SizeClass.LARGE, False) == "large non-MANRS"
        assert population_label(SizeClass.SMALL, True) == "small MANRS"

    def test_world_cache_reuses(self):
        from repro.experiments.common import world_cache

        first = world_cache(scale=0.05, seed=31)
        second = world_cache(scale=0.05, seed=31)
        assert first is second
