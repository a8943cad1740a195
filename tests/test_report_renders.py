"""Tests for the conformance summaries and every experiment's render()."""

from __future__ import annotations

from repro import experiments as ex
from repro.manrs.actions import Program
from repro.topology.classify import SizeClass


class TestConformanceSummaries:
    """Findings 8.3/8.4's and Table 2's ``run`` results add up."""

    def test_action4_totals_add_up(self, small_world):
        summaries = ex.f83_action4.run(small_world)
        for program in (Program.ISP, Program.CDN):
            summary = summaries[program]
            assert (
                summary.conformant + len(summary.unconformant_asns)
                == summary.total_members
            )
            assert summary.trivially_conformant <= summary.conformant

    def test_action1_totals_add_up(self, small_world):
        summaries = ex.tab2_action1.run(small_world)
        for size in SizeClass:
            summary = summaries[size]
            assert summary.transit_conformant <= summary.transit_total
            assert summary.total_conformant <= summary.total_members
            assert summary.transit_total <= summary.total_members

    def test_action1_members_partition_by_size(self, small_world):
        summaries = ex.tab2_action1.run(small_world)
        in_topology = sum(
            1 for a in small_world.members() if a in small_world.topology
        )
        assert (
            sum(s.total_members for s in summaries.values()) == in_topology
        )

    def test_empty_summaries_render_without_division_errors(self):
        from repro.core.report import Action1Summary, Action4Summary

        empty4 = Action4Summary(program=Program.ISP)
        assert empty4.pct_conformant == 100.0
        empty1 = Action1Summary(size=SizeClass.LARGE)
        assert empty1.pct_transit_conformant == 100.0
        assert empty1.pct_total_conformant == 100.0


class TestExperimentRenders:
    """Every experiment's render() must produce its table header."""

    def test_fig2(self, small_world):
        text = ex.fig2_growth.render(ex.fig2_growth.run(small_world))
        assert "2015" in text and "2022" in text

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
