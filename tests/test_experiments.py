"""Shape tests: the paper's qualitative results must hold on mid_world.

Absolute numbers differ from the paper (our substrate is a simulator and
the world is ~7× smaller than the Internet), but every directional claim
the evaluation makes — who wins, which distributions are bimodal, where
the jumps fall — is asserted here with tolerant bounds.  Each test cites
the finding it reproduces.
"""

from __future__ import annotations

import pytest

from repro import experiments as ex
from repro.manrs.actions import Program
from repro.registry.rir import RIR
from repro.topology.classify import SizeClass

SMALL_M = (SizeClass.SMALL, True)
SMALL_N = (SizeClass.SMALL, False)
MEDIUM_M = (SizeClass.MEDIUM, True)
MEDIUM_N = (SizeClass.MEDIUM, False)
LARGE_M = (SizeClass.LARGE, True)
LARGE_N = (SizeClass.LARGE, False)


class TestFig2Growth:
    def test_monotone_and_2020_wave(self, mid_world):
        points = ex.fig2_growth.run(mid_world)
        orgs = [p.organizations for p in points]
        assert orgs == sorted(orgs)
        increments = [b - a for a, b in zip(orgs, orgs[1:])]
        years = [p.year for p in points][1:]
        assert years[increments.index(max(increments))] == 2020

    def test_render_mentions_years(self, mid_world):
        text = ex.fig2_growth.render(ex.fig2_growth.run(mid_world))
        assert "2015" in text and "2022" in text


class TestFig4Participation:
    def test_lacnic_wave_2020(self, mid_world):
        """Figure 4a: the NIC.br outreach adds many LACNIC ASes in 2020."""
        result = ex.fig4_participation.run(mid_world)
        jump = result.ases_in(RIR.LACNIC, 2020) - result.ases_in(RIR.LACNIC, 2019)
        other_years = [
            result.ases_in(RIR.LACNIC, y + 1) - result.ases_in(RIR.LACNIC, y)
            for y in (2015, 2016, 2017, 2018, 2020, 2021)
        ]
        assert jump > max(other_years)

    def test_apnic_space_jump_2020(self, mid_world):
        """Figure 4b: the flagship transit (China Telecom analogue) makes
        APNIC space jump in 2020."""
        result = ex.fig4_participation.run(mid_world)
        jump = result.share_in(RIR.APNIC, 2020) - result.share_in(RIR.APNIC, 2019)
        assert jump > 1.0  # percentage points of the whole v4 table

    def test_lacnic_wave_brings_little_space(self, mid_world):
        """§7: the Brazilian ASes contributed little address space."""
        result = ex.fig4_participation.run(mid_world)
        space_jump = result.share_in(RIR.LACNIC, 2020) - result.share_in(
            RIR.LACNIC, 2019
        )
        apnic_jump = result.share_in(RIR.APNIC, 2020) - result.share_in(
            RIR.APNIC, 2019
        )
        assert space_jump < apnic_jump


class TestF70Completeness:
    def test_most_orgs_fully_registered_but_not_all(self, mid_world):
        """Finding 7.0: ~70% all-ASNs, ~82% all-space."""
        report = ex.f70_completeness.run(mid_world)
        assert 0.55 <= report.pct_all_asns / 100 <= 0.90
        assert report.pct_all_space >= report.pct_all_asns
        assert report.partial_announcers > 0

    def test_some_orgs_announce_only_from_unregistered(self, mid_world):
        """The paper found 8 of 117 partial orgs announcing exclusively
        from non-member ASes."""
        report = ex.f70_completeness.run(mid_world)
        assert report.only_unregistered_announcers >= 0
        assert report.only_unregistered_announcers <= report.partial_announcers


class TestFig5Origination:
    def test_small_rpki_bimodal(self, mid_world):
        """Finding 8.1: small-AS RPKI validity is bimodal."""
        modes = ex.fig5_origination.run(mid_world).modes
        for population in (SMALL_M, SMALL_N):
            mode = modes[population]
            assert mode.only_rpki_valid + mode.no_rpki_valid > 0.75

    def test_small_manrs_more_likely_all_valid(self, mid_world):
        """Finding 8.1: small MANRS ~2.5x likelier to be all-RPKI-valid."""
        modes = ex.fig5_origination.run(mid_world).modes
        assert modes[SMALL_M].only_rpki_valid > 1.8 * modes[SMALL_N].only_rpki_valid
        assert modes[SMALL_N].no_rpki_valid > 1.8 * modes[SMALL_M].no_rpki_valid

    def test_medium_manrs_more_likely_all_valid(self, mid_world):
        modes = ex.fig5_origination.run(mid_world).modes
        assert modes[MEDIUM_M].only_rpki_valid > 1.4 * modes[MEDIUM_N].only_rpki_valid

    def test_rpki_median_ordering(self, mid_world):
        result = ex.fig5_origination.run(mid_world)
        assert result.rpki_cdf[SMALL_M].median > result.rpki_cdf[SMALL_N].median
        assert result.rpki_cdf[MEDIUM_M].median > result.rpki_cdf[MEDIUM_N].median

    def test_large_manrs_irr_validity_lower(self, mid_world):
        """Finding 8.2: large MANRS ASes are *less* IRR-valid than large
        non-MANRS (their IRR records rot once they adopt RPKI)."""
        result = ex.fig5_origination.run(mid_world)
        assert (
            result.irr_cdf[LARGE_M].median
            < result.irr_cdf[LARGE_N].median
        )

    def test_small_medium_irr_similar(self, mid_world):
        """§8.2: small/medium MANRS and non-MANRS alike on IRR validity."""
        result = ex.fig5_origination.run(mid_world)
        assert abs(
            result.irr_cdf[SMALL_M].median - result.irr_cdf[SMALL_N].median
        ) < 25.0

    def test_irr_only_registration_skews_non_manrs(self, mid_world):
        """§8.2: non-MANRS far likelier to register only in the IRR."""
        modes = ex.fig5_origination.run(mid_world).modes
        assert modes[SMALL_N].irr_only_registration > 2 * modes[SMALL_M].irr_only_registration
        assert modes[MEDIUM_N].irr_only_registration > 1.5 * modes[MEDIUM_M].irr_only_registration

    def test_small_manrs_rarely_originates_invalid(self, mid_world):
        """§8.1: (almost) no small MANRS AS originates RPKI Invalid —
        the only exceptions are the ISP1-analogue's forgotten ROAs."""
        modes = ex.fig5_origination.run(mid_world).modes
        assert modes[SMALL_M].originates_rpki_invalid < 0.02
        assert modes[LARGE_N].originates_rpki_invalid >= modes[SMALL_N].originates_rpki_invalid


class TestF83Action4:
    def test_isp_conformance_level(self, mid_world):
        """Finding 8.4: ~95% of MANRS ISPs conformant."""
        summaries = ex.f83_action4.run(mid_world)
        isp = summaries[Program.ISP]
        assert 88.0 <= isp.pct_conformant <= 99.5
        assert isp.unconformant_asns  # but not all conformant
        assert isp.trivially_conformant > 0  # quiescent member ASNs

    def test_cdn_conformance_level(self, mid_world):
        """Finding 8.3: most CDNs conformant, a few big ones barely not."""
        summaries = ex.f83_action4.run(mid_world)
        cdn = summaries[Program.CDN]
        assert cdn.total_members >= 5
        assert 1 <= len(cdn.unconformant_asns) <= 4
        assert 60.0 <= cdn.pct_conformant <= 97.0


class TestTab1CaseStudies:
    def test_rows_exist_and_attribute(self, mid_world):
        rows = ex.tab1_casestudies.run(mid_world)
        assert len(rows) == 6  # 3 CDNs + 3 ISP orgs
        cdn_rows = [row for row in rows if row.label.startswith("CDN")]
        assert len(cdn_rows) == 3
        for row in cdn_rows:
            assert row.total_attributed >= 1

    def test_majority_sibling_cp(self, mid_world):
        """Finding 8.5: >50% of mismatching origins are sibling/C-P."""
        rows = ex.tab1_casestudies.run(mid_world)
        attributed = sum(row.total_attributed for row in rows)
        sibling_cp = sum(
            row.rpki_sibling_cp + row.irr_sibling_cp for row in rows
        )
        assert attributed > 0
        assert sibling_cp / attributed > 0.5

    def test_rpki_invalid_is_minority(self, mid_world):
        """Finding 8.5: ~1% of case-study invalids were RPKI Invalid;
        here we just require IRR-invalid to dominate."""
        rows = ex.tab1_casestudies.run(mid_world)
        rpki_total = sum(row.rpki_invalid for row in rows)
        irr_total = sum(row.irr_invalid for row in rows)
        assert irr_total > rpki_total

    def test_isp1_has_some_rpki_invalid(self, mid_world):
        """The ISP1 analogue carries the forgotten-ROA misconfigs."""
        rows = ex.tab1_casestudies.run(mid_world)
        isp_rows = [row for row in rows if row.label.startswith("ISP")]
        assert sum(row.rpki_invalid for row in isp_rows) >= 1


class TestF87Stability:
    def test_stable_majority(self, mid_world):
        """Finding 8.7: most member ASes keep their verdict all weeks."""
        result = ex.f87_stability.run(mid_world, seed=3)
        report = result.report
        total = len(report.classification)
        assert report.always_conformant / total > 0.8
        assert report.always_unconformant >= 1
        assert 1 <= report.flapping <= max(2, int(0.06 * total))

    def test_flapping_matches_injected_churn(self, mid_world):
        result = ex.f87_stability.run(mid_world, seed=3)
        flapping_asns = {
            asn
            for asn, verdict in result.report.classification.items()
            if verdict.value == "flapping"
        }
        assert flapping_asns <= set(result.weekly.flapped)


class TestFig6Saturation:
    def test_manrs_saturation_higher_and_jump_2020(self, mid_world):
        """Finding 8.8 + Figure 6: MANRS ~2x non-MANRS, post-2020 jump
        from the CDN program."""
        points = ex.fig6_saturation.run(mid_world)
        final = points[-1]
        assert final.manrs_saturation > 1.5 * final.other_saturation
        # Paper: 58.2% in May 2022; legacy space caps it.
        assert 40.0 <= final.manrs_saturation <= 80.0
        by_year = {p.year: p.manrs_saturation for p in points}
        increments = {
            year: by_year[year] - by_year[year - 1]
            for year in range(2016, 2023)
        }
        assert max(increments, key=increments.get) == 2020
        assert increments[2020] > 8.0
        assert by_year[2022] > by_year[2019] + 15.0


class TestFig7Filtering:
    def test_small_ases_propagate_almost_no_invalids(self, mid_world):
        """§9.1: ~99% of small ASes propagate zero RPKI-Invalids."""
        result = ex.fig7_filtering.run(mid_world)
        for population in (SMALL_M, SMALL_N):
            assert result.rpki_cdf[population].fraction_at_most(0.0) > 0.9

    def test_invalid_share_is_small_everywhere(self, mid_world):
        """RPKI-Invalids are <1% of the table, so propagation shares stay
        in the single digits (Figure 7a's x-axis tops out at 2%)."""
        result = ex.fig7_filtering.run(mid_world)
        for population, cdf in result.rpki_cdf.items():
            if cdf.n:
                assert cdf.maximum < 12.0, population

    def test_large_ases_see_invalids(self, mid_world):
        """Large transits carry most of the table, so non-filtering ones
        inevitably propagate some invalids."""
        result = ex.fig7_filtering.run(mid_world)
        assert result.rpki_cdf[LARGE_N].fraction_at_most(0.0) < 1.0

    def test_irr_invalid_propagation_widespread_for_large(self, mid_world):
        """Figure 7b: every large AS propagates some IRR-Invalids, and
        the non-MANRS tail is heavier than the MANRS middle."""
        result = ex.fig7_filtering.run(mid_world)
        assert result.irr_cdf[LARGE_M].maximum > 0.0
        assert result.irr_cdf[LARGE_N].maximum > 0.0
        assert result.irr_cdf[LARGE_N].maximum > result.irr_cdf[LARGE_M].median


class TestFig8Tab2Action1:
    def test_no_large_manrs_fully_conformant(self, mid_world):
        """Table 2: 0% of large MANRS ASes fully Action 1 conformant."""
        summaries = ex.tab2_action1.run(mid_world)
        large = summaries[SizeClass.LARGE]
        assert large.transit_total > 0
        assert large.transit_conformant == 0

    def test_small_manrs_mostly_conformant(self, mid_world):
        """Table 2: 97.1% of small transit MANRS ASes conformant."""
        summaries = ex.tab2_action1.run(mid_world)
        small = summaries[SizeClass.SMALL]
        assert small.pct_transit_conformant > 88.0
        assert small.pct_total_conformant > 95.0

    def test_medium_in_between(self, mid_world):
        summaries = ex.tab2_action1.run(mid_world)
        medium = summaries[SizeClass.MEDIUM]
        assert 40.0 < medium.pct_transit_conformant < 90.0

    def test_most_small_members_provide_no_transit(self, mid_world):
        """§9.3: only 23% of small MANRS ASes provided transit."""
        summaries = ex.tab2_action1.run(mid_world)
        small = summaries[SizeClass.SMALL]
        assert small.transit_total < 0.5 * small.total_members

    def test_large_manrs_unconformant_share_bounded(self, mid_world):
        """Figure 8: every large MANRS AS below 15% unconformant, with a
        low single-digit median (2.5% in the paper); small MANRS ASes
        propagate essentially nothing unconformant."""
        cdfs = ex.fig8_unconformant.run(mid_world)
        assert cdfs[LARGE_M].n > 0
        assert cdfs[LARGE_M].maximum < 15.0
        assert cdfs[LARGE_M].median < 8.0
        assert cdfs[SMALL_M].median == 0.0


class TestFig9Preference:
    def test_invalids_avoid_manrs_transit(self, mid_world):
        """Finding 9.4: RPKI Invalid announcements are markedly less
        likely to cross MANRS networks than Valid/NotFound ones."""
        cdfs = ex.fig9_preference.run(mid_world)
        invalid = cdfs["invalid"].fraction_above(0.0)
        valid = cdfs["valid"].fraction_above(0.0)
        not_found = cdfs["not_found"].fraction_above(0.0)
        assert invalid < valid - 0.10
        assert invalid < not_found - 0.10

    def test_valid_and_notfound_similar(self, mid_world):
        """§9.4: Valid and NotFound propagate alike (ROV ignores both)."""
        cdfs = ex.fig9_preference.run(mid_world)
        assert abs(
            cdfs["valid"].fraction_above(0.0)
            - cdfs["not_found"].fraction_above(0.0)
        ) < 0.15
