"""Shape tests: the paper's declared findings must hold on mid_world.

Absolute numbers differ from the paper (our substrate is a simulator and
the world is ~7× smaller than the Internet), but every directional claim
the evaluation makes — who wins, which distributions are bimodal, where
the jumps fall — is declared once, as a ``Finding`` next to its
artefact's ``run`` (``repro.experiments.findings``).  This suite states
no statistic and no bound: each test names the findings it checks,
every paper artefact runs once per session, and together the tests name
every declared finding exactly once.
"""

from __future__ import annotations

import re
from datetime import date
from pathlib import Path

import pytest

from repro.delta import LiveWorld
from repro.experiments.registry import REGISTRY, paper_findings
from repro.scenario.build import build_world

#: Finding ids in the order the tests below name them.
NAMED: list[str] = []


@pytest.fixture(scope="session")
def mid_outcomes(mid_world):
    """Every declared finding evaluated on mid_world, keyed by id."""
    return {outcome.finding.id: outcome for outcome in paper_findings(mid_world)}


def shape_test(*ids: str):
    """A test requiring each named finding to be computed and to hold."""
    NAMED.extend(ids)

    def test(self, mid_outcomes):
        failed = [mid_outcomes[i].line() for i in ids if not mid_outcomes[i].passed]
        assert not failed, "; ".join(failed)

    return test


def test_every_declared_finding_is_named_once():
    declared = [finding.id for spec in REGISTRY.values() for finding in spec.findings]
    assert sorted(NAMED) == sorted(declared)
    assert len(set(declared)) == len(declared)


def test_experiments_md_tables_list_every_finding():
    """EXPERIMENTS.md's generated tables (scripts/update_experiments.py)
    carry one row per declared finding, in registry order."""
    text = (Path(__file__).resolve().parent.parent / "EXPERIMENTS.md").read_text()
    rows = re.findall(r"^\| `([\w.]+)` \|", text, re.MULTILINE)
    assert rows == [finding.id for spec in REGISTRY.values() for finding in spec.findings]


def test_findings_that_cannot_be_computed_read_na():
    """At (0.05, 3) no AS is large, and a world observed in 2021 has no
    2022: those findings read n/a and fail, and nothing raises."""
    world = build_world(scale=0.05, seed=3)
    outcomes = {o.finding.id: o for o in paper_findings(world)}
    assert sorted(outcomes) == sorted(NAMED)
    irr = outcomes["fig5.large_irr_median_manrs_vs_non"]
    assert irr.measured is None and not irr.passed
    assert "n/a" in irr.line()
    live = LiveWorld(world)
    live.advance_to(date(2021, 6, 1))
    dated = {o.finding.id: o for o in paper_findings(live.world())}
    assert dated["fig4.lacnic_as_wave_2020"].measured is None


class TestFig2Growth:
    test_monotone_and_2020_wave = shape_test("fig2.orgs_monotone", "fig2.largest_org_jump_year")


class TestFig4Participation:
    test_lacnic_wave_2020 = shape_test("fig4.lacnic_as_wave_2020")
    test_apnic_space_jump_2020 = shape_test("fig4.apnic_space_jump_2020")
    test_lacnic_wave_brings_little_space = shape_test("fig4.lacnic_space_below_apnic_2020")


class TestF70Completeness:
    test_most_orgs_fully_registered_but_not_all = shape_test(
        "f70.all_asns_registered", "f70.space_vs_asns", "f70.partial_announcers"
    )
    test_some_orgs_announce_only_from_unregistered = shape_test(
        "f70.only_unregistered", "f70.only_unregistered_within_partial"
    )


class TestFig5Origination:
    test_small_rpki_bimodal = shape_test("fig5.small_rpki_bimodal")
    test_small_manrs_more_likely_all_valid = shape_test(
        "fig5.small_all_valid_manrs_vs_non", "fig5.small_no_valid_non_vs_manrs"
    )
    test_medium_manrs_more_likely_all_valid = shape_test("fig5.medium_all_valid_manrs_vs_non")
    test_rpki_median_ordering = shape_test(
        "fig5.small_rpki_median_manrs_vs_non", "fig5.medium_rpki_median_manrs_vs_non"
    )
    test_large_manrs_irr_validity_lower = shape_test("fig5.large_irr_median_manrs_vs_non")
    test_small_medium_irr_similar = shape_test("fig5.small_irr_median_gap")
    test_irr_only_registration_skews_non_manrs = shape_test(
        "fig5.small_irr_only_non_vs_manrs", "fig5.medium_irr_only_non_vs_manrs"
    )
    test_small_manrs_rarely_originates_invalid = shape_test(
        "fig5.small_manrs_invalid_originators", "fig5.large_vs_small_non_invalid_originators"
    )


class TestF83Action4:
    test_isp_conformance_level = shape_test(
        "f83.isp_conformant_pct", "f83.isp_unconformant", "f83.isp_trivially_conformant"
    )
    test_cdn_conformance_level = shape_test(
        "f83.cdn_members", "f83.cdn_unconformant", "f83.cdn_conformant_pct"
    )


class TestTab1CaseStudies:
    test_rows_exist_and_attribute = shape_test(
        "tab1.rows", "tab1.cdn_rows", "tab1.cdn_rows_unattributed"
    )
    test_majority_sibling_cp = shape_test("tab1.attributed", "tab1.sibling_cp_majority")
    test_rpki_invalid_is_minority = shape_test("tab1.irr_over_rpki_invalid")
    test_isp1_has_some_rpki_invalid = shape_test("tab1.isp_rpki_invalid")


class TestF87Stability:
    test_stable_majority = shape_test(
        "f87.always_conformant_majority", "f87.always_unconformant", "f87.flapping_slack"
    )
    test_flapping_matches_injected_churn = shape_test("f87.flapping_outside_churn")


class TestFig6Saturation:
    test_manrs_saturation_higher_and_jump_2020 = shape_test(
        "fig6.manrs_vs_other_2022", "fig6.manrs_2022", "fig6.largest_jump_year",
        "fig6.jump_2020", "fig6.rise_2019_2022",
    )


class TestFig7Filtering:
    test_small_ases_propagate_almost_no_invalids = shape_test("fig7.small_zero_rpki_invalid")
    test_invalid_share_is_small_everywhere = shape_test("fig7.max_rpki_invalid_share")
    test_large_ases_see_invalids = shape_test("fig7.large_non_zero_rpki_invalid")
    test_irr_invalid_propagation_widespread_for_large = shape_test(
        "fig7.large_manrs_irr_invalid", "fig7.large_non_irr_invalid",
        "fig7.large_irr_tail_non_vs_manrs",
    )


class TestFig8Tab2Action1:
    test_no_large_manrs_fully_conformant = shape_test(
        "tab2.large_transit", "tab2.large_transit_conformant"
    )
    test_small_manrs_mostly_conformant = shape_test(
        "tab2.small_transit_pct", "tab2.small_total_pct"
    )
    test_medium_in_between = shape_test("tab2.medium_transit_pct")
    test_most_small_members_provide_no_transit = shape_test("tab2.small_transit_minority")
    test_large_manrs_unconformant_share_bounded = shape_test(
        "fig8.large_manrs_transit", "fig8.large_manrs_max", "fig8.large_manrs_median",
        "fig8.small_manrs_median",
    )


class TestFig9Preference:
    test_invalids_avoid_manrs_transit = shape_test(
        "fig9.invalid_vs_valid", "fig9.invalid_vs_not_found"
    )
    test_valid_and_notfound_similar = shape_test("fig9.valid_vs_not_found")
