"""Tests for scenario configurability: behaviour/recruitment overrides."""

from __future__ import annotations

from repro.manrs.recruitment import RecruitmentConfig
from repro.scenario.build import build_world
from repro.scenario.config import (
    BehaviorConfig,
    FilteringBehavior,
    RegistrationBehavior,
    ScenarioConfig,
)
from repro.topology.classify import SizeClass
from repro.topology.generator import TopologyConfig


def _uniform_registration(
    rpki_all: float, irr_all: float
) -> dict[tuple[SizeClass, bool], RegistrationBehavior]:
    behavior = RegistrationBehavior(
        rpki_all=rpki_all, rpki_none=1.0 - rpki_all,
        rpki_misconfig=0.0, rpki_misconfig_mean=0.0,
        irr_all=irr_all, irr_none=1.0 - irr_all,
        irr_stale=0.0, irr_stale_fraction=0.0,
    )
    return {
        (size, member): behavior
        for size in SizeClass
        for member in (True, False)
    }


def _uniform_filtering(
    rov: float,
) -> dict[tuple[SizeClass, bool], FilteringBehavior]:
    behavior = FilteringBehavior(rov=rov, filter_customers=0.0)
    return {
        (size, member): behavior
        for size in SizeClass
        for member in (True, False)
    }


class TestBehaviorOverrides:
    def test_perfect_world_has_no_invalids(self):
        config = ScenarioConfig(
            behavior=BehaviorConfig(
                registration=_uniform_registration(1.0, 1.0),
                cdn_member_registration=RegistrationBehavior(
                    rpki_all=1.0, rpki_none=0.0,
                    rpki_misconfig=0.0, rpki_misconfig_mean=0.0,
                    irr_all=1.0, irr_none=0.0,
                    irr_stale=0.0, irr_stale_fraction=0.0,
                ),
                filtering=_uniform_filtering(0.0),
            ),
        )
        # Disable the deliberately-unconformant special cases and legacy
        # space so registration is the only variable.
        config.origination.legacy_probability = {
            key: 0.0 for key in config.origination.legacy_probability
        }
        world = build_world(scale=0.05, seed=2, config=config)
        flagships = {
            asn
            for asn, behavior in world.behaviors.items()
            if behavior.irr_stale_fraction > 0 or behavior.rpki_misconfig_count
        }
        invalids = [
            record
            for record in world.ihr.prefix_origins()
            if record.rpki.is_invalid and record.origin not in flagships
        ]
        assert invalids == []

    def test_unregistered_world_is_all_not_found(self):
        config = ScenarioConfig(
            behavior=BehaviorConfig(
                registration=_uniform_registration(0.0, 0.0),
                cdn_member_registration=RegistrationBehavior(
                    rpki_all=0.0, rpki_none=1.0,
                    rpki_misconfig=0.0, rpki_misconfig_mean=0.0,
                    irr_all=0.0, irr_none=1.0,
                    irr_stale=0.0, irr_stale_fraction=0.0,
                ),
                filtering=_uniform_filtering(0.0),
            ),
        )
        world = build_world(scale=0.05, seed=2, config=config)
        # The only registrations left are the forced case-study overrides
        # (flagship CDNs / ISP1 siblings register IRR objects).
        overridden = {
            asn
            for asn, behavior in world.behaviors.items()
            if behavior.irr_fraction > 0 or behavior.rpki_fraction > 0
        }
        for record in world.ihr.prefix_origins():
            if record.origin in overridden:
                continue
            assert record.rpki.value == "not_found"
            assert record.irr.value == "not_found"

    def test_full_rov_drops_all_invalids(self):
        config = ScenarioConfig(
            behavior=BehaviorConfig(filtering=_uniform_filtering(1.0)),
        )
        world = build_world(scale=0.05, seed=2, config=config)
        # With ROV everywhere, an invalid announcement can only be seen if
        # the origin itself peers with a vantage point... which our
        # vantage points' own ROV also rejects — so nothing invalid shows.
        invalid_visible = [
            record
            for record in world.ihr.prefix_origins()
            if record.rpki.is_invalid
        ]
        assert invalid_visible == []


class TestRecruitmentOverrides:
    def test_custom_recruitment_config_respected(self):
        recruitment = RecruitmentConfig(
            brazil_wave_probability=0.0,
            cdn_program_start=2021,
        )
        world = build_world(
            scale=0.1, seed=4, recruitment_config=recruitment
        )
        from repro.manrs.actions import Program

        for participant in world.manrs.participants_in(Program.CDN):
            assert participant.joined.year >= 2021

    def test_topology_config_scaling_respected(self):
        topology_config = TopologyConfig(
            n_large_transit=4, n_cdn=2, n_medium_isp=10,
            n_small_isp=10, n_stub=50,
        )
        world = build_world(
            scale=1.0, seed=4, topology_config=topology_config
        )
        assert len(world.topology) < 150

    def test_snapshot_date_propagates(self):
        from datetime import date

        config = ScenarioConfig(snapshot_date=date(2021, 5, 1))
        world = build_world(scale=0.05, seed=2, config=config)
        assert world.snapshot_date == date(2021, 5, 1)
        # Membership is evaluated at the earlier date.
        assert world.members() == world.manrs.member_asns(
            as_of=date(2021, 5, 1)
        )
