"""Tests for the extension features: Action 3 contacts, Action 2 SAV,
and the ablation experiments."""

from __future__ import annotations

from datetime import date, timedelta

import pytest

from repro.errors import DatasetError
from repro.experiments import ablations, ext_other_actions
from repro.irr.database import IRRDatabase
from repro.irr.objects import AutNumObject
from repro.manrs.contacts import (
    ContactRecord,
    PeeringDBLike,
    is_action3_conformant,
    populate_contacts,
)
from repro.manrs.sav import (
    SpooferCampaign,
    SpooferResult,
    assign_sav_deployment,
    run_spoofer_campaign,
)
from tests.ihr_tables import tables

NOW = date(2022, 5, 1)


class TestPeeringDBLike:
    def test_upsert_and_get(self):
        registry = PeeringDBLike()
        record = ContactRecord(1, "noc@one.example", NOW)
        registry.upsert(record)
        assert registry.get(1) == record
        assert registry.get(2) is None
        assert len(registry) == 1

    def test_upsert_replaces(self):
        registry = PeeringDBLike()
        registry.upsert(ContactRecord(1, "old@x", NOW - timedelta(days=900)))
        registry.upsert(ContactRecord(1, "new@x", NOW))
        assert registry.get(1).noc_email == "new@x"
        assert len(registry) == 1

    def test_csv_roundtrip(self):
        registry = PeeringDBLike()
        registry.upsert(ContactRecord(1, "noc@one.example", NOW))
        registry.upsert(ContactRecord(2, "noc@two.example", NOW))
        recovered = PeeringDBLike.parse(registry.serialize())
        assert recovered.get(1) == registry.get(1)
        assert len(recovered) == 2

    def test_parse_rejects_garbage(self):
        with pytest.raises(DatasetError):
            PeeringDBLike.parse("nope\n")
        with pytest.raises(DatasetError):
            PeeringDBLike.parse("asn,noc_email,last_updated\nx,y\n")


class TestAction3:
    def _irr_with_autnum(self, last_modified: date | None) -> IRRDatabase:
        db = IRRDatabase("RADB")
        db.add_aut_num(
            AutNumObject(
                asn=1, as_name="X", source="RADB",
                admin_c="AC", last_modified=last_modified,
            )
        )
        return db

    def test_fresh_peeringdb_contact_conformant(self):
        registry = PeeringDBLike()
        registry.upsert(ContactRecord(1, "noc@x", NOW - timedelta(days=30)))
        assert is_action3_conformant(1, IRRDatabase("RADB"), registry, NOW)

    def test_stale_peeringdb_falls_back_to_irr(self):
        registry = PeeringDBLike()
        registry.upsert(ContactRecord(1, "noc@x", NOW - timedelta(days=900)))
        fresh_irr = self._irr_with_autnum(NOW - timedelta(days=10))
        assert is_action3_conformant(1, fresh_irr, registry, NOW)

    def test_stale_everywhere_unconformant(self):
        registry = PeeringDBLike()
        registry.upsert(ContactRecord(1, "noc@x", NOW - timedelta(days=900)))
        stale_irr = self._irr_with_autnum(NOW - timedelta(days=900))
        assert not is_action3_conformant(1, stale_irr, registry, NOW)

    def test_autnum_without_contact_unconformant(self):
        db = IRRDatabase("RADB")
        db.add_aut_num(AutNumObject(asn=1, as_name="X", source="RADB"))
        assert not is_action3_conformant(1, db, PeeringDBLike(), NOW)

    def test_unknown_as_unconformant(self):
        assert not is_action3_conformant(
            1, IRRDatabase("RADB"), PeeringDBLike(), NOW
        )

    def test_populated_contacts_favor_members(self, small_world):
        registry = populate_contacts(small_world, seed=2)
        members = small_world.members()
        member_fresh = [
            is_action3_conformant(a, small_world.irr, registry, NOW)
            for a in members
            if a in small_world.topology
        ]
        others = [a for a in small_world.topology.asns if a not in members]
        other_fresh = [
            is_action3_conformant(a, small_world.irr, registry, NOW)
            for a in others[:500]
        ]
        assert sum(member_fresh) / len(member_fresh) > sum(other_fresh) / len(
            other_fresh
        )


class TestSAV:
    def test_deployment_independent_of_membership(self, small_world):
        """Luckie et al.: members are not better at SAV."""
        truth = assign_sav_deployment(small_world, seed=1)
        members = small_world.members()
        member_rate = sum(
            truth[a] for a in members if a in truth
        ) / max(1, len(members))
        other_asns = [a for a in truth if a not in members]
        other_rate = sum(truth[a] for a in other_asns) / len(other_asns)
        assert abs(member_rate - other_rate) < 0.2

    def test_campaign_reveals_truth(self, small_world):
        truth = assign_sav_deployment(small_world, seed=1)
        campaign = run_spoofer_campaign(small_world, truth, seed=2)
        for result in campaign.results:
            assert result.blocks_spoofing == truth[result.asn]

    def test_campaign_coverage_partial(self, small_world):
        truth = assign_sav_deployment(small_world, seed=1)
        campaign = run_spoofer_campaign(
            small_world, truth, test_probability=0.25, seed=2
        )
        assert 0 < len(campaign.results) < len(small_world.topology)

    def test_rate_helpers(self):
        campaign = SpooferCampaign(
            results=[
                SpooferResult(1, True, NOW),
                SpooferResult(2, False, NOW),
            ]
        )
        assert campaign.deployment_rate() == 0.5
        assert campaign.deployment_rate(frozenset({1})) == 1.0
        assert campaign.deployment_rate(frozenset({99})) == 0.0
        assert campaign.tested_count() == 2


class TestExtExperiment:
    def test_run_and_render(self, small_world):
        result = ext_other_actions.run(small_world, seed=5)
        assert result.action3_member_rate > result.action3_other_rate
        assert abs(result.sav_member_rate - result.sav_other_rate) < 0.25
        text = ext_other_actions.render(result)
        assert "Action 3" in text and "Action 2" in text


class TestAblations:
    def test_rov_sweep_shapes(self, small_world):
        points = ablations.rov_deployment_ablation(
            small_world, levels=(0.0, 1.0)
        )
        none, full = points
        assert none.deployed_large_members == 0
        assert full.deployed_large_members > none.deployed_large_members
        # The separation is Figure 9's filtering signal: it must not shrink
        # with deployment and is substantial at full deployment, while
        # Valid routes are indifferent to ROV.
        assert full.separation >= none.separation
        assert full.separation > 0.10
        assert abs(full.valid_prefer_manrs - none.valid_prefer_manrs) < 0.10
        text = ablations.render_rov_ablation(points)
        assert "separation" in text

    def test_visibility_sweep_shapes(self, small_world):
        points = ablations.visibility_ablation(
            small_world, fractions=(0.1, 0.5, 1.0)
        )
        assert points[0].n_vantage_points < points[-1].n_vantage_points
        visible = [p.visible_prefix_origins for p in points]
        assert visible == sorted(visible)
        # §11: limited visibility can only overestimate conformance.
        assert (
            points[0].isp_conformance_pct
            >= points[-1].isp_conformance_pct - 0.5
        )
        text = ablations.render_visibility_ablation(points)
        assert "visibility" in text


class TestCounterfactual:
    def test_full_compliance_improves_metrics(self, small_world):
        from repro.experiments import counterfactual

        result = counterfactual.run(small_world)
        assert result.measured.invalid_member_transit_pairs > 0
        assert result.full_compliance.invalid_member_transit_pairs == 0
        assert (
            result.full_compliance.invalid_prefer_manrs
            <= result.measured.invalid_prefer_manrs
        )
        assert result.full_compliance.invalid_prefer_manrs < 0.05
        # Full compliance cannot fix what non-members originate outside
        # MANRS cones: some invalids stay visible (§10's limit).
        assert result.full_compliance.visible_invalid_announcements > 0
        assert 0.0 <= result.invalid_visibility_reduction <= 1.0
        text = counterfactual.render(result)
        assert "full compliance" in text

    def test_rederived_ihr_equals_the_world_ihr(self, small_world, tmp_path):
        """The measured scenario reads ``world.ihr``: re-deriving the
        tables from the world's RIB gives the same tables, for the
        built world and for it reopened from a checkpoint."""
        from repro.datasets.checkpoint import CheckpointStore
        from repro.ihr.pipeline import build_ihr_dataset

        store = CheckpointStore(tmp_path)
        store.save(small_world)
        reopened = store.load(
            small_world.config, small_world.scale, small_world.seed
        )
        for world in (small_world, reopened):
            assert tables(
                build_ihr_dataset(world.rib, world.rov, world.irr, world.topology)
            ) == tables(world.ihr)


def test_derived_engines_answer_like_fresh_ones(small_world, monkeypatch):
    """The counterfactual and the ROV ablation derive their engines from
    the world's, reusing its memo for the route classes their policy
    change leaves alone; both give what fresh, uncached engines over
    the same policies give."""
    from repro.bgp.propagation import PropagationEngine
    from repro.experiments import counterfactual

    derived = (
        counterfactual.run(small_world),
        ablations.rov_deployment_ablation(small_world),
    )

    def fresh(engine, policies=None, link=None, topology=None):
        assert link is None and topology is None
        return PropagationEngine(
            engine.topology,
            {**small_world.policies, **policies},
            paths_cache_size=0,
        )

    monkeypatch.setattr(PropagationEngine, "derive", fresh)
    assert derived == (
        counterfactual.run(small_world),
        ablations.rov_deployment_ablation(small_world),
    )
