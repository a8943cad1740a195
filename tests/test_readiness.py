"""Tests for the MANRS readiness check and prefix churn."""

from __future__ import annotations

from datetime import timedelta
from types import SimpleNamespace

import numpy as np

from repro.bgp.collector import Group, assemble_rib
from repro.bgp.policy import RouteClass
from repro.core.conformance import is_action4_conformant, origination_stats
from repro.core.readiness import check_readiness, render_readiness
from repro.delta import EVENT_KINDS, LiveWorld, synthesize_events
from repro.manrs.actions import Program
from repro.manrs.contacts import ContactRecord, PeeringDBLike
from repro.net.prefix import Prefix
from repro.scenario.timeline import flagship_prefix_churn


class TestReadiness:
    def _fresh_contacts(self, world, asns) -> PeeringDBLike:
        registry = PeeringDBLike()
        for asn in asns:
            registry.upsert(
                ContactRecord(
                    asn,
                    f"noc@as{asn}.example",
                    world.snapshot_date - timedelta(days=1),
                )
            )
        return registry

    def test_clean_as_is_ready(self, small_world):
        stats = origination_stats(small_world.ihr)
        clean = next(
            asn
            for asn, as_stats in stats.items()
            if as_stats.og_conformant == 100.0
            and asn in small_world.topology
        )
        report = check_readiness(
            small_world,
            clean,
            peeringdb=self._fresh_contacts(small_world, [clean]),
        )
        assert report.action4_ok
        assert report.unregistered_prefixes == ()
        if report.action1_ok:
            assert report.ready
            assert "READY" in render_readiness(report)

    def test_unregistered_as_is_blocked(self, small_world):
        stats = origination_stats(small_world.ihr)
        dirty = next(
            asn
            for asn, as_stats in stats.items()
            if asn in small_world.topology
            and not is_action4_conformant(as_stats, Program.ISP)
        )
        report = check_readiness(
            small_world,
            dirty,
            peeringdb=self._fresh_contacts(small_world, [dirty]),
        )
        assert not report.action4_ok
        assert not report.ready
        assert report.unregistered_prefixes
        assert any("Action 4" in blocker for blocker in report.blockers)
        assert "FAIL" in render_readiness(report)

    def test_missing_contacts_block(self, small_world):
        stats = origination_stats(small_world.ihr)
        clean = next(
            asn
            for asn, as_stats in stats.items()
            if as_stats.og_conformant == 100.0 and asn in small_world.topology
        )
        report = check_readiness(small_world, clean, peeringdb=PeeringDBLike())
        if not report.action3_ok:
            assert not report.ready
            assert any("Action 3" in blocker for blocker in report.blockers)

    def test_member_flagged(self, small_world):
        member = next(iter(small_world.members()))
        report = check_readiness(small_world, member)
        assert report.already_member
        assert "member" in render_readiness(report)

    def test_quiescent_as_trivially_passes_1_and_4(self, small_world):
        quiescent = next(iter(small_world.quiescent))
        report = check_readiness(
            small_world,
            quiescent,
            peeringdb=self._fresh_contacts(small_world, [quiescent]),
        )
        assert report.action4_ok and report.action1_ok
        assert report.origination_pct == 100.0


class TestPrefixChurn:
    def test_counts_are_consistent(self, small_world):
        churn = flagship_prefix_churn(small_world, seed=4)
        assert churn, "CDN members with prefixes should exist"
        for asn, record in churn.items():
            total = len(small_world.originations[asn])
            assert record.stable + record.withdrawn == total
            assert record.status_changes <= record.stable
            assert record.added >= 0

    def test_rib_rows_count_each_origins_announcements(self, small_world):
        """The churn counts a network's prefixes as its RIB rows: one
        row per announced route, seen or not, and events never change
        what is announced."""

        def assert_rows_count_originations(world):
            origins, rows = np.unique(world.rib.row_origins(), return_counts=True)
            assert dict(zip(origins.tolist(), rows.tolist())) == {
                asn: len(originations)
                for asn, originations in world.originations.items()
                if originations
            }

        assert_rows_count_originations(small_world)
        live = LiveWorld(small_world)
        for event in synthesize_events(
            small_world, kinds=list(EVENT_KINDS) * 2, seed=5
        ):
            live.apply(event)
        world = live.world()
        assert world.rib is not small_world.rib
        assert_rows_count_originations(world)

    def test_unseen_routes_count_as_announced(self):
        prefixes = [Prefix.parse(f"10.0.{i}.0/24") for i in range(3)]
        rib = assemble_rib(
            (7,),
            [
                Group(1, RouteClass(), prefixes[:1], {7: (7, 1)}),
                Group(1, RouteClass(rpki_invalid=True), prefixes[1:], {}),
            ],
        )
        manrs = SimpleNamespace(member_asns=lambda as_of, program: frozenset({1}))
        world = SimpleNamespace(manrs=manrs, snapshot_date=None, rib=rib)
        [churn] = flagship_prefix_churn(world).values()
        assert churn.stable + churn.withdrawn == 3

    def test_deterministic(self, small_world):
        a = flagship_prefix_churn(small_world, seed=4)
        b = flagship_prefix_churn(small_world, seed=4)
        assert a == b

    def test_targets_biggest_cdn_originators(self, small_world):
        from repro.manrs.actions import Program

        churn = flagship_prefix_churn(small_world, seed=4)
        cdn_members = small_world.manrs.member_asns(
            as_of=small_world.snapshot_date, program=Program.CDN
        )
        assert set(churn) <= set(cdn_members)
