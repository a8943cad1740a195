"""Tests for the operator tooling: ROV inference, filtergen, MRT dumps."""

from __future__ import annotations

from datetime import date

import pytest

from repro.bgp.mrt import parse_rib, serialize_rib
from repro.bgp.policy import ASPolicy
from repro.core.rov_inference import (
    InferenceQuality,
    evaluate_inference,
    infer_rov,
)
from repro.errors import DatasetError
from repro.irr.database import IRRDatabase
from repro.irr.filtergen import build_prefix_filter
from repro.irr.objects import AsSetObject, RouteObject
from repro.net.prefix import Prefix
from repro.topology.classify import SizeClass


class TestROVInference:
    def test_detects_rov_deployers_on_small_world(self, small_world):
        """Large ASes are on most beacon paths, so true deployers among
        them should mostly be recovered."""
        sizes = small_world.size_of
        targets = [
            asn
            for asn, size in sizes.items()
            if size in (SizeClass.LARGE, SizeClass.MEDIUM)
        ]
        beacons = [
            asn for asn, size in sizes.items() if size is SizeClass.SMALL
        ][:8]
        inferred = infer_rov(small_world.engine, beacons, targets)
        quality = evaluate_inference(inferred, small_world.policies)
        assert quality.recall > 0.6

    def test_false_positives_exist_behind_filters(self):
        """An AS single-homed behind an ROV provider is inferred as
        deploying even though it does not — the §11 limitation."""
        from repro.bgp.propagation import PropagationEngine
        from repro.registry.rir import RIR
        from repro.topology.model import (
            ASCategory,
            ASTopology,
            AutonomousSystem,
            Organization,
            Relationship,
        )

        topo = ASTopology()
        topo.add_org(Organization("O", "Org", "US"))
        for asn in (1, 2, 3):
            topo.add_as(
                AutonomousSystem(asn, "O", "US", RIR.ARIN, ASCategory.STUB)
            )
        # beacon origin 3 and victim-of-inference 2 both under provider 1
        topo.add_link(1, 2, Relationship.PROVIDER_CUSTOMER)
        topo.add_link(1, 3, Relationship.PROVIDER_CUSTOMER)
        policies = {1: ASPolicy(rov=True)}
        engine = PropagationEngine(topo, policies)
        inferred = infer_rov(engine, [3], targets=[1, 2])
        assert inferred[2], "AS2 should be (wrongly) inferred as deploying"
        quality = evaluate_inference(inferred, policies)
        assert quality.false_positives >= 1
        assert quality.precision < 1.0

    def test_contradiction_clears_inference(self):
        """If any beacon's invalid route arrives, the AS is not inferred."""
        from repro.bgp.propagation import PropagationEngine
        from repro.registry.rir import RIR
        from repro.topology.model import (
            ASCategory,
            ASTopology,
            AutonomousSystem,
            Organization,
            Relationship,
        )

        topo = ASTopology()
        topo.add_org(Organization("O", "Org", "US"))
        for asn in (1, 2):
            topo.add_as(
                AutonomousSystem(asn, "O", "US", RIR.ARIN, ASCategory.STUB)
            )
        topo.add_link(1, 2, Relationship.PROVIDER_CUSTOMER)
        engine = PropagationEngine(topo)  # nobody filters
        inferred = infer_rov(engine, [2], targets=[1])
        assert not inferred[1]

    def test_quality_properties(self):
        quality = InferenceQuality(2, 1, 1, 6)
        assert quality.precision == pytest.approx(2 / 3)
        assert quality.recall == pytest.approx(2 / 3)
        empty = InferenceQuality(0, 0, 0, 5)
        assert empty.precision == 1.0 and empty.recall == 1.0


class TestFilterGen:
    def _registry(self) -> IRRDatabase:
        db = IRRDatabase("RADB")
        db.add_as_set(
            AsSetObject("AS-CUST", ("AS10", "AS-SUB"), "RADB")
        )
        db.add_as_set(AsSetObject("AS-SUB", ("AS20",), "RADB"))
        db.add_route(RouteObject(Prefix.parse("12.0.0.0/16"), 10, "RADB"))
        db.add_route(RouteObject(Prefix.parse("31.5.0.0/18"), 20, "RADB"))
        db.add_route(RouteObject(Prefix.parse("99.0.0.0/8"), 30, "RADB"))
        return db

    def test_filter_covers_member_routes_only(self):
        prefix_filter = build_prefix_filter(self._registry(), "AS-CUST")
        assert len(prefix_filter) == 2
        assert prefix_filter.admits(Prefix.parse("12.0.0.0/16"))
        assert prefix_filter.admits(Prefix.parse("31.5.0.0/18"))
        assert not prefix_filter.admits(Prefix.parse("99.0.0.0/8"))

    def test_upto_allows_deaggregation(self):
        prefix_filter = build_prefix_filter(self._registry(), "AS-CUST", upto=24)
        assert prefix_filter.admits(Prefix.parse("12.0.5.0/24"))
        assert not prefix_filter.admits(Prefix.parse("12.0.5.0/25"))

    def test_origin_check(self):
        prefix_filter = build_prefix_filter(self._registry(), "AS-CUST")
        assert prefix_filter.admits(Prefix.parse("12.0.0.0/16"), origin=10)
        assert not prefix_filter.admits(Prefix.parse("12.0.0.0/16"), origin=20)

    def test_render(self):
        prefix_filter = build_prefix_filter(self._registry(), "AS-CUST")
        text = prefix_filter.render()
        assert "permit 12.0.0.0/16 le 24 (AS10)" in text

    def test_filter_from_world_as_set(self, small_world):
        """Filters built from a world's as-sets admit the registered
        announcements of the member customers."""
        radb = small_world.irr.database("RADB")
        # find any as-set generated by the scenario
        transit = next(
            asn
            for asn in small_world.topology.asns
            if radb.as_set(f"AS-{asn}-CUSTOMERS") is not None
        )
        prefix_filter = build_prefix_filter(
            small_world.irr, f"AS-{transit}-CUSTOMERS"
        )
        assert len(prefix_filter) > 0
        entry = prefix_filter.entries[0]
        assert prefix_filter.admits(entry.prefix, origin=entry.origin)


class TestMRT:
    def test_roundtrip_preserves_entries(self, small_world):
        text = serialize_rib(small_world.rib, small_world.snapshot_date)
        recovered = parse_rib(text)
        original = {
            (e.vantage_point, e.prefix, e.origin, e.path)
            for e in small_world.rib.iter_entries()
        }
        rebuilt = {
            (e.vantage_point, e.prefix, e.origin, e.path)
            for e in recovered.iter_entries()
        }
        assert rebuilt == original
        assert recovered.vantage_points == small_world.vantage_points

    def test_parse_rejects_malformed(self):
        with pytest.raises(DatasetError):
            parse_rib("TABLE_DUMP2|x\n")
        with pytest.raises(DatasetError):
            parse_rib(
                "TABLE_DUMP2|0|B|10.0.0.1|5|12.0.0.0/16|7 9|IGP\n"
            )  # path does not start at peer AS 5

    def test_empty_serialization(self):
        from repro.bgp.collector import RibSnapshot

        empty = RibSnapshot(vantage_points=(), groups=[])
        assert serialize_rib(empty, date(2022, 5, 1)) == ""

    def test_parsed_rib_feeds_pipeline(self, small_world):
        """A dump can be fed back through the IHR pipeline: prefix-origin
        statuses recomputed off the file match the originals, and the
        pipeline rerun on the in-memory RIB reproduces the dataset."""
        from repro.ihr.pipeline import build_ihr_dataset

        assert build_ihr_dataset(
            small_world.rib, small_world.rov, small_world.irr, small_world.topology
        ) == small_world.ihr
        text = serialize_rib(small_world.rib, small_world.snapshot_date)
        recovered = parse_rib(text)
        dataset = build_ihr_dataset(
            recovered, small_world.rov, small_world.irr, small_world.topology
        )
        original = {
            (r.prefix, r.origin): (r.rpki, r.irr)
            for r in small_world.ihr.prefix_origins
        }
        rebuilt = {
            (r.prefix, r.origin): (r.rpki, r.irr)
            for r in dataset.prefix_origins
        }
        assert rebuilt == original
