"""Integration tests: invariants of a fully built world."""

from __future__ import annotations

from repro.bgp.policy import RouteClass
from repro.core.classification import is_unconformant
from repro.ihr.records import RPKI_STATUSES
from repro.irr.validation import IRRStatus, validate_irr
from repro.manrs.actions import Program
from repro.rpki.rov import RPKIStatus
from repro.scenario.build import build_world


class TestDeterminism:
    def test_same_seed_same_world(self):
        a = build_world(scale=0.05, seed=9)
        b = build_world(scale=0.05, seed=9)
        assert a.topology.asns == b.topology.asns
        assert a.manrs.participants == b.manrs.participants
        assert {str(p) for p in a.prefix2as.prefixes} == {
            str(p) for p in b.prefix2as.prefixes
        }
        assert len(a.rov) == len(b.rov)
        assert a.irr.route_count == b.irr.route_count


class TestGroundTruthConsistency:
    def test_quiescent_ases_announce_nothing(self, small_world):
        for asn in small_world.quiescent:
            assert small_world.originations.get(asn, ()) == ()

    def test_announced_prefixes_within_delegated_blocks(self, small_world):
        for asn, originations in small_world.originations.items():
            for origination in originations:
                assert origination.block.contains(origination.prefix)
                holder = small_world.address_space.holder_of(origination.prefix)
                assert holder is not None
                org_id = small_world.topology.get_as(asn).org_id
                assert holder.org_id == org_id

    def test_deaggregated_flag_matches_lengths(self, small_world):
        for originations in small_world.originations.values():
            for origination in originations:
                if origination.deaggregated:
                    assert origination.prefix.length > origination.block.length
                else:
                    assert origination.prefix == origination.block

    def test_legacy_blocks_never_certified(self, small_world):
        for asn, originations in small_world.originations.items():
            for origination in originations:
                if not origination.legacy:
                    continue
                assert (
                    small_world.rov.validate(origination.prefix, asn)
                    is RPKIStatus.NOT_FOUND
                )

    def test_behavior_exists_for_every_as(self, small_world):
        assert set(small_world.behaviors) == set(small_world.topology.asns)

    def test_policies_match_behaviors(self, small_world):
        for asn, policy in small_world.policies.items():
            behavior = small_world.behaviors[asn]
            assert policy.rov == behavior.rov
            assert policy.filter_customers_irr == behavior.filter_customers


class TestMeasurementPipeline:
    def test_visible_announcements_have_paths(self, small_world):
        for origin, _, _, paths in small_world.rib.groups():
            for vantage_point, path in paths.items():
                assert path[0] == vantage_point
                assert path[-1] == origin

    def test_route_class_matches_statuses(self, small_world):
        """The filter class the builder derived must agree with what the
        measurement side (ROV + IRR validation) computes."""
        for origin, route_class, prefixes, _ in small_world.rib.groups():
            for prefix in prefixes:
                rpki = small_world.rov.validate(prefix, origin)
                irr = validate_irr(small_world.irr, prefix, origin)
                expected = RouteClass(
                    rpki_invalid=rpki.is_invalid,
                    irr_invalid=irr is IRRStatus.INVALID_ORIGIN,
                )
                assert route_class == expected

    def test_ihr_statuses_match_direct_validation(self, small_world):
        for record in small_world.ihr.prefix_origins()[:200]:
            assert (
                small_world.rov.validate(record.prefix, record.origin)
                is record.rpki
            )
            assert (
                validate_irr(small_world.irr, record.prefix, record.origin)
                is record.irr
            )

    def test_prefix2as_consistent_with_originations(self, small_world):
        for prefix in small_world.prefix2as.prefixes[:200]:
            for origin in small_world.prefix2as.origins_of(prefix):
                announced = {
                    o.prefix for o in small_world.originations.get(origin, ())
                }
                assert prefix in announced

    def test_rov_deployers_transit_no_invalids(self, small_world):
        """An AS with full ROV must never appear as transit for an
        RPKI-Invalid prefix (paths are recomputed per class)."""
        rov_deployers = {
            asn
            for asn, policy in small_world.policies.items()
            if policy.rov
        }
        columns = small_world.ihr.arrays
        prefix_offsets = columns["tg_offsets"].tolist()
        transit_offsets = columns["tr_offsets"].tolist()
        invalid = [status.is_invalid for status in RPKI_STATUSES]
        rpki = columns["tg_rpki"].tolist()
        transits = columns["tr_asn"].tolist()
        for group in range(len(prefix_offsets) - 1):
            rows = range(prefix_offsets[group], prefix_offsets[group + 1])
            if any(invalid[rpki[row]] for row in rows):
                carried = transits[
                    transit_offsets[group]:transit_offsets[group + 1]
                ]
                assert not (set(carried) & rov_deployers)

    def test_flagship_cdns_are_barely_unconformant(self, small_world):
        from repro.core.conformance import origination_stats

        stats = origination_stats(small_world.ihr)
        cdn_members = small_world.manrs.member_asns(
            as_of=small_world.snapshot_date, program=Program.CDN
        )
        unconformant = [
            asn
            for asn in cdn_members
            if asn in stats and 0 < stats[asn].unconformant
        ]
        assert unconformant, "some CDN should leak a few prefixes"
        for asn in unconformant:
            # "more than 98% of their prefixes" conformant (Finding 8.3)
            assert stats[asn].og_conformant > 95.0

    def test_member_unconformant_prefixes_exist(self, small_world):
        """ISP1-analogue siblings give affirmatively unconformant
        member prefix-origins (the Table 1 input)."""
        members = small_world.members()
        affirmative = [
            r
            for r in small_world.ihr.prefix_origins()
            if r.origin in members and is_unconformant(r.rpki, r.irr)
        ]
        assert affirmative


class TestIPv6Originations:
    def test_v6_prefixes_exist_and_validate(self, small_world):
        """IPv6 announcements flow through RPKI/IRR validation like v4."""
        v6_records = [
            r for r in small_world.ihr.prefix_origins() if r.prefix.version == 6
        ]
        assert v6_records, "scenario should announce some IPv6"
        from repro.rpki.rov import RPKIStatus

        assert any(r.rpki is RPKIStatus.VALID for r in v6_records)

    def test_v6_space_excluded_from_v4_accounting(self, small_world):
        """Figure 4b / 6 accounting is IPv4-only, as in the paper."""
        total = small_world.prefix2as.total_address_space
        assert total < 2**32  # v6 would dwarf this instantly
