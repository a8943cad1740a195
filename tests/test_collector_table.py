"""Unit tests for route collection and the prefix2as derivation."""

from __future__ import annotations

import pytest

from repro.bgp.announcement import Announcement, RibEntry
from repro.bgp.collector import (
    RibSnapshot,
    RouteGroup,
    collect_rib,
    select_vantage_points,
)
from repro.bgp.policy import ROUTE_CLASSES, ASPolicy, RouteClass
from repro.bgp.propagation import PropagationEngine
from repro.bgp.table import Prefix2AS, parse_prefix2as, serialize_prefix2as
from repro.errors import DatasetError
from repro.net.prefix import Prefix, aggregate_address_count
from repro.registry.rir import RIR
from repro.topology.model import (
    ASCategory,
    ASTopology,
    AutonomousSystem,
    Organization,
    Relationship,
)


def simple_topology() -> ASTopology:
    """1 is provider of 2 and 3; 2 provider of 4."""
    topo = ASTopology()
    topo.add_org(Organization("O", "Org", "US"))
    for asn in (1, 2, 3, 4):
        topo.add_as(AutonomousSystem(asn, "O", "US", RIR.ARIN, ASCategory.STUB))
    topo.add_link(1, 2, Relationship.PROVIDER_CUSTOMER)
    topo.add_link(1, 3, Relationship.PROVIDER_CUSTOMER)
    topo.add_link(2, 4, Relationship.PROVIDER_CUSTOMER)
    return topo


def _ann(text: str, origin: int) -> Announcement:
    return Announcement(Prefix.parse(text), origin)


class TestRibEntry:
    def test_validates_endpoints(self):
        entry = RibEntry(1, Prefix.parse("10.0.0.0/24"), 3, (1, 2, 3))
        assert entry.transit_ases == (2,)

    def test_rejects_wrong_start(self):
        with pytest.raises(ValueError):
            RibEntry(9, Prefix.parse("10.0.0.0/24"), 3, (1, 2, 3))

    def test_rejects_wrong_end(self):
        with pytest.raises(ValueError):
            RibEntry(1, Prefix.parse("10.0.0.0/24"), 9, (1, 2, 3))

    def test_rejects_empty_path(self):
        with pytest.raises(ValueError):
            RibEntry(1, Prefix.parse("10.0.0.0/24"), 1, ())


class TestCollectRib:
    def test_groups_share_paths(self):
        engine = PropagationEngine(simple_topology())
        announcements = [
            (_ann("12.0.0.0/16", 4), RouteClass()),
            (_ann("12.1.0.0/16", 4), RouteClass()),
        ]
        rib = collect_rib(engine, announcements, [1, 3])
        assert len(rib.groups) == 1
        assert len(rib.groups[0].prefixes) == 2

    def test_distinct_classes_distinct_groups(self):
        engine = PropagationEngine(simple_topology())
        announcements = [
            (_ann("12.0.0.0/16", 4), RouteClass()),
            (_ann("12.1.0.0/16", 4), RouteClass(rpki_invalid=True)),
        ]
        rib = collect_rib(engine, announcements, [1, 3])
        assert len(rib.groups) == 2

    def test_entries_expand(self):
        engine = PropagationEngine(simple_topology())
        rib = collect_rib(engine, [(_ann("12.0.0.0/16", 4), RouteClass())], [1, 3])
        entries = list(rib.iter_entries())
        assert {(e.vantage_point, e.prefix, e.origin) for e in entries} == {
            (1, Prefix.parse("12.0.0.0/16"), 4),
            (3, Prefix.parse("12.0.0.0/16"), 4),
        }

    def test_filtered_announcement_invisible(self):
        policies = {1: ASPolicy(rov=True)}
        engine = PropagationEngine(simple_topology(), policies)
        rib = collect_rib(
            engine,
            [(_ann("12.0.0.0/16", 4), RouteClass(rpki_invalid=True))],
            [1, 3],
        )
        assert rib.visible_announcements == set()

    def test_paths_for(self):
        engine = PropagationEngine(simple_topology())
        announcement = _ann("12.0.0.0/16", 4)
        rib = collect_rib(engine, [(announcement, RouteClass())], [1, 3])
        paths = rib.paths_for(announcement)
        assert sorted(paths) == [(1, 2, 4), (3, 1, 2, 4)]


class TestSelectVantagePoints:
    def test_includes_all_larges(self, small_world):
        from repro.topology.classify import SizeClass

        larges = {
            asn
            for asn, size in small_world.size_of.items()
            if size is SizeClass.LARGE
        }
        assert larges <= set(small_world.vantage_points)

    def test_deterministic(self, small_world):
        vps = select_vantage_points(small_world.topology, seed=5)
        assert vps == select_vantage_points(small_world.topology, seed=5)


class TestPrefix2AS:
    def _mapping(self) -> Prefix2AS:
        engine = PropagationEngine(simple_topology())
        announcements = [
            (_ann("12.0.0.0/16", 4), RouteClass()),
            (_ann("12.1.0.0/16", 2), RouteClass()),
            (_ann("2600::/32", 2), RouteClass()),
        ]
        rib = collect_rib(engine, announcements, [1, 3])
        return Prefix2AS.from_rib(rib)

    def test_origins_of(self):
        mapping = self._mapping()
        assert mapping.origins_of(Prefix.parse("12.0.0.0/16")) == {4}
        assert mapping.origins_of(Prefix.parse("99.0.0.0/8")) == frozenset()

    def test_prefixes_of(self):
        mapping = self._mapping()
        assert Prefix.parse("12.1.0.0/16") in mapping.prefixes_of(2)

    def test_address_space_is_v4_only(self):
        mapping = self._mapping()
        assert mapping.address_space_of({2}) == 2**16  # v6 excluded
        v4 = [prefix for prefix in mapping.prefixes if prefix.version == 4]
        # The total is computed once; a second read returns the same count.
        first = mapping.total_address_space
        second = mapping.total_address_space
        assert first == second == aggregate_address_count(v4) == 2 * 2**16

    def test_roundtrip(self):
        mapping = self._mapping()
        recovered = parse_prefix2as(serialize_prefix2as(mapping))
        assert recovered.prefixes == mapping.prefixes
        for prefix in mapping.prefixes:
            assert recovered.origins_of(prefix) == mapping.origins_of(prefix)

    def test_parse_rejects_malformed(self):
        with pytest.raises(DatasetError):
            parse_prefix2as("10.0.0.0\t8\n")
        with pytest.raises(DatasetError):
            parse_prefix2as("10.0.0.0\tx\t1\n")

    def test_moas_prefix_lists_both_origins(self):
        engine = PropagationEngine(simple_topology())
        prefix = Prefix.parse("12.0.0.0/16")
        announcements = [
            (Announcement(prefix, 2), RouteClass()),
            (Announcement(prefix, 3), RouteClass()),
        ]
        rib = collect_rib(engine, announcements, [1])
        mapping = Prefix2AS.from_rib(rib)
        assert mapping.origins_of(prefix) == {2, 3}

    def test_column_feed_equals_from_rib(self):
        # The lazy world reads prefix2as from the stored RIB columns; it
        # must walk the same groups in the same order as from_rib.
        from repro.datasets.checkpoint import _rebuild_prefix2as, _rib_arrays

        p = Prefix.parse
        moas = p("12.1.0.0/16")
        hidden = p("13.0.0.0/16")
        rib = RibSnapshot(
            vantage_points=(1, 3),
            groups=[
                RouteGroup(
                    4,
                    ROUTE_CLASSES[(False, False)],
                    (p("12.0.0.0/16"), moas),
                    {1: (1, 2, 4), 3: (3, 1, 2, 4)},
                ),
                # Filtered everywhere: no vantage point holds a path.
                RouteGroup(3, ROUTE_CLASSES[(True, False)], (hidden,), {}),
                RouteGroup(
                    2,
                    ROUTE_CLASSES[(False, False)],
                    (p("2600::/32"), moas),
                    {1: (1, 2)},
                ),
                RouteGroup(
                    4,
                    ROUTE_CLASSES[(False, True)],
                    (p("14.0.0.0/16"),),
                    {3: (3, 1, 2, 4)},
                ),
            ],
        )
        from_rib = Prefix2AS.from_rib(rib)
        from_columns = _rebuild_prefix2as(_rib_arrays(rib)[1])
        items = list(from_columns._origin_map().items())
        assert items == list(from_rib._origin_map().items())
        assert [prefix for prefix, _ in items] == [
            p("12.0.0.0/16"), moas, p("2600::/32"), p("14.0.0.0/16")
        ]
        assert from_columns.origins_of(moas) == {2, 4}
        assert from_columns.origins_of(hidden) == frozenset()
        assert serialize_prefix2as(from_columns) == serialize_prefix2as(from_rib)
