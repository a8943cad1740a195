"""Unit tests for route collection and the prefix2as derivation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bgp.announcement import Announcement
from repro.bgp.collector import (
    COLUMNS,
    Group,
    PrefixRows,
    RibSnapshot,
    RouteRows,
    assemble_rib,
    collect_rib,
    select_vantage_points,
)
from repro.bgp.policy import ROUTE_CLASSES, ASPolicy, RouteClass
from repro.bgp.propagation import PropagationEngine
from repro.bgp.table import Prefix2AS, parse_prefix2as, serialize_prefix2as
from repro.datasets.arraystore import ColumnWriter, open_columns
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


def _rows(announcements) -> RouteRows:
    """The route table of ``(announcement, route class)`` pairs."""
    return RouteRows.of(
        [(a.prefix, a.origin, route_class) for a, route_class in announcements]
    )


class TestRibEntry:
    """A RIB entry is one vantage point's route: a stored reference's
    path for each prefix of its group."""

    def test_validates_endpoints(self, small_world):
        columns = small_world.rib.arrays
        values = columns["rib_path_values"]
        offsets = columns["rib_path_offsets"]
        assert (np.diff(offsets) > 0).all()
        # Every path starts at its reference's vantage point and ends
        # at its group's origin.
        assert np.array_equal(values[offsets[:-1]], columns["rib_ref_vp"])
        assert np.array_equal(
            values[offsets[1:] - 1],
            np.repeat(columns["rib_origin"], np.diff(columns["rib_ref_offsets"])),
        )


class TestCollectRib:
    def test_groups_share_paths(self):
        engine = PropagationEngine(simple_topology())
        announcements = [
            (_ann("12.0.0.0/16", 4), RouteClass()),
            (_ann("12.1.0.0/16", 4), RouteClass()),
        ]
        rib = collect_rib(engine, _rows(announcements), [1, 3])
        assert rib.arrays["rib_origin"].tolist() == [4]
        assert rib.arrays["rib_prefix_offsets"].tolist() == [0, 2]

    def test_distinct_classes_distinct_groups(self):
        engine = PropagationEngine(simple_topology())
        announcements = [
            (_ann("12.0.0.0/16", 4), RouteClass()),
            (_ann("12.1.0.0/16", 4), RouteClass(rpki_invalid=True)),
        ]
        rib = collect_rib(engine, _rows(announcements), [1, 3])
        assert rib.route_classes() == [
            RouteClass(),
            RouteClass(rpki_invalid=True),
        ]

    def test_entries_expand(self):
        engine = PropagationEngine(simple_topology())
        rib = collect_rib(
            engine, _rows([(_ann("12.0.0.0/16", 4), RouteClass())]), [1, 3]
        )
        assert {
            (vantage_point, prefix, origin)
            for origin, _, prefixes, paths in rib.groups()
            for prefix in prefixes
            for vantage_point in paths
        } == {
            (1, Prefix.parse("12.0.0.0/16"), 4),
            (3, Prefix.parse("12.0.0.0/16"), 4),
        }

    def test_filtered_announcement_invisible(self):
        policies = {1: ASPolicy(rov=True)}
        engine = PropagationEngine(simple_topology(), policies)
        rib = collect_rib(
            engine,
            _rows([(_ann("12.0.0.0/16", 4), RouteClass(rpki_invalid=True))]),
            [1, 3],
        )
        assert rib.visible().tolist() == [False]
        assert rib.routes(rib.visible_rows()) == []
        assert rib.routes() == [(Prefix.parse("12.0.0.0/16"), 4)]

    def test_paths_for(self):
        engine = PropagationEngine(simple_topology())
        announcement = _ann("12.0.0.0/16", 4)
        rib = collect_rib(engine, _rows([(announcement, RouteClass())]), [1, 3])
        [(origin, _, prefixes, paths)] = rib.groups()
        assert (origin, prefixes) == (4, (announcement.prefix,))
        assert sorted(paths.values()) == [(1, 2, 4), (3, 1, 2, 4)]
        for vantage_point, path in paths.items():
            assert path[0] == vantage_point


class TestRibColumns:
    def test_columns_in_stored_order(self, small_world):
        rib = small_world.rib
        assert list(rib.arrays) == list(COLUMNS)
        assert rib.meta == {"vantage_points": list(small_world.vantage_points)}

    def test_decoded_groups_reassemble_byte_for_byte(self, small_world):
        """``groups`` is the inverse of the builder: the decoded groups
        assemble into the same columns, dtypes and bytes."""
        rib = small_world.rib
        again = assemble_rib(rib.vantage_points, rib.groups())
        assert again.meta == rib.meta
        assert list(again.arrays) == list(rib.arrays)
        for name, column in rib.arrays.items():
            assert again.arrays[name].dtype == column.dtype, name
            assert again.arrays[name].tobytes() == column.tobytes(), name

    def test_views_read_like_the_decoded_groups(self, small_world):
        rib = small_world.rib
        for view, group in zip(rib.group_paths(), rib.groups()):
            assert len(view) == len(group.paths)
            assert list(view.items()) == list(group.paths.items())

    @pytest.mark.parametrize("copy_every", [0, 1, 2])
    def test_splice_equals_assemble(self, small_world, copy_every):
        """Copied and encoded groups assemble into the columns
        ``assemble_rib`` writes for the decoded groups: none, all or
        every other group copied (its prefix rows and paths as views
        over the RIB), and a copy whose paths are an equal view of
        another group, as classes sharing a memo entry leave them."""
        rib = small_world.rib
        decoded = rib.groups()
        views = rib.group_paths()
        offsets = rib.arrays["rib_prefix_offsets"].tolist()
        paths_from = list(range(len(decoded)))
        for later in range(1, len(decoded)):
            earlier = later - 1
            if (
                decoded[earlier].origin == decoded[later].origin
                and list(decoded[earlier].paths.items())
                == list(decoded[later].paths.items())
            ):
                paths_from[later] = earlier
        assert paths_from != list(range(len(decoded)))
        groups = []
        for index, group in enumerate(decoded):
            if copy_every and index % copy_every == 0:
                rows = PrefixRows(
                    rib.arrays,
                    offsets[index],
                    offsets[index + 1],
                    group.prefixes,
                )
                groups.append(
                    group._replace(prefixes=rows, paths=views[paths_from[index]])
                )
            else:
                groups.append(group)
        spliced = assemble_rib(rib.vantage_points, groups)
        assert spliced.meta == rib.meta
        assert list(spliced.arrays) == list(rib.arrays)
        for name, column in rib.arrays.items():
            assert spliced.arrays[name].dtype == column.dtype, name
            assert spliced.arrays[name].tobytes() == column.tobytes(), name
        assert spliced.prefixes() == rib.prefixes()

    def test_announcements_regroup_into_the_same_rib(self, small_world):
        rib = collect_rib(
            small_world.engine,
            small_world.rib.route_rows(),
            small_world.vantage_points,
        )
        for name, column in small_world.rib.arrays.items():
            assert np.array_equal(rib.arrays[name], column), name


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
        rib = collect_rib(engine, _rows(announcements), [1, 3])
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
        # A second read returns the same count.
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
        rib = collect_rib(engine, _rows(announcements), [1])
        mapping = Prefix2AS.from_rib(rib)
        assert mapping.origins_of(prefix) == {2, 3}

    def test_column_feed_equals_from_rib(self, tmp_path):
        # A lazy world reads prefix2as from the stored, mapped RIB
        # columns: it must walk the visible rows in the same order as
        # the RIB built in memory.
        p = Prefix.parse
        moas = p("12.1.0.0/16")
        hidden = p("13.0.0.0/16")
        rib = assemble_rib(
            (1, 3),
            [
                Group(
                    4,
                    ROUTE_CLASSES[(False, False)],
                    (p("12.0.0.0/16"), moas),
                    {1: (1, 2, 4), 3: (3, 1, 2, 4)},
                ),
                # Filtered everywhere: no vantage point holds a path.
                Group(3, ROUTE_CLASSES[(True, False)], (hidden,), {}),
                Group(
                    2,
                    ROUTE_CLASSES[(False, False)],
                    (p("2600::/32"), moas),
                    {1: (1, 2)},
                ),
                Group(
                    4,
                    ROUTE_CLASSES[(False, True)],
                    (p("14.0.0.0/16"),),
                    {3: (3, 1, 2, 4)},
                ),
            ],
        )
        path = tmp_path / "rib.npz"
        with ColumnWriter(path) as writer:
            writer.write_all(rib.arrays)
        mapped = open_columns(path)
        assert mapped.mapped
        from_rib = Prefix2AS.from_rib(rib)
        from_columns = Prefix2AS.from_rib(RibSnapshot(rib.meta, mapped))
        items = list(from_columns._origin_map().items())
        assert items == list(from_rib._origin_map().items())
        assert [prefix for prefix, _ in items] == [
            p("12.0.0.0/16"), moas, p("2600::/32"), p("14.0.0.0/16")
        ]
        assert from_columns.origins_of(moas) == {2, 4}
        assert from_columns.origins_of(hidden) == frozenset()
        assert serialize_prefix2as(from_columns) == serialize_prefix2as(from_rib)
