"""Unit and property tests for the IRR substrate (RPSL, DBs, validation)."""

from __future__ import annotations

from dataclasses import replace
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ASNError, RPSLError
from repro.irr.asset import expand_as_set
from repro.irr.database import IRRCollection, IRRDatabase, route_rows
from repro.irr.objects import (
    AsSetObject,
    AutNumObject,
    MntnerObject,
    RouteObject,
)
from repro.irr.rpsl import (
    parse_database,
    parse_object,
    parse_rpsl_blocks,
    serialize_database,
    serialize_object,
)
from repro.irr.validation import IRRStatus, validate_irr
from repro.net.prefix import Prefix, address_key
from repro.net.radix import RadixTree
from repro.registry.rir import RIR


def _p(text: str) -> Prefix:
    return Prefix.parse(text)


def _route(prefix: str, origin: int, source: str = "RADB") -> RouteObject:
    return RouteObject(prefix=_p(prefix), origin=origin, source=source)


class TestObjects:
    def test_route_class_by_version(self):
        assert _route("12.0.0.0/16", 1).rpsl_class == "route"
        assert RouteObject(_p("2600::/32"), 1, "RADB").rpsl_class == "route6"

    def test_route_requires_source(self):
        with pytest.raises(RPSLError):
            RouteObject(_p("12.0.0.0/16"), 1, "")

    def test_as_set_name_validated(self):
        with pytest.raises(RPSLError):
            AsSetObject(name="CUSTOMERS", members=(), source="RADB")

    def test_as_set_member_split(self):
        as_set = AsSetObject(
            name="AS-X", members=("AS1", "AS-NESTED", "AS2"), source="RADB"
        )
        assert as_set.direct_asns == (1, 2)
        assert as_set.nested_sets == ("AS-NESTED",)

    def test_aut_num_contact(self):
        assert AutNumObject(1, "A", "RADB", admin_c="AC1").has_contact
        assert not AutNumObject(1, "A", "RADB").has_contact


class TestRPSLCodec:
    def test_block_parsing_with_continuation(self):
        text = "route: 12.0.0.0/16\ndescr: line one\n  line two\norigin: AS1\nsource: RADB\n"
        blocks = parse_rpsl_blocks(text)
        assert blocks[0][1] == ("descr", "line one line two")

    def test_comments_ignored(self):
        blocks = parse_rpsl_blocks("% whois banner\nroute: 12.0.0.0/16\norigin: AS1\nsource: RADB\n")
        assert blocks[0][0] == ("route", "12.0.0.0/16")

    def test_continuation_outside_object_rejected(self):
        with pytest.raises(RPSLError):
            parse_rpsl_blocks("  dangling\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(RPSLError):
            parse_rpsl_blocks("not an attribute\n")

    def test_route_roundtrip(self):
        route = RouteObject(
            prefix=_p("12.0.0.0/16"),
            origin=65001,
            source="RADB",
            mnt_by="MAINT-X",
            descr="test route",
            created=date(2021, 1, 1),
            last_modified=date(2022, 1, 1),
        )
        bare6 = RouteObject(
            prefix=_p("2001:db8::/32"),
            origin=65002,
            source="RIPE",
            mnt_by="MAINT-Y",
        )
        dated6 = RouteObject(
            prefix=_p("2001:db8:1::/48"),
            origin=65003,
            source="RADB",
            mnt_by="MAINT-Z",
            descr="v6 route",
            created=date(2020, 5, 17),
            last_modified=date(2023, 2, 3),
        )
        bare4 = RouteObject(
            prefix=_p("192.0.2.0/24"),
            origin=4200000000,
            source="ARIN",
            mnt_by="MAINT-W",
        )
        # The exact text, so the IRR dump's bytes are pinned here too.
        expected = {
            route: (
                "route:          12.0.0.0/16\n"
                "descr:          test route\n"
                "origin:         AS65001\n"
                "mnt-by:         MAINT-X\n"
                "created:        2021-01-01\n"
                "last-modified:  2022-01-01\n"
                "source:         RADB\n"
            ),
            bare6: (
                "route6:         2001:db8::/32\n"
                "origin:         AS65002\n"
                "mnt-by:         MAINT-Y\n"
                "source:         RIPE\n"
            ),
            dated6: (
                "route6:         2001:db8:1::/48\n"
                "descr:          v6 route\n"
                "origin:         AS65003\n"
                "mnt-by:         MAINT-Z\n"
                "created:        2020-05-17\n"
                "last-modified:  2023-02-03\n"
                "source:         RADB\n"
            ),
            bare4: (
                "route:          192.0.2.0/24\n"
                "origin:         AS4200000000\n"
                "mnt-by:         MAINT-W\n"
                "source:         ARIN\n"
            ),
        }
        for obj, text in expected.items():
            assert serialize_object(obj) == text
            assert parse_object(parse_rpsl_blocks(text)[0]) == obj

    def test_aut_num_roundtrip(self):
        aut_num = AutNumObject(
            asn=65001,
            as_name="TEST-AS",
            source="RIPE",
            mnt_by="MAINT-X",
            admin_c="AC1",
            tech_c="TC1",
            import_lines=("from AS2 accept ANY",),
            export_lines=("to AS2 announce AS-SELF",),
            last_modified=date(2022, 1, 1),
        )
        recovered = parse_object(parse_rpsl_blocks(serialize_object(aut_num))[0])
        assert recovered == aut_num

    def test_as_set_roundtrip(self):
        as_set = AsSetObject(
            name="AS-CUSTOMERS", members=("AS1", "AS2", "AS-SUB"), source="RADB"
        )
        recovered = parse_object(parse_rpsl_blocks(serialize_object(as_set))[0])
        assert recovered == as_set

    def test_mntner_roundtrip(self):
        mntner = MntnerObject(name="MAINT-X", admin_c="AC1")
        recovered = parse_object(parse_rpsl_blocks(serialize_object(mntner))[0])
        assert recovered == mntner

    def test_database_roundtrip(self):
        objects = [_route("12.0.0.0/16", 1), _route("12.1.0.0/16", 2)]
        assert parse_database(serialize_database(objects)) == objects

    def test_unknown_class_rejected(self):
        with pytest.raises(RPSLError):
            parse_object([("inetnum", "x"), ("source", "RADB")])

    def test_missing_mandatory_attribute_rejected(self):
        with pytest.raises(RPSLError):
            parse_object([("route", "12.0.0.0/16")])  # no origin/source


class TestDatabases:
    def test_authoritative_enforces_space(self):
        db = IRRDatabase("ARIN", authoritative_for=RIR.ARIN)
        db.add_route(_route("12.0.0.0/16", 1, source="ARIN"))
        with pytest.raises(RPSLError):
            db.add_route(_route("31.0.0.0/16", 1, source="ARIN"))  # RIPE space

    def test_mirror_accepts_anything(self):
        db = IRRDatabase("RADB")
        db.add_route(_route("31.0.0.0/16", 1))
        assert db.route_count == 1

    def test_source_must_match_database(self):
        db = IRRDatabase("RADB")
        with pytest.raises(RPSLError):
            db.add_route(_route("12.0.0.0/16", 1, source="RIPE"))

    def test_insert_rows_checks_the_columns(self):
        """``insert_rows`` runs a route object's and ``add_route``'s
        checks over the columns, and a failed check inserts nothing."""
        db = IRRDatabase("ARIN", authoritative_for=RIR.ARIN)

        def rows(*routes):
            prefixes, origins = zip(*routes)
            columns = route_rows(
                [_p(prefix) for prefix in prefixes],
                origins,
                [0] * len(routes),
                [0] * len(routes),
            )
            return columns, [["MAINT-X", ""] for _ in routes]

        db.insert_rows("ARIN", *rows(("12.0.0.0/16", 1), ("2600::/32", 2)))
        with pytest.raises(RPSLError, match="31.0.0.0/16 is outside ARIN"):
            db.insert_rows(
                "ARIN", *rows(("13.0.0.0/16", 3), ("31.0.0.0/16", 3))
            )
        with pytest.raises(RPSLError, match="2a00::/32 is outside ARIN"):
            db.insert_rows("ARIN", *rows(("2a00::/32", 3)))
        # Covering a pool is not being inside one.
        with pytest.raises(RPSLError, match="12.0.0.0/7 is outside ARIN"):
            db.insert_rows("ARIN", *rows(("12.0.0.0/7", 3)))
        with pytest.raises(RPSLError, match="2600::/19 is outside ARIN"):
            db.insert_rows("ARIN", *rows(("2600::/19", 3)))
        with pytest.raises(ASNError):
            db.insert_rows("ARIN", *rows(("13.0.0.0/16", 2**32)))
        with pytest.raises(ASNError):
            db.insert_rows("ARIN", *rows(("13.0.0.0/16", -1)))
        with pytest.raises(RPSLError, match="does not match"):
            db.insert_rows("RADB", *rows(("13.0.0.0/16", 3)))
        with pytest.raises(RPSLError, match="requires a source"):
            db.insert_rows("", *rows(("13.0.0.0/16", 3)))
        assert [str(route.prefix) for route in db.all_routes()] == [
            "12.0.0.0/16",
            "2600::/32",
        ]
        assert db.version == 2

    def test_remove_route(self):
        db = IRRDatabase("RADB")
        route = _route("12.0.0.0/16", 1)
        db.add_route(route)
        assert db.remove_route(route)
        assert not db.remove_route(route)

    def test_collection_queries_all(self):
        arin = IRRDatabase("ARIN", authoritative_for=RIR.ARIN)
        radb = IRRDatabase("RADB")
        arin.add_route(_route("12.0.0.0/16", 1, source="ARIN"))
        radb.add_route(_route("12.0.0.0/8", 2))
        collection = IRRCollection([arin, radb])
        covering = collection.routes_covering(_p("12.0.0.0/24"))
        assert {r.origin for r in covering} == {1, 2}
        assert collection.route_count == 2

    def test_collection_rejects_duplicate_name(self):
        with pytest.raises(RPSLError):
            IRRCollection([IRRDatabase("RADB"), IRRDatabase("RADB")])

    def test_collection_aut_num_and_as_set_lookup(self):
        radb = IRRDatabase("RADB")
        radb.add_aut_num(AutNumObject(1, "A", "RADB"))
        radb.add_as_set(AsSetObject("AS-X", ("AS1",), "RADB"))
        collection = IRRCollection([radb])
        assert collection.aut_num(1) is not None
        assert collection.aut_num(2) is None
        assert collection.as_set("as-x") is not None


#: v4 prefixes in and out of ARIN's pools, crowded into few networks so
#: that lists repeat and nest prefixes, and v6 prefixes in and out of
#: ARIN's v6 pool.
_ARIN_V4 = RIR.ARIN.v4_pools[0]
_STORE_PREFIXES = st.one_of(
    st.builds(
        lambda key, length: Prefix.from_host(
            _ARIN_V4.value + (key << 20), length, 4
        ),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=_ARIN_V4.length, max_value=14),
    ),
    st.builds(
        lambda key, length: Prefix.from_host(key << 28, length, 4),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=6),
    ),
    st.builds(
        lambda key, length: Prefix.from_host(
            RIR.ARIN.v6_pool.value + (key << 96), length, 6
        ),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=RIR.ARIN.v6_pool.length, max_value=34),
    ),
    st.builds(
        lambda key, length: Prefix.from_host(key << 124, length, 6),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=6),
    ),
)


class TestColumnStore:
    """One column-store database against a reference: a radix trie plus
    a list, fed the same interleaved adds and removes."""

    @settings(max_examples=80, deadline=None)
    @given(
        authoritative=st.booleans(),
        queries=st.lists(_STORE_PREFIXES, max_size=6),
        data=st.data(),
    )
    def test_matches_trie_and_list(self, authoritative, queries, data):
        name = "ARIN" if authoritative else "RADB"
        database = IRRDatabase(
            name, authoritative_for=RIR.ARIN if authoritative else None
        )
        pools = (*RIR.ARIN.v4_pools, RIR.ARIN.v6_pool)
        listed: list[RouteObject] = []
        version = 0
        for _ in range(data.draw(st.integers(min_value=0, max_value=25))):
            if listed and data.draw(st.booleans()):
                # Remove a stored route (maybe one with equal twins) or
                # a copy that differs in one field.
                route = data.draw(st.sampled_from(listed))
                if data.draw(st.booleans()):
                    route = replace(route, descr=route.descr + "x")
                removed = route in listed
                assert database.remove_route(route) is removed
                if removed:
                    listed.remove(route)
                    version += 1
            else:
                prefix = data.draw(_STORE_PREFIXES)
                if listed and data.draw(st.booleans()):
                    route = data.draw(st.sampled_from(listed))
                else:
                    route = RouteObject(
                        prefix=prefix,
                        origin=data.draw(st.integers(1, 4)),
                        source=name,
                        descr=data.draw(st.sampled_from(["", "a"])),
                        created=data.draw(
                            st.sampled_from([None, date(2020, 1, 2)])
                        ),
                    )
                accepted = not authoritative or any(
                    pool.contains(route.prefix) for pool in pools
                )
                if accepted:
                    database.add_route(route)
                    listed.append(route)
                    version += 1
                else:
                    with pytest.raises(RPSLError):
                        database.add_route(route)
            tree: RadixTree[RouteObject] = RadixTree()
            for route in listed:
                tree.insert(route.prefix, route)
            for query in [*queries, *(route.prefix for route in listed)]:
                assert database.routes_covering(query) == tree.covering(query)
            assert database.all_routes() == sorted(
                listed, key=lambda route: address_key(route.prefix)
            )
            assert database.route_count == len(listed)
            assert database.version == version


class TestBulkInsert:
    @settings(max_examples=60, deadline=None)
    @given(
        authoritative=st.booleans(),
        batches=st.lists(
            st.lists(
                st.builds(
                    lambda prefix, origin, descr: (prefix, origin, descr),
                    _STORE_PREFIXES,
                    st.integers(min_value=1, max_value=3),
                    st.sampled_from(["", "a", "b"]),
                ),
                max_size=6,
            ),
            max_size=5,
        ),
    )
    def test_batches_store_what_single_adds_store(self, authoritative, batches):
        """Routes added a batch at a time are stored as if added one at
        a time: the same rows, equal prefixes in insertion order, and the
        same mutation counter; a batch with one route outside an
        authoritative database's space adds nothing."""
        name = "ARIN" if authoritative else "RADB"
        rir = RIR.ARIN if authoritative else None
        bulk = IRRDatabase(name, authoritative_for=rir)
        single = IRRDatabase(name, authoritative_for=rir)
        pools = (*RIR.ARIN.v4_pools, RIR.ARIN.v6_pool)
        for batch in batches:
            routes = [
                RouteObject(prefix, origin, name, descr=descr)
                for prefix, origin, descr in batch
            ]
            accepted = not authoritative or all(
                any(pool.contains(route.prefix) for pool in pools)
                for route in routes
            )
            if accepted:
                bulk.add_routes(routes)
                for route in routes:
                    single.add_route(route)
            else:
                with pytest.raises(RPSLError):
                    bulk.add_routes(routes)
        assert bulk.all_routes() == single.all_routes()
        assert bulk.stored_rows()[1] == single.stored_rows()[1]
        assert bulk.version == single.version


class TestValidation:
    def _registry(self) -> IRRDatabase:
        db = IRRDatabase("RADB")
        db.add_route(_route("12.0.0.0/16", 65001))
        return db

    def test_valid_exact_match(self):
        assert (
            validate_irr(self._registry(), _p("12.0.0.0/16"), 65001)
            is IRRStatus.VALID
        )

    def test_invalid_length_for_more_specific(self):
        assert (
            validate_irr(self._registry(), _p("12.0.1.0/24"), 65001)
            is IRRStatus.INVALID_LENGTH
        )

    def test_invalid_origin(self):
        assert (
            validate_irr(self._registry(), _p("12.0.0.0/16"), 65002)
            is IRRStatus.INVALID_ORIGIN
        )

    def test_not_found(self):
        assert (
            validate_irr(self._registry(), _p("99.0.0.0/8"), 65001)
            is IRRStatus.NOT_FOUND
        )

    def test_any_matching_object_validates(self):
        db = self._registry()
        db.add_route(_route("12.0.0.0/16", 65002))
        assert validate_irr(db, _p("12.0.0.0/16"), 65002) is IRRStatus.VALID

    def test_is_invalid_origin_property(self):
        assert IRRStatus.INVALID_ORIGIN.is_invalid_origin
        assert not IRRStatus.INVALID_LENGTH.is_invalid_origin


class TestAsSetExpansion:
    def _registry(self) -> IRRDatabase:
        db = IRRDatabase("RADB")
        db.add_as_set(AsSetObject("AS-TOP", ("AS1", "AS-MID"), "RADB"))
        db.add_as_set(AsSetObject("AS-MID", ("AS2", "AS-TOP"), "RADB"))  # cycle
        return db

    def test_expansion_with_cycle(self):
        assert expand_as_set(self._registry(), "AS-TOP") == {1, 2}

    def test_case_insensitive(self):
        assert expand_as_set(self._registry(), "as-top") == {1, 2}

    def test_unknown_nested_skipped_by_default(self):
        db = IRRDatabase("RADB")
        db.add_as_set(AsSetObject("AS-X", ("AS1", "AS-MISSING"), "RADB"))
        assert expand_as_set(db, "AS-X") == {1}

    def test_strict_raises_on_unknown(self):
        db = IRRDatabase("RADB")
        with pytest.raises(RPSLError):
            expand_as_set(db, "AS-MISSING", strict=True)


# -- property: RPSL round-trip over arbitrary route objects -----------------

route_objects = st.builds(
    lambda value, length, origin, source: RouteObject(
        prefix=Prefix.from_host(value, length, 4),
        origin=origin,
        source=source,
        mnt_by="MAINT-TEST",
        descr="generated",
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=32),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["RADB", "RIPE", "ARIN", "APNIC"]),
)


@given(st.lists(route_objects, min_size=1, max_size=10))
def test_rpsl_database_roundtrip_property(objects):
    assert parse_database(serialize_database(objects)) == objects
