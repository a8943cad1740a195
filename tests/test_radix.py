"""Unit and property tests for covering lookups.

The radix trie serves ROV, address-space lookups and prefix filters.
The IRR holds its route objects as stored columns instead; the trie
operations only the IRR needed (removal, address-order listing,
copying) are tested here on that column store.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.irr.database import IRRDatabase
from repro.irr.objects import RouteObject
from repro.net.prefix import Prefix
from repro.net.radix import RadixTree


def _p(text: str) -> Prefix:
    return Prefix.parse(text)


def _route(prefix: Prefix, origin: int) -> RouteObject:
    return RouteObject(prefix=prefix, origin=origin, source="RADB")


def _origins(routes: list[RouteObject]) -> list[int]:
    return [route.origin for route in routes]


class TestBasics:
    def test_empty(self):
        tree: RadixTree[str] = RadixTree()
        assert len(tree) == 0
        assert tree.covering(_p("10.0.0.0/8")) == []

    def test_insert_and_exact(self):
        tree: RadixTree[str] = RadixTree()
        tree.insert(_p("10.0.0.0/8"), "a")
        assert tree.covering(_p("10.0.0.0/8")) == ["a"]
        assert tree.covering(_p("10.0.0.0/7")) == []
        assert len(tree) == 1

    def test_duplicate_values_allowed(self):
        tree: RadixTree[str] = RadixTree()
        tree.insert(_p("10.0.0.0/8"), "a")
        tree.insert(_p("10.0.0.0/8"), "b")
        assert tree.covering(_p("10.0.0.0/8")) == ["a", "b"]

    def test_covering_order_least_specific_first(self):
        tree: RadixTree[str] = RadixTree()
        tree.insert(_p("10.0.0.0/8"), "eight")
        tree.insert(_p("10.0.0.0/16"), "sixteen")
        assert tree.covering(_p("10.0.0.0/24")) == ["eight", "sixteen"]

    def test_covering_includes_exact(self):
        tree: RadixTree[str] = RadixTree()
        tree.insert(_p("10.0.0.0/24"), "x")
        assert tree.covering(_p("10.0.0.0/24")) == ["x"]

    def test_covering_excludes_more_specific(self):
        tree: RadixTree[str] = RadixTree()
        tree.insert(_p("10.0.0.0/24"), "specific")
        assert tree.covering(_p("10.0.0.0/8")) == []

    def test_covering_excludes_siblings(self):
        tree: RadixTree[str] = RadixTree()
        tree.insert(_p("10.0.0.0/9"), "low")
        assert tree.covering(_p("10.128.0.0/16")) == []

    def test_root_default_route_covers_everything(self):
        tree: RadixTree[str] = RadixTree()
        tree.insert(_p("0.0.0.0/0"), "default")
        assert tree.covering(_p("203.0.113.0/24")) == ["default"]

    def test_remove(self):
        """The IRR column store removes one equal route object."""
        database = IRRDatabase("RADB")
        route = _route(_p("10.0.0.0/8"), 1)
        database.add_route(route)
        assert database.remove_route(route)
        assert not database.remove_route(route)
        assert database.route_count == 0
        assert database.routes_covering(_p("10.0.0.0/24")) == []

    def test_remove_missing_prefix(self):
        database = IRRDatabase("RADB")
        database.add_route(_route(_p("10.0.0.0/16"), 1))
        assert not database.remove_route(_route(_p("10.0.0.0/8"), 1))
        assert not database.remove_route(_route(_p("10.0.0.0/16"), 2))
        assert database.route_count == 1

    def test_versions_do_not_collide(self):
        tree: RadixTree[str] = RadixTree()
        tree.insert(_p("::/0"), "v6-default")
        assert tree.covering(_p("10.0.0.0/8")) == []
        assert tree.covering(_p("2001:db8::/32")) == ["v6-default"]

    def test_items_in_address_order(self):
        """The IRR column store lists its rows in address order."""
        database = IRRDatabase("RADB")
        for text in ("11.0.0.0/8", "2001:db8::/32", "10.0.0.0/8"):
            database.add_route(_route(_p(text), 1))
        assert [str(r.prefix) for r in database.all_routes()] == [
            "10.0.0.0/8",
            "11.0.0.0/8",
            "2001:db8::/32",
        ]


# -- property tests against a brute-force oracle -----------------------------

prefix_strategy = st.builds(
    lambda value, length: Prefix.from_host(value, length, 4),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=28),
)


@given(
    st.lists(prefix_strategy, min_size=0, max_size=40),
    prefix_strategy,
)
def test_covering_matches_bruteforce(stored, query):
    tree: RadixTree[int] = RadixTree()
    for index, prefix in enumerate(stored):
        tree.insert(prefix, index)
    expected = sorted(
        index for index, prefix in enumerate(stored) if prefix.contains(query)
    )
    assert sorted(tree.covering(query)) == expected


prefix_v6_strategy = st.builds(
    lambda value, length: Prefix.from_host(value, length, 6),
    st.integers(min_value=0, max_value=2**128 - 1),
    st.integers(min_value=0, max_value=64),
)

#: A few short prefixes in a tiny address space, so lists repeat and
#: nest prefixes: per-prefix insertion order and parent-before-child
#: order both get exercised.
crowded_strategy = st.builds(
    lambda value, length: Prefix.from_host(value << 29, length, 4),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=3),
)


@given(
    st.lists(
        st.one_of(prefix_strategy, prefix_v6_strategy, crowded_strategy),
        min_size=1,
        max_size=25,
    )
)
def test_items_roundtrip(stored):
    """The IRR column store's ``all_routes()`` is the stable
    ``(version, value, length)`` sort of the added routes: address
    order, equal prefixes in insertion order."""
    database = IRRDatabase("RADB")
    for index, prefix in enumerate(stored):
        database.add_route(_route(prefix, index + 1))
    expected = sorted(
        range(len(stored)),
        key=lambda index: (
            stored[index].version,
            stored[index].value,
            stored[index].length,
        ),
    )
    assert _origins(database.all_routes()) == [i + 1 for i in expected]


@given(
    st.lists(
        st.one_of(prefix_strategy, prefix_v6_strategy, crowded_strategy),
        min_size=1,
        max_size=25,
    ),
    st.one_of(prefix_strategy, prefix_v6_strategy, crowded_strategy),
    st.data(),
)
def test_copy_is_equal_and_independent(stored, extra, data):
    """An IRR column store's copy lists the source's routes in the
    source's order and finds the same covering routes; adding to or
    removing from either leaves the other as it was."""
    database = IRRDatabase("RADB")
    for index, prefix in enumerate(stored):
        database.add_route(_route(prefix, index + 1))
    database.remove_route(_route(stored[0], 1))
    keys = [*stored, extra]

    def contents(store: IRRDatabase):
        return store.all_routes(), [store.routes_covering(key) for key in keys]

    before = contents(database)
    copy = database.copy()
    assert contents(copy) == before
    assert copy.route_count == database.route_count
    assert copy.version == database.route_count

    kept = before[0]
    copy.add_route(_route(extra, 999))
    if kept:
        victim = data.draw(st.sampled_from(kept))
        assert copy.remove_route(victim)
    assert contents(database) == before
    assert database.route_count == len(kept)

    database.add_route(_route(extra, 998))
    assert 998 not in _origins(copy.all_routes())
