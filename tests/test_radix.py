"""Unit and property tests for the radix trie."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.net.prefix import Prefix
from repro.net.radix import RadixTree


def _p(text: str) -> Prefix:
    return Prefix.parse(text)


class TestBasics:
    def test_empty(self):
        tree: RadixTree[str] = RadixTree()
        assert len(tree) == 0
        assert tree.covering(_p("10.0.0.0/8")) == []
        assert not tree.has_covering(_p("10.0.0.0/8"))

    def test_insert_and_exact(self):
        tree: RadixTree[str] = RadixTree()
        tree.insert(_p("10.0.0.0/8"), "a")
        assert tree.search_exact(_p("10.0.0.0/8")) == ["a"]
        assert tree.search_exact(_p("10.0.0.0/9")) == []
        assert len(tree) == 1

    def test_duplicate_values_allowed(self):
        tree: RadixTree[str] = RadixTree()
        tree.insert(_p("10.0.0.0/8"), "a")
        tree.insert(_p("10.0.0.0/8"), "b")
        assert sorted(tree.search_exact(_p("10.0.0.0/8"))) == ["a", "b"]

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

    def test_covered_returns_subtree(self):
        tree: RadixTree[str] = RadixTree()
        tree.insert(_p("10.0.0.0/16"), "a")
        tree.insert(_p("10.0.1.0/24"), "b")
        tree.insert(_p("11.0.0.0/8"), "c")
        assert sorted(tree.covered(_p("10.0.0.0/8"))) == ["a", "b"]

    def test_remove(self):
        tree: RadixTree[str] = RadixTree()
        tree.insert(_p("10.0.0.0/8"), "a")
        assert tree.remove(_p("10.0.0.0/8"), "a")
        assert not tree.remove(_p("10.0.0.0/8"), "a")
        assert len(tree) == 0
        assert tree.covering(_p("10.0.0.0/24")) == []

    def test_remove_missing_prefix(self):
        tree: RadixTree[str] = RadixTree()
        assert not tree.remove(_p("10.0.0.0/8"), "a")

    def test_versions_do_not_collide(self):
        tree: RadixTree[str] = RadixTree()
        tree.insert(_p("::/0"), "v6-default")
        assert tree.covering(_p("10.0.0.0/8")) == []
        assert tree.covering(_p("2001:db8::/32")) == ["v6-default"]

    def test_items_in_address_order(self):
        tree: RadixTree[str] = RadixTree()
        tree.insert(_p("11.0.0.0/8"), "b")
        tree.insert(_p("10.0.0.0/8"), "a")
        tree.insert(_p("2001:db8::/32"), "c")
        assert [str(p) for p, _ in tree.items()] == [
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
    assert tree.has_covering(query) == bool(expected)


@given(
    st.lists(prefix_strategy, min_size=0, max_size=40),
    prefix_strategy,
)
def test_covered_matches_bruteforce(stored, query):
    tree: RadixTree[int] = RadixTree()
    for index, prefix in enumerate(stored):
        tree.insert(prefix, index)
    expected = sorted(
        index for index, prefix in enumerate(stored) if query.contains(prefix)
    )
    assert sorted(tree.covered(query)) == expected


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
    """``items()`` is the stable ``(version, value, length)`` sort of the
    insertion pairs: address order, equal prefixes in insertion order."""
    tree: RadixTree[int] = RadixTree()
    for index, prefix in enumerate(stored):
        tree.insert(prefix, index)
    expected = sorted(
        zip(stored, range(len(stored))),
        key=lambda item: (item[0].version, item[0].value, item[0].length),
    )
    assert list(tree.items()) == expected
