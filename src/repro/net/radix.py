"""Binary radix (Patricia-style) trie keyed by IP prefixes.

RPKI route origin validation, address-space lookups and IRR prefix
filters need the same primitive: given a BGP prefix, find every
registered entry whose prefix *covers* it (RFC 6811 calls these
"covering VRPs").  A binary trie indexed by address bits answers that in
O(prefix length).

The trie stores a list of values per node so that multiple objects can be
registered under the same prefix (e.g. two ROAs for the same prefix with
different origin ASNs).  IPv4 and IPv6 entries live in separate roots so
key bits never collide.
"""

from __future__ import annotations

from typing import Generic, TypeVar

from repro.net.prefix import Prefix

__all__ = ["RadixTree"]

V = TypeVar("V")


class _Node(Generic[V]):
    __slots__ = ("children", "values")

    def __init__(self) -> None:
        self.children: list["_Node[V] | None"] = [None, None]
        self.values: list[V] | None = None


class RadixTree(Generic[V]):
    """Map from :class:`Prefix` to lists of values with covering lookups.

    ``insert`` appends (duplicate values under one prefix are allowed, as
    in real registries) and ``covering`` walks root-to-leaf collecting
    every match.
    """

    def __init__(self) -> None:
        self._roots: dict[int, _Node[V]] = {4: _Node(), 6: _Node()}
        self._size = 0

    def __len__(self) -> int:
        """Number of inserted values (not distinct prefixes)."""
        return self._size

    def insert(self, prefix: Prefix, value: V) -> None:
        """Register ``value`` under ``prefix``."""
        node = self._roots[prefix.version]
        address = prefix.value
        shift = prefix.bits - 1
        for _ in range(prefix.length):
            bit = (address >> shift) & 1
            shift -= 1
            child = node.children[bit]
            if child is None:
                child = _Node()
                node.children[bit] = child
            node = child
        if node.values is None:
            node.values = []
        node.values.append(value)
        self._size += 1

    def covering(self, prefix: Prefix) -> list[V]:
        """All values whose prefix contains ``prefix`` (including exact).

        Matches are returned shortest-prefix first (least specific to most
        specific), each prefix's values in insertion order.
        """
        found: list[V] = []
        node: _Node[V] | None = self._roots[prefix.version]
        address = prefix.value
        shift = prefix.bits - 1
        for _ in range(prefix.length):
            if node.values:
                found.extend(node.values)
            node = node.children[(address >> shift) & 1]
            shift -= 1
            if node is None:
                return found
        if node.values:
            found.extend(node.values)
        return found
