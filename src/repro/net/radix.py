"""Binary radix (Patricia-style) trie keyed by IP prefixes.

Both RPKI route origin validation and IRR route-object matching need the
same primitive: given a BGP prefix, find every registered entry whose
prefix *covers* it (RFC 6811 calls these "covering VRPs").  A binary trie
indexed by address bits answers that in O(prefix length).

The trie stores a list of values per node so that multiple objects can be
registered under the same prefix (e.g. two ROAs for the same prefix with
different origin ASNs).  IPv4 and IPv6 entries live in separate roots so
key bits never collide.
"""

from __future__ import annotations

from typing import Generic, Iterable, Iterator, TypeVar

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
    in real registries), ``covering`` walks root-to-leaf collecting every
    match, and ``search_exact`` returns only the values stored at the
    queried prefix.
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

    def insert_sorted(self, items: Iterable[tuple[Prefix, V]]) -> None:
        """Bulk-insert ``(prefix, value)`` pairs given in address order.

        Equivalent to calling :meth:`insert` per pair (including the
        per-node value ordering), but consecutive keys in address order
        share long common bit-prefixes, so the walk resumes from the
        deepest node still on the previous key's path instead of
        re-descending from the root.  Checkpoint restores feed whole
        registry dumps through here; the shared-path skip roughly halves
        the rebuild cost of a full-scale IRR trie.

        Items must be sorted ascending by ``(version, value, length)``
        (the natural :class:`Prefix` order); out-of-order input falls
        back to correctness-preserving full descents only when the
        version changes, so truly unsorted streams belong in
        :meth:`insert`.
        """
        stack: list[_Node[V]] = []
        prev_value = 0
        prev_length = 0
        prev_version = -1
        for prefix, value in items:
            address = prefix.value
            length = prefix.length
            bits = prefix.bits
            if prefix.version != prev_version:
                stack = [self._roots[prefix.version]]
                prev_version = prefix.version
                prev_value = 0
                prev_length = 0
            diff = address ^ prev_value
            common = bits - diff.bit_length() if diff else bits
            depth = min(common, length, prev_length)
            del stack[depth + 1:]
            node = stack[depth]
            shift = bits - 1 - depth
            for _ in range(length - depth):
                bit = (address >> shift) & 1
                shift -= 1
                child = node.children[bit]
                if child is None:
                    child = _Node()
                    node.children[bit] = child
                node = child
                stack.append(node)
            if node.values is None:
                node.values = []
            node.values.append(value)
            self._size += 1
            prev_value = address
            prev_length = length

    def remove(self, prefix: Prefix, value: V) -> bool:
        """Remove one occurrence of ``value`` at ``prefix``.

        Returns True if something was removed.  Empty interior nodes are
        left in place; the trie is insert-heavy and rebuilt per snapshot,
        so path compression on delete is not worth the complexity.
        """
        node: _Node[V] | None = self._roots[prefix.version]
        for i in range(prefix.length):
            if node is None:
                return False
            node = node.children[prefix.bit_at(i)]
        if node is None or not node.values:
            return False
        try:
            node.values.remove(value)
        except ValueError:
            return False
        self._size -= 1
        return True

    def search_exact(self, prefix: Prefix) -> list[V]:
        """Values registered at exactly ``prefix`` (possibly empty)."""
        node: _Node[V] | None = self._roots[prefix.version]
        for i in range(prefix.length):
            if node is None:
                return []
            node = node.children[prefix.bit_at(i)]
        if node is None or node.values is None:
            return []
        return list(node.values)

    def covering(self, prefix: Prefix) -> list[V]:
        """All values whose prefix contains ``prefix`` (including exact).

        Matches are returned shortest-prefix first (least specific to most
        specific), which callers use e.g. to prefer the most specific IRR
        route object.
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

    def covering_many(
        self, prefixes: Iterable[Prefix]
    ) -> dict[Prefix, list[V]]:
        """Covering values for many prefixes in one deduplicated pass.

        Queries are deduplicated (bulk callers repeat prefixes heavily —
        one per announcement, not per distinct prefix) and each distinct
        prefix gets one inlined root-to-leaf walk.  A sorted walk sharing
        path segments between address-adjacent queries was measured here
        and lost: these tries are shallow and sparse, so the per-query
        stack bookkeeping costs more than the few levels it saves.
        Per-prefix results are identical to :meth:`covering`, including
        the shortest-first ordering.
        """
        results: dict[Prefix, list[V]] = {}
        roots = self._roots
        for prefix in prefixes:
            if prefix in results:
                continue
            found: list[V] = []
            node: _Node[V] | None = roots[prefix.version]
            address = prefix.value
            shift = prefix.bits - 1
            for _ in range(prefix.length):
                if node.values:
                    found.extend(node.values)
                node = node.children[(address >> shift) & 1]
                shift -= 1
                if node is None:
                    break
            else:
                if node.values:
                    found.extend(node.values)
            results[prefix] = found
        return results

    def covered(self, prefix: Prefix) -> list[V]:
        """All values at ``prefix`` or more-specific prefixes under it."""
        node: _Node[V] | None = self._roots[prefix.version]
        for i in range(prefix.length):
            if node is None:
                return []
            node = node.children[prefix.bit_at(i)]
        if node is None:
            return []
        found: list[V] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if current.values:
                found.extend(current.values)
            for child in current.children:
                if child is not None:
                    stack.append(child)
        return found

    def has_covering(self, prefix: Prefix) -> bool:
        """Cheap test for "is there any covering entry at all?"."""
        node: _Node[V] | None = self._roots[prefix.version]
        address = prefix.value
        shift = prefix.bits - 1
        for _ in range(prefix.length):
            if node.values:
                return True
            node = node.children[(address >> shift) & 1]
            shift -= 1
            if node is None:
                return False
        return bool(node.values)

    def items(self) -> Iterator[tuple[Prefix, V]]:
        """Iterate over every (prefix, value) pair in address order.

        A pre-order walk, 0-child first, with each node's values in
        insertion order: ascending ``(version, value, length)``, ties in
        insertion order.  An explicit stack keeps the per-item cost flat
        (nested generators would re-yield each item once per trie
        level), and each node's prefix is built once, unchecked, from
        the bits that led to it.
        """
        trusted = Prefix._from_trusted  # noqa: SLF001 - bits are a valid prefix
        for version, bits in ((4, 32), (6, 128)):
            stack = [(self._roots[version], 0, 0)]
            while stack:
                node, value, depth = stack.pop()
                if node.values:
                    prefix = trusted(value << (bits - depth), depth, version)
                    for stored in node.values:
                        yield prefix, stored
                zero, one = node.children
                if one is not None:
                    stack.append((one, (value << 1) | 1, depth + 1))
                if zero is not None:
                    stack.append((zero, value << 1, depth + 1))
