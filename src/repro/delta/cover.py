"""Cover sets: which routes can a registry change possibly affect?

Both RFC 6811 (RPKI) and the paper's IRR procedure classify a route
``(prefix, origin)`` from the set of registry objects whose prefix
*contains* the route's prefix.  Adding or removing an object with prefix
``c`` can therefore only change verdicts of routes whose prefix lies
inside ``c`` — same address family, ``c.first <= p.first`` and
``p.last <= c.last``.  :class:`RouteCoverIndex` answers "which of my
routes does this changed-prefix set cover" with one ``searchsorted``
slice per changed prefix, which is what lets the live world re-validate
a handful of routes per event instead of the whole table.

The over-approximation is sound but not tight: a covered route's verdict
may come out unchanged (the changed object matched a different origin,
say) — the delta layer re-validates the cover set and only regroups
actual flips.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from repro.net.prefix import Prefix
from repro.rpki.roa import VRP

__all__ = ["RouteCoverIndex", "vrp_delta"]


class RouteCoverIndex:
    """A fixed route set, indexed for containment-by-changed-prefix.

    Routes are ``(prefix, origin)`` pairs; :meth:`affected` returns the
    sorted, de-duplicated *indices* (into the construction sequence) of
    every route some changed prefix contains.  IPv4 probes the sorted
    columns with ``np.searchsorted``; IPv6 (whose addresses overflow
    int64) bisects the same sorted entries in :meth:`_affected_python`.
    Both agree exactly with a brute-force containment scan (pinned by a
    Hypothesis property test).
    """

    def __init__(self, routes: Sequence[tuple[Prefix, int]]):
        by_version: dict[int, list[tuple[int, int, int]]] = {}
        for index, (prefix, _) in enumerate(routes):
            by_version.setdefault(prefix.version, []).append(
                (prefix.first, prefix.last, index)
            )
        self._entries: dict[int, list[tuple[int, int, int]]] = {}
        self._firsts: dict[int, list[int]] = {}
        self._arrays: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for version, entries in by_version.items():
            entries.sort()
            self._entries[version] = entries
            self._firsts[version] = [first for first, _, _ in entries]

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._entries.values())

    def _version_arrays(
        self, version: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        arrays = self._arrays.get(version)
        if arrays is None:
            entries = self._entries[version]
            firsts = np.fromiter(
                (first for first, _, _ in entries),
                dtype=np.int64,
                count=len(entries),
            )
            lasts = np.fromiter(
                (last for _, last, _ in entries),
                dtype=np.int64,
                count=len(entries),
            )
            indices = np.fromiter(
                (index for _, _, index in entries),
                dtype=np.int64,
                count=len(entries),
            )
            arrays = (firsts, lasts, indices)
            self._arrays[version] = arrays
        return arrays

    def _affected_python(self, changed: Iterable[Prefix]) -> list[int]:
        hits: set[int] = set()
        for prefix in changed:
            entries = self._entries.get(prefix.version)
            if not entries:
                continue
            firsts = self._firsts[prefix.version]
            low = bisect_left(firsts, prefix.first)
            high = bisect_right(firsts, prefix.last)
            for first, last, index in entries[low:high]:
                if last <= prefix.last:
                    hits.add(index)
        return sorted(hits)

    def affected(self, changed: Iterable[Prefix]) -> list[int]:
        """Indices of routes contained in any changed prefix (sorted)."""
        hits: set[int] = set()
        v6_pending: list[Prefix] = []
        for prefix in changed:
            if prefix.version not in self._entries:
                continue
            if prefix.version == 6:
                # IPv6 address integers exceed int64; the bisect walk
                # over the same sorted entries is exact and v6 tables
                # are a sliver of the route set.
                v6_pending.append(prefix)
                continue
            firsts, lasts, indices = self._version_arrays(prefix.version)
            low = int(np.searchsorted(firsts, prefix.first, side="left"))
            high = int(np.searchsorted(firsts, prefix.last, side="right"))
            if low >= high:
                continue
            mask = lasts[low:high] <= prefix.last
            hits.update(int(i) for i in indices[low:high][mask])
        if v6_pending:
            hits.update(self._affected_python(v6_pending))
        return sorted(hits)


def vrp_delta(
    old: Iterable[VRP], new: Iterable[VRP]
) -> tuple[list[VRP], list[VRP]]:
    """``(added, removed)``: the multiset difference of two VRP lists.

    VRP lists compare as multisets (the relying party can emit genuine
    duplicates from duplicate ROAs, and dropping one of two equal VRPs
    removes one copy), so both sides are blind to order.  The prefixes
    of the added and removed VRPs drive the cover-set re-validation;
    two empty lists certify that every route's covering VRP set — hence
    every RFC 6811 verdict — is unchanged.
    """
    old_counts = Counter(old)
    new_counts = Counter(new)
    return (
        list((new_counts - old_counts).elements()),
        list((old_counts - new_counts).elements()),
    )
