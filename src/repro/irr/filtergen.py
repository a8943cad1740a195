"""Prefix-filter generation from the IRR (the bgpq3/bgpq4 workflow).

§2.2 notes that IXPs and cloud providers expand customer ``as-set``
objects to decide which announcements to accept.  This module implements
that operator workflow: expand an as-set to its member ASNs, collect
their registered route objects, and emit a prefix filter — each entry a
(prefix, max acceptable length) pair, honouring the usual ``upto``
de-aggregation allowance.

The generated filter is directly usable as a predicate, so tests can
check the operationally important property: a filter built from a clean
IRR admits exactly the registered announcements (plus allowed
more-specifics) and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.irr.asset import expand_as_set
from repro.irr.database import IRRCollection, IRRDatabase
from repro.irr.objects import RouteObject
from repro.net.prefix import Prefix
from repro.net.radix import RadixTree

__all__ = ["FilterEntry", "PrefixFilter", "build_prefix_filter", "origin_filter"]


@dataclass(frozen=True)
class FilterEntry:
    """One generated filter line: accept ``prefix`` up to ``max_length``."""

    prefix: Prefix
    max_length: int
    origin: int

    def admits(self, announced: Prefix) -> bool:
        """Does this entry accept the announcement?"""
        return (
            self.prefix.contains(announced)
            and announced.length <= self.max_length
        )

    def __str__(self) -> str:
        return f"permit {self.prefix} le {self.max_length} (AS{self.origin})"


class PrefixFilter:
    """A compiled prefix filter with radix-backed matching."""

    def __init__(self, entries: list[FilterEntry]):
        self._entries = list(entries)
        self._tree: RadixTree[FilterEntry] = RadixTree()
        for entry in entries:
            self._tree.insert(entry.prefix, entry)

    @property
    def entries(self) -> list[FilterEntry]:
        """All filter lines, in insertion order."""
        return list(self._entries)

    def admits(self, prefix: Prefix, origin: int | None = None) -> bool:
        """Accept ``prefix`` (optionally checking the announcing origin)."""
        for entry in self._tree.covering(prefix):
            if prefix.length > entry.max_length:
                continue
            if origin is not None and entry.origin != origin:
                continue
            return True
        return False

    def render(self) -> str:
        """The filter as router-config-style text."""
        return "\n".join(str(entry) for entry in self._entries)

    def __len__(self) -> int:
        return len(self._entries)


def build_prefix_filter(
    registry: IRRCollection | IRRDatabase,
    as_set_name: str,
    upto: int = 24,
    strict: bool = False,
) -> PrefixFilter:
    """Build the filter for a customer as-set (bgpq-style).

    ``upto`` is the de-aggregation allowance: a registered /16 admits
    announcements down to /``upto`` (default 24, the common IPv4 policy).
    IPv6 route objects get the registered length + 8, capped at /48.
    """
    asns = expand_as_set(registry, as_set_name, strict=strict)
    return origin_filter(registry, asns, upto)


def origin_filter(
    registry: IRRCollection | IRRDatabase,
    origins: Iterable[int],
    upto: int = 24,
) -> PrefixFilter:
    """The filter admitting the route objects registered for ``origins``,
    origin by origin in ascending order (see :func:`build_prefix_filter`
    for the lengths each entry admits)."""
    by_origin: dict[int, list[RouteObject]] = {}
    for route_object in registry.routes_of_origins(origins):
        by_origin.setdefault(route_object.origin, []).append(route_object)
    entries: list[FilterEntry] = []
    seen: set[tuple[Prefix, int]] = set()
    for asn in sorted(by_origin):
        for route_object in by_origin[asn]:
            prefix = route_object.prefix
            if prefix.version == 4:
                max_length = max(prefix.length, upto)
            else:
                max_length = min(prefix.length + 8, 48)
            key = (prefix, asn)
            if key in seen:
                continue
            seen.add(key)
            entries.append(
                FilterEntry(prefix=prefix, max_length=max_length, origin=asn)
            )
    return PrefixFilter(entries)
