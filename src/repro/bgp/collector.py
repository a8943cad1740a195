"""Route collectors: the RouteViews / RIPE RIS substitute.

A collector has a set of *vantage points* (peer ASes exporting their full
tables).  :func:`collect_rib` runs propagation for every announcement and
records the AS path each vantage point selects, producing a
:class:`RibSnapshot` — the raw material for the prefix2as dataset and the
IHR pipeline.

Announcements sharing (origin AS, filter class) propagate identically, so
the snapshot stores one :class:`RouteGroup` per such pair — paths are kept
once per group rather than once per prefix, which keeps full-table
collection affordable in both time and memory.

Real collectors see the Internet through a limited, biased set of vantage
points (mostly large transit networks); §11 of the paper calls this out as
the main limitation.  :func:`select_vantage_points` reproduces that bias:
all large transits, a sample of mediums, and a few edge networks.

Collection runs in-process through the engine's batched resolver
(:meth:`~repro.bgp.propagation.PropagationEngine.paths_to_many`), which
bounds its own working set (DESIGN §18).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import obs
from repro.bgp.announcement import Announcement, RibEntry
from repro.bgp.policy import RouteClass
from repro.bgp.propagation import PropagationEngine
from repro.net.prefix import Prefix
from repro.topology.classify import SizeClass, classify_all
from repro.topology.model import ASTopology

__all__ = ["RouteGroup", "RibSnapshot", "collect_rib", "select_vantage_points"]


@dataclass(frozen=True)
class RouteGroup:
    """Routes for all prefixes of one (origin, filter-class) pair.

    ``paths`` maps each vantage point that selected a route to its AS path
    (vantage point first, origin last).  Vantage points missing from the
    mapping did not receive the announcement — typically because filters
    dropped it on every valley-free path.
    """

    origin: int
    route_class: RouteClass
    prefixes: tuple[Prefix, ...]
    paths: dict[int, tuple[int, ...]]


@dataclass
class RibSnapshot:
    """All routes observed by the collector's vantage points.

    Lookup helpers are backed by lazily built caches (an ``(origin,
    prefix) → groups`` index for :meth:`paths_for` and a materialised
    visible-announcement set).  The caches key off ``len(groups)``:
    appending groups invalidates them, which covers every mutation the
    pipeline performs (``RouteGroup`` itself is frozen).
    """

    vantage_points: tuple[int, ...]
    groups: list[RouteGroup]
    _group_index: dict[tuple[int, Prefix], list[RouteGroup]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _visible: frozenset[Announcement] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _cached_group_count: int = field(
        default=-1, init=False, repr=False, compare=False
    )

    def iter_entries(self) -> Iterator[RibEntry]:
        """Expand groups into per-(vantage point, prefix) RIB entries."""
        for group in self.groups:
            for prefix in group.prefixes:
                for vantage_point, path in group.paths.items():
                    yield RibEntry(
                        vantage_point=vantage_point,
                        prefix=prefix,
                        origin=group.origin,
                        path=path,
                    )

    def _refresh_caches(self) -> None:
        if self._cached_group_count == len(self.groups):
            return
        index: dict[tuple[int, Prefix], list[RouteGroup]] = {}
        visible: set[Announcement] = set()
        for group in self.groups:
            for prefix in group.prefixes:
                index.setdefault((group.origin, prefix), []).append(group)
                if group.paths:
                    visible.add(Announcement(prefix, group.origin))
        self._group_index = index
        self._visible = frozenset(visible)
        self._cached_group_count = len(self.groups)

    @property
    def visible_announcements(self) -> set[Announcement]:
        """Announcements seen by at least one vantage point."""
        self._refresh_caches()
        return set(self._visible or ())

    def paths_for(self, announcement: Announcement) -> list[tuple[int, ...]]:
        """Every vantage-point path recorded for one announcement."""
        self._refresh_caches()
        assert self._group_index is not None
        groups = self._group_index.get(
            (announcement.origin, announcement.prefix), ()
        )
        paths: list[tuple[int, ...]] = []
        for group in groups:
            paths.extend(group.paths.values())
        return paths


def select_vantage_points(
    topology: ASTopology,
    n_medium: int = 25,
    n_small: int = 5,
    seed: int = 0,
) -> tuple[int, ...]:
    """Choose a RouteViews-like vantage-point set.

    Every large AS peers with the collector (as the big transits do in
    reality), plus ``n_medium`` mediums and ``n_small`` edge networks.
    """
    rng = np.random.default_rng(seed)
    sizes = classify_all(topology)
    # Sorted explicitly: inheriting dict-iteration order from classify_all
    # would tie the rng.choice draw to topology insertion order, making
    # vantage-point selection fragile across refactors and numpy versions.
    larges = sorted(asn for asn, size in sizes.items() if size is SizeClass.LARGE)
    mediums = sorted(asn for asn, size in sizes.items() if size is SizeClass.MEDIUM)
    smalls = sorted(asn for asn, size in sizes.items() if size is SizeClass.SMALL)
    chosen = list(larges)
    if mediums:
        count = min(n_medium, len(mediums))
        chosen.extend(int(a) for a in rng.choice(mediums, size=count, replace=False))
    if smalls:
        count = min(n_small, len(smalls))
        chosen.extend(int(a) for a in rng.choice(smalls, size=count, replace=False))
    return tuple(sorted(set(chosen)))


def collect_rib(
    engine: PropagationEngine,
    announcements: Iterable[tuple[Announcement, RouteClass]],
    vantage_points: Sequence[int],
) -> RibSnapshot:
    """Propagate every announcement and record vantage-point routes.

    Groups are keyed and emitted in one deterministic order, and each
    group's paths depend only on (origin, route class, vantage points).
    """
    grouped: dict[tuple[int, RouteClass], list[Prefix]] = {}
    for announcement, route_class in announcements:
        grouped.setdefault((announcement.origin, route_class), []).append(
            announcement.prefix
        )
    keys = sorted(
        grouped,
        key=lambda key: (key[0], key[1].rpki_invalid, key[1].irr_invalid),
    )
    vantage_points = tuple(vantage_points)
    obs.add("collect.route_groups", len(keys))
    obs.gauge("collect.vantage_points", len(vantage_points))
    obs.annotate(groups=len(keys))
    # Size the propagation memo to this snapshot's working set before any
    # lookups, so one snapshot's groups never evict each other.
    engine.ensure_cache_capacity(len(keys))
    paths_by_key = engine.paths_to_many(keys, vantage_points)
    obs.add(
        "collect.routes_propagated",
        sum(len(paths) for paths in paths_by_key),
    )
    groups = [
        RouteGroup(
            origin=origin,
            route_class=route_class,
            prefixes=tuple(sorted(set(grouped[(origin, route_class)]))),
            paths=paths,
        )
        for (origin, route_class), paths in zip(keys, paths_by_key)
    ]
    return RibSnapshot(vantage_points=vantage_points, groups=groups)
