"""Routing-table derivations: the prefix2as dataset (CAIDA substitute).

CAIDA's Routeviews prefix2as files map each routed prefix to the origin
AS(es) observed at the collectors.  The paper uses them for routed address
space accounting (Figures 4b and 6) and registration completeness
(Finding 7.0).  We derive the same mapping from the collectors' visible
``(origin, prefixes)`` groups — a :class:`RibSnapshot`'s, or the same
groups read from a checkpoint's stored RIB columns — and serialise it in
the upstream tab-separated format (``<network>\t<length>\t<asn[,asn...]>``).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.bgp.collector import RibSnapshot
from repro.errors import DatasetError
from repro.net.prefix import Prefix, address_key, aggregate_address_count

__all__ = [
    "Prefix2AS",
    "V4Columns",
    "serialize_prefix2as",
    "parse_prefix2as",
]


class V4Columns:
    """Columnar view of the v4 ``(origin, prefix)`` rows of a mapping.

    Rows are presorted by ``(first address, length)`` — the order the
    interval sweep in :func:`repro.net.prefix.aggregate_address_count`
    needs — so any boolean population mask selects an already-ordered
    subset and per-population address counting never re-sorts.  The
    unique-prefix columns cover the distinct ``(value, length)`` pairs;
    ``unique_inverse`` maps each row to its distinct prefix, letting
    per-prefix coverage verdicts broadcast back onto rows.
    """

    __slots__ = (
        "origins",
        "firsts",
        "lasts",
        "unique_values",
        "unique_lengths",
        "unique_inverse",
    )

    def __init__(self, origins: list[int], prefixes: list[Prefix]):
        self.origins = np.array(origins, dtype=np.int64)
        firsts = np.array([p.first for p in prefixes], dtype=np.int64)
        lasts = np.array([p.last for p in prefixes], dtype=np.int64)
        values = np.array([p.value for p in prefixes], dtype=np.uint64)
        lengths = np.array([p.length for p in prefixes], dtype=np.int64)
        order = np.lexsort((lengths, firsts))
        self.origins = self.origins[order]
        self.firsts = firsts[order]
        self.lasts = lasts[order]
        values = values[order]
        lengths = lengths[order]
        packed = self.firsts * np.int64(64) + lengths
        _, first_at, inverse = np.unique(
            packed, return_index=True, return_inverse=True
        )
        self.unique_values = values[first_at]
        self.unique_lengths = lengths[first_at]
        self.unique_inverse = inverse


def _build_origin_map(
    groups: Iterable[tuple[int, Iterable[Prefix]]],
) -> dict[Prefix, frozenset[int]]:
    """Prefix → origin ASes over visible ``(origin, prefixes)`` groups.

    The one builder behind both feeds: :meth:`Prefix2AS.from_rib` walks
    a snapshot's groups, and a checkpoint's lazy world walks the same
    groups in the same order straight from the stored RIB columns
    (:meth:`Prefix2AS.from_groups`).  Keys are in first-sighting order,
    group by group and prefix by prefix, so the two feeds give equal
    mappings item for item.  Single-origin prefixes (nearly all of
    them) share one frozenset per origin.
    """
    origins: dict[Prefix, frozenset[int]] = {}
    singles: dict[int, frozenset[int]] = {}
    for origin, prefixes in groups:
        single = singles.get(origin)
        if single is None:
            single = singles[origin] = frozenset((origin,))
        for prefix in prefixes:
            seen = origins.setdefault(prefix, single)
            if origin not in seen:
                origins[prefix] = seen | single
    return origins


class Prefix2AS:
    """An immutable prefix → origin-AS mapping snapshot.

    Built from a RIB the mapping is *lazy*: :meth:`from_rib` only keeps
    a reference to the snapshot and the prefix → origins dict
    materialises on first use, since a world build constructs a
    Prefix2AS unconditionally while many callers (unit experiments,
    cache warms) never query it.  A checkpoint's lazy world builds its
    mapping with :meth:`from_groups` from the stored RIB columns
    instead, so reading ``prefix2as`` never decodes the RIB's paths.
    """

    def __init__(self, origins: dict[Prefix, frozenset[int]]):
        self._origins: dict[Prefix, frozenset[int]] | None = dict(origins)
        self._rib: RibSnapshot | None = None
        self._by_origin: dict[int, list[Prefix]] | None = None
        self._origin_asns: list[int] | None = None
        self._v4_columns: V4Columns | None = None
        self._total_address_space: int | None = None

    @classmethod
    def from_rib(cls, snapshot: RibSnapshot) -> "Prefix2AS":
        """Build the mapping from everything visible at the collectors."""
        mapping = cls({})
        mapping._origins = None
        mapping._rib = snapshot
        return mapping

    @classmethod
    def from_groups(
        cls, groups: Iterable[tuple[int, Iterable[Prefix]]]
    ) -> "Prefix2AS":
        """Build the mapping now from visible ``(origin, prefixes)`` groups."""
        mapping = cls({})
        mapping._origins = _build_origin_map(groups)
        return mapping

    def _origin_map(self) -> dict[Prefix, frozenset[int]]:
        if self._origins is None:
            self._origins = _build_origin_map(
                (group.origin, group.prefixes)
                for group in self._rib.groups
                if group.paths
            )
            self._rib = None
        return self._origins

    def origins_of(self, prefix: Prefix) -> frozenset[int]:
        """Observed origin ASes for ``prefix`` (empty if unrouted)."""
        return self._origin_map().get(prefix, frozenset())

    @property
    def prefixes(self) -> list[Prefix]:
        """All routed prefixes in address order."""
        return sorted(self._origin_map(), key=address_key)

    def _origin_index(self) -> dict[int, list[Prefix]]:
        if self._by_origin is None:
            index: dict[int, list[Prefix]] = {}
            for prefix, origins in self._origin_map().items():
                for origin in origins:
                    index.setdefault(origin, []).append(prefix)
            # Sort once at index build: the saturation sweeps query
            # prefixes_of for every origin per year, and the mapping is
            # immutable, so per-call sorting was pure rework.
            for prefixes in index.values():
                prefixes.sort()
            self._by_origin = index
        return self._by_origin

    def prefixes_of(self, asn: int) -> list[Prefix]:
        """Prefixes originated by ``asn``, in address order."""
        return list(self._origin_index().get(asn, ()))

    @property
    def origin_asns(self) -> list[int]:
        """All ASNs that originate at least one prefix."""
        if self._origin_asns is None:
            self._origin_asns = sorted(self._origin_index())
        return self._origin_asns

    def v4_columns(self) -> V4Columns:
        """The columnar (and cached) view of all v4 origination rows."""
        if self._v4_columns is None:
            index = self._origin_index()
            origins: list[int] = []
            prefixes: list[Prefix] = []
            for asn in sorted(index):
                for prefix in index[asn]:
                    if prefix.version == 4:
                        origins.append(asn)
                        prefixes.append(prefix)
            self._v4_columns = V4Columns(origins, prefixes)
        return self._v4_columns

    def address_space_of(self, asns: frozenset[int] | set[int]) -> int:
        """Distinct IPv4 addresses originated by the given ASes."""
        index = self._origin_index()
        prefixes = [
            prefix
            for asn in asns
            for prefix in index.get(asn, [])
            if prefix.version == 4
        ]
        return aggregate_address_count(prefixes)

    @property
    def total_address_space(self) -> int:
        """Distinct IPv4 addresses in the whole table (computed once)."""
        if self._total_address_space is None:
            self._total_address_space = aggregate_address_count(
                prefix for prefix in self._origin_map() if prefix.version == 4
            )
        return self._total_address_space

    def __len__(self) -> int:
        return len(self._origin_map())


def serialize_prefix2as(mapping: Prefix2AS) -> str:
    """Render the CAIDA tab-separated prefix2as format."""
    origin_map = mapping._origin_map()  # noqa: SLF001 - read once, not per prefix
    lines = []
    for prefix in mapping.prefixes:
        origins = ",".join(map(str, sorted(origin_map[prefix])))
        lines.append(f"{prefix.network_address}\t{prefix.length}\t{origins}")
    return "\n".join(lines) + "\n"


def parse_prefix2as(text: str) -> Prefix2AS:
    """Parse the format produced by :func:`serialize_prefix2as`."""
    origins: dict[Prefix, frozenset[int]] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DatasetError(f"bad prefix2as record at line {line_number}")
        network, length_text, asn_text = fields
        try:
            prefix = Prefix.parse(f"{network}/{int(length_text)}")
            asns = frozenset(int(a) for a in asn_text.split(","))
        except ValueError as exc:
            raise DatasetError(
                f"bad prefix2as record at line {line_number}: {line!r}"
            ) from exc
        origins[prefix] = asns
    return Prefix2AS(origins)
