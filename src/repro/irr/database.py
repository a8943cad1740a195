"""IRR databases and the multi-database collection.

Authoritative databases are run by the RIRs and only accept objects for
address space they administer; non-authoritative databases (like RADB)
accept anything, which is one source of the IRR's accuracy problems
(§2.2, [20]).  :class:`IRRCollection` aggregates several databases the way
RADB's mirror list does — queries search every member database.

A database holds its route objects as the columns a checkpoint stores
them in (:data:`ROUTE_COLUMNS`: the prefix as integers, the origin, the
created and last-modified dates as ordinals) plus each row's
``[mnt_by, descr]``, in address order with equal prefixes in insertion
order.  A reopened world wraps its mapped column slices as they are.
Routes enter by one path, :meth:`IRRDatabase.insert_rows`: encoded rows,
checked over the columns and merged in one pass (a world build hands
each database all its rows in one call, so a built route is never an
object).  Edits replace the columns and the string list instead of
writing into them, so a copy shares them until it is edited
(copy-on-write).  Lookups search a sorted key per row and turn only the
rows they return into :class:`RouteObject` instances.  Aut-num and
as-set objects reopened from a checkpoint stay its stored rows
(:func:`aut_num_row`, :func:`as_set_row`) until a lookup reads one, and
are written back as held.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from datetime import date
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.errors import RPSLError
from repro.irr.objects import AsSetObject, AutNumObject, RouteObject
from repro.net.asn import MAX_ASN, validate_asn
from repro.net.prefix import Prefix, prefix_columns, prefixes_from_columns
from repro.registry.rir import RIR

__all__ = [
    "ROUTE_COLUMNS",
    "IRRDatabase",
    "IRRCollection",
    "as_set_row",
    "aut_num_row",
    "route_columns",
    "route_rows",
]

#: The stored route columns, in the order a checkpoint writes them.
ROUTE_COLUMNS = (
    "irr_prefix_hi",
    "irr_prefix_lo",
    "irr_prefix_len",
    "irr_prefix_ver",
    "irr_origin",
    "irr_created",
    "irr_modified",
)


def aut_num_row(aut_num: AutNumObject) -> list:
    """An aut-num object as a checkpoint stores it."""
    return [
        aut_num.asn,
        aut_num.as_name,
        aut_num.source,
        aut_num.mnt_by,
        aut_num.admin_c,
        aut_num.tech_c,
        list(aut_num.import_lines),
        list(aut_num.export_lines),
        aut_num.last_modified.isoformat() if aut_num.last_modified else None,
    ]


def _aut_num_of(row: list) -> AutNumObject:
    """The aut-num object of an :func:`aut_num_row`."""
    (
        asn,
        as_name,
        source,
        mnt_by,
        admin_c,
        tech_c,
        import_lines,
        export_lines,
        last_modified,
    ) = row
    return AutNumObject(
        asn=asn,
        as_name=as_name,
        source=source,
        mnt_by=mnt_by,
        admin_c=admin_c,
        tech_c=tech_c,
        import_lines=tuple(import_lines),
        export_lines=tuple(export_lines),
        last_modified=(
            date.fromisoformat(last_modified) if last_modified else None
        ),
    )


def as_set_row(as_set: AsSetObject) -> list:
    """An as-set object as a checkpoint stores it."""
    return [as_set.name, list(as_set.members), as_set.source, as_set.mnt_by]


def _as_set_of(row: list) -> AsSetObject:
    """The as-set object of an :func:`as_set_row`."""
    name, members, source, mnt_by = row
    return AsSetObject(
        name=name, members=tuple(members), source=source, mnt_by=mnt_by
    )


def _ordinal(day: date | None) -> int:
    """Dates as proleptic-Gregorian ordinals; 0 encodes ``None``."""
    return day.toordinal() if day is not None else 0


def route_rows(
    prefixes: Sequence[Prefix],
    origins: Sequence[int],
    created: Sequence[int],
    modified: Sequence[int],
) -> dict[str, np.ndarray]:
    """The :data:`ROUTE_COLUMNS` of routes given field by field, row for
    row; ``created`` and ``modified`` are date ordinals (0 for none)."""
    return {
        **prefix_columns("irr_prefix", prefixes),
        "irr_origin": np.asarray(origins, dtype=np.int64),
        "irr_created": np.asarray(created, dtype=np.int64),
        "irr_modified": np.asarray(modified, dtype=np.int64),
    }


def _encode(routes: Sequence[RouteObject]) -> dict[str, np.ndarray]:
    """The :data:`ROUTE_COLUMNS` of ``routes``, row for row."""
    return route_rows(
        [route.prefix for route in routes],
        [route.origin for route in routes],
        [_ordinal(route.created) for route in routes],
        [_ordinal(route.last_modified) for route in routes],
    )


def _v4_keys(columns: dict[str, np.ndarray], rows: int) -> np.ndarray:
    """``value << 8 | length`` of the first ``rows`` (v4) rows: sorted
    like the rows, and equal exactly where the prefixes are."""
    return (columns["irr_prefix_lo"][:rows] << np.uint64(8)) | columns[
        "irr_prefix_len"
    ][:rows]


def _v6_keys(columns: dict[str, np.ndarray], start: int) -> list[tuple[int, int]]:
    """``(value, length)`` of the rows from ``start`` on (all v6)."""
    rows = slice(start, None)
    return [
        ((hi << 64) | lo, length)
        for hi, lo, length in zip(
            columns["irr_prefix_hi"][rows].tolist(),
            columns["irr_prefix_lo"][rows].tolist(),
            columns["irr_prefix_len"][rows].tolist(),
        )
    ]


_U64 = (1 << 64) - 1


def _outside(columns: dict[str, np.ndarray], pools: Sequence[Prefix]) -> np.ndarray:
    """Per row, whether no prefix of ``pools`` contains the row's."""
    version = columns["irr_prefix_ver"]
    length = columns["irr_prefix_len"]
    hi = columns["irr_prefix_hi"]
    lo = columns["irr_prefix_lo"]
    inside = np.zeros(len(version), dtype=bool)
    for pool in pools:
        mask = ((1 << pool.length) - 1) << (pool.bits - pool.length)
        inside |= (
            (version == pool.version)
            & (length >= pool.length)
            & ((hi & np.uint64(mask >> 64)) == np.uint64(pool.value >> 64))
            & ((lo & np.uint64(mask & _U64)) == np.uint64(pool.value & _U64))
        )
    return ~inside


class IRRDatabase:
    """One IRR database (e.g. the RIPE IRR, or RADB)."""

    def __init__(self, name: str, authoritative_for: RIR | None = None):
        self.name = name
        #: Set when this database is the authoritative one for an RIR region.
        self.authoritative_for = authoritative_for
        #: ASN → aut-num object, or its stored row until first read.
        self._aut_nums: dict[int, AutNumObject | list] = {}
        #: Upper-cased name → as-set object, or its stored row.
        self._as_sets: dict[str, AsSetObject | list] = {}
        self._columns = _encode([])
        self._strings: list[list[str]] = []
        #: :meth:`_sorted_keys`, derived from the rows when first needed.
        self._keys: tuple[np.ndarray, list[tuple[int, int]]] | None = None
        #: Bumped on every route mutation; memo owners key their caches on it.
        self._version = 0

    @classmethod
    def from_rows(
        cls,
        name: str,
        authoritative_for: RIR | None,
        columns: dict[str, np.ndarray],
        strings: list[list[str]],
    ) -> "IRRDatabase":
        """A database holding stored rows as they are.

        ``columns`` are the :data:`ROUTE_COLUMNS` and ``strings`` each
        row's ``[mnt_by, descr]``, in the stored order; neither is
        copied or written.  The mutation counter is the route count, as
        if each route had been added once.
        """
        database = cls(name, authoritative_for)
        database._columns = columns
        database._strings = strings
        database._version = len(strings)
        return database

    def copy(self) -> "IRRDatabase":
        """An independent database with equal stored rows, sharing them
        until either side is edited."""
        rows = self.stored_rows()
        clone = IRRDatabase.from_rows(self.name, self.authoritative_for, *rows)
        clone._aut_nums = dict(self._aut_nums)
        clone._as_sets = dict(self._as_sets)
        return clone

    def add_route(self, route: RouteObject) -> None:
        """Register one route object: :meth:`add_routes` of it alone."""
        self.add_routes([route])

    def add_routes(self, routes: Sequence[RouteObject]) -> None:
        """Register route objects, in order, in one :meth:`insert_rows`;
        each must name this database as its source."""
        for route in routes:
            self._check_source(route.source)
        self.insert_rows(
            self.name,
            _encode(routes),
            [[route.mnt_by, route.descr] for route in routes],
        )

    def insert_rows(
        self,
        source: str,
        columns: dict[str, np.ndarray],
        strings: list[list[str]],
    ) -> None:
        """Register route objects given as encoded rows from ``source``:
        their :data:`ROUTE_COLUMNS` and each row's ``[mnt_by, descr]``.

        The one path by which routes enter a database.  It runs, over
        the columns, the checks a route object and this database make:
        the source names this database, every origin is a valid ASN, and
        an authoritative database takes only its RIR's pools (mirrors
        accept anything; that laxity is load-bearing for modelling
        stale and inaccurate registrations).  A failed check inserts
        nothing.
        """
        if not source:
            raise RPSLError("route object requires a source attribute")
        origins = columns["irr_origin"]
        invalid = (origins < 0) | (origins > MAX_ASN)
        if invalid.any():
            validate_asn(int(origins[invalid.argmax()]))
        self._check_source(source)
        rir = self.authoritative_for
        if rir is not None:
            outside = _outside(columns, (*rir.v4_pools, rir.v6_pool))
            if outside.any():
                (prefix,) = prefixes_from_columns(
                    columns, "irr_prefix", [int(outside.argmax())]
                )
                raise RPSLError(
                    f"{prefix} is outside {rir.value} space; "
                    f"{self.name} is authoritative"
                )
        self._merge(columns, strings)

    def _check_source(self, source: str) -> None:
        if source != self.name:
            raise RPSLError(
                f"route object source {source!r} does not match "
                f"database {self.name!r}"
            )

    def _merge(
        self, columns: dict[str, np.ndarray], strings: list[list[str]]
    ) -> None:
        """Insert encoded rows, unchecked.

        The rows are stably sorted into address order among themselves,
        then each goes in after the stored rows of its prefix (a
        ``searchsorted(side="right")`` position), so equal prefixes keep
        insertion order without re-sorting the stored rows.  The
        mutation counter counts each row, as if each had been added on
        its own.
        """
        order = np.lexsort(
            (
                columns["irr_prefix_len"],
                columns["irr_prefix_lo"],
                columns["irr_prefix_hi"],
                columns["irr_prefix_ver"],
            )
        )
        added = {name: columns[name][order] for name in ROUTE_COLUMNS}
        v4_keys, v6_keys = self._sorted_keys()
        k4 = int(np.count_nonzero(added["irr_prefix_ver"] == 4))
        positions = v4_keys.searchsorted(
            _v4_keys(added, k4), side="right"
        ).tolist()
        positions += [
            len(v4_keys) + bisect_right(v6_keys, key)
            for key in _v6_keys(added, k4)
        ]
        self._columns = {
            name: np.insert(column, positions, added[name])
            for name, column in self._columns.items()
        }
        held = self._strings
        merged: list[list[str]] = []
        start = 0
        for position, row in zip(positions, order.tolist()):
            merged += held[start:position]
            merged.append(strings[row])
            start = position
        self._strings = merged + held[start:]
        self._keys = None
        self._version += len(positions)

    def _sorted_keys(self) -> tuple[np.ndarray, list[tuple[int, int]]]:
        """The v4 rows' ``value << 8 | length`` keys and the v6 rows'
        ``(value, length)`` pairs: sorted like the rows (v4 rows first),
        and equal exactly where the prefixes are."""
        if self._keys is None:
            columns = self._columns
            n4 = int(np.searchsorted(columns["irr_prefix_ver"], 6))
            self._keys = (_v4_keys(columns, n4), _v6_keys(columns, n4))
        return self._keys

    def _covering_rows(self, prefixes: list[Prefix]) -> list[list[int]]:
        """Per prefix, the rows whose prefix contains it: least specific
        first, equal prefixes in insertion order."""
        return self._rows_matching(_candidate_keys(prefixes))

    def _rows_matching(self, keys: "_CandidateKeys") -> list[list[int]]:
        """:meth:`_covering_rows` of the queries ``keys`` were built for.

        The v4 candidates of all queries take one ``searchsorted`` over
        the v4 keys; the v6 ones bisect the few v6 keys.
        """
        v4_keys, v6_keys = self._sorted_keys()
        n4 = len(v4_keys)
        found: list[list[int]] = [[] for _ in range(keys.count)]
        for i, key in keys.v6:
            start = bisect_left(v6_keys, key)
            end = bisect_right(v6_keys, key, start)
            found[i] += range(n4 + start, n4 + end)
        if len(keys.v4) and n4:
            for i, start, end in zip(
                keys.v4_owners,
                v4_keys.searchsorted(keys.v4).tolist(),
                v4_keys.searchsorted(keys.v4, side="right").tolist(),
            ):
                found[i] += range(start, end)
        return found

    def _covering(self, keys: "_CandidateKeys") -> list[list[RouteObject]]:
        """Per query of ``keys``, its covering route objects, decoding
        each matching row once."""
        found = self._rows_matching(keys)
        rows = sorted({row for matches in found for row in matches})
        objects = dict(zip(rows, self._decode(rows)))
        return [[objects[row] for row in matches] for matches in found]

    def _decode(self, rows: list[int]) -> list[RouteObject]:
        """The route objects of the stored ``rows``, in that order: the
        one place rows become objects."""
        if not rows:
            return []
        columns = self._columns
        index = np.asarray(rows, dtype=np.intp)
        strings = self._strings
        from_ordinal = date.fromordinal
        return [
            RouteObject(
                prefix=prefix,
                origin=origin,
                source=self.name,
                mnt_by=strings[row][0],
                descr=strings[row][1],
                created=from_ordinal(created) if created else None,
                last_modified=from_ordinal(modified) if modified else None,
            )
            for row, prefix, origin, created, modified in zip(
                rows,
                prefixes_from_columns(columns, "irr_prefix", index),
                columns["irr_origin"][index].tolist(),
                columns["irr_created"][index].tolist(),
                columns["irr_modified"][index].tolist(),
            )
        ]

    def remove_route(self, route: RouteObject) -> bool:
        """Delete the first stored route object equal to ``route``; True
        if there was one."""
        rows = self._covering_rows([route.prefix])[0]
        for row, stored in zip(rows, self._decode(rows)):
            if stored == route:
                break
        else:
            return False
        self._columns = {
            name: np.delete(column, row)
            for name, column in self._columns.items()
        }
        self._strings = self._strings[:row] + self._strings[row + 1:]
        self._keys = None
        self._version += 1
        return True

    def add_aut_num(self, aut_num: AutNumObject) -> None:
        """Register (or replace) the aut-num object for an ASN."""
        self._aut_nums[aut_num.asn] = aut_num

    def add_as_set(self, as_set: AsSetObject) -> None:
        """Register (or replace) an as-set by name."""
        self._as_sets[as_set.name.upper()] = as_set

    def add_object_rows(
        self, aut_nums: Iterable[list], as_sets: Iterable[list]
    ) -> None:
        """Register stored aut-num and as-set rows (:func:`aut_num_row`,
        :func:`as_set_row`) as they are: each is decoded when a lookup
        first reads it."""
        for row in aut_nums:
            self._aut_nums[row[0]] = row
        for row in as_sets:
            self._as_sets[row[0].upper()] = row

    def object_rows(self) -> tuple[list[list], list[list]]:
        """Every aut-num and as-set as a stored row, in registration
        order; a row never decoded is the row held."""
        return (
            [
                row if isinstance(row, list) else aut_num_row(row)
                for row in self._aut_nums.values()
            ],
            [
                row if isinstance(row, list) else as_set_row(row)
                for row in self._as_sets.values()
            ],
        )

    def routes_covering(self, prefix: Prefix) -> list[RouteObject]:
        """Route objects whose prefix contains ``prefix``, least specific
        first."""
        return self._decode(self._covering_rows([prefix])[0])

    def routes_covering_many(
        self, prefixes: Iterable[Prefix]
    ) -> dict[Prefix, list[RouteObject]]:
        """:meth:`routes_covering` for many prefixes in one lookup,
        decoding each matching row once."""
        queries = list(dict.fromkeys(prefixes))
        return dict(zip(queries, self._covering(_candidate_keys(queries))))

    def routes_of_origins(self, origins: Iterable[int]) -> list[RouteObject]:
        """The route objects registered for any of ``origins``, in
        address order."""
        wanted = np.fromiter(set(origins), dtype=np.int64)
        rows = np.flatnonzero(np.isin(self._columns["irr_origin"], wanted))
        return self._decode(rows.tolist())

    def route_at(self, row: int) -> RouteObject:
        """The route object at position ``row`` of :meth:`all_routes`."""
        return self._decode([row])[0]

    def stored_rows(self) -> tuple[dict[str, np.ndarray], list[list[str]]]:
        """The :data:`ROUTE_COLUMNS` and the ``[mnt_by, descr]`` strings,
        as held (read-only)."""
        return self._columns, self._strings

    @property
    def version(self) -> int:
        """Mutation counter for cache invalidation."""
        return self._version

    def aut_num(self, asn: int) -> AutNumObject | None:
        """The aut-num object for ``asn`` if registered."""
        aut_num = self._aut_nums.get(asn)
        if isinstance(aut_num, list):
            aut_num = self._aut_nums[asn] = _aut_num_of(aut_num)
        return aut_num

    def as_set(self, name: str) -> AsSetObject | None:
        """The as-set object by (case-insensitive) name."""
        key = name.upper()
        as_set = self._as_sets.get(key)
        if isinstance(as_set, list):
            as_set = self._as_sets[key] = _as_set_of(as_set)
        return as_set

    def all_routes(self) -> list[RouteObject]:
        """Every route object, in address order (decodes every row)."""
        return self._decode(list(range(len(self._strings))))

    @property
    def route_count(self) -> int:
        """Number of route objects stored."""
        return len(self._strings)


class _CandidateKeys(NamedTuple):
    """Every key a row covering one of ``count`` queries can have: one
    per prefix length up to the query's own, in the form
    :meth:`IRRDatabase._sorted_keys` holds."""

    count: int
    #: ``value << 8 | length`` of each v4 candidate, and its query.
    v4: np.ndarray
    v4_owners: list[int]
    #: ``(query, (value, length))`` of each v6 candidate.
    v6: list[tuple[int, tuple[int, int]]]


def _candidate_keys(prefixes: list[Prefix]) -> _CandidateKeys:
    """The candidate keys of ``prefixes``, built once for any number of
    databases to search."""
    v4: list[int] = []
    owners: list[int] = []
    v6: list[tuple[int, tuple[int, int]]] = []
    for i, prefix in enumerate(prefixes):
        value = prefix.value
        if prefix.version == 4:
            for length in range(prefix.length + 1):
                shift = 32 - length
                v4.append((value >> shift << shift) << 8 | length)
            owners += [i] * (prefix.length + 1)
        else:
            for length in range(prefix.length + 1):
                shift = 128 - length
                v6.append((i, (value >> shift << shift, length)))
    return _CandidateKeys(
        len(prefixes), np.array(v4, dtype=np.uint64), owners, v6
    )


def route_columns(databases: Iterable[IRRDatabase]) -> dict[str, np.ndarray]:
    """The stored :data:`ROUTE_COLUMNS` of ``databases``, concatenated
    in order."""
    held = [database.stored_rows()[0] for database in databases]
    empty = _encode([])
    return {
        name: np.concatenate([empty[name], *(columns[name] for columns in held)])
        for name in ROUTE_COLUMNS
    }


class IRRCollection:
    """A set of IRR databases queried together (the operator's view).

    Mirrors the way RADB aggregates: ``routes_covering`` returns matches
    from every member database, with the database order preserved so
    callers can prefer authoritative sources.
    """

    def __init__(self, databases: Iterable[IRRDatabase] = ()):
        self._databases: dict[str, IRRDatabase] = {}
        for database in databases:
            self.add_database(database)

    def add_database(self, database: IRRDatabase) -> None:
        """Add one member database (unique by name)."""
        if database.name in self._databases:
            raise RPSLError(f"duplicate IRR database {database.name!r}")
        self._databases[database.name] = database

    def database(self, name: str) -> IRRDatabase:
        """Look up a member database by name."""
        try:
            return self._databases[name]
        except KeyError as exc:
            raise RPSLError(f"unknown IRR database {name!r}") from exc

    @property
    def databases(self) -> list[IRRDatabase]:
        """All member databases, in registration order."""
        return list(self._databases.values())

    def routes_covering(self, prefix: Prefix) -> list[RouteObject]:
        """Covering route objects across all member databases."""
        return self.routes_covering_many([prefix])[prefix]

    def routes_covering_many(
        self, prefixes: Iterable[Prefix]
    ) -> dict[Prefix, list[RouteObject]]:
        """Covering route objects for many deduplicated prefixes.

        Per-prefix result order is database registration order first,
        then least- to most-specific within each database.  The
        candidate keys are built once, and each database answers all
        prefixes in one lookup.
        """
        queries = list(dict.fromkeys(prefixes))
        keys = _candidate_keys(queries)
        combined: list[list[RouteObject]] = [[] for _ in queries]
        for database in self._databases.values():
            for found, more in zip(combined, database._covering(keys)):
                found += more
        return dict(zip(queries, combined))

    def routes_of_origins(self, origins: Iterable[int]) -> list[RouteObject]:
        """The route objects registered for any of ``origins``, database
        by database, each in address order."""
        origins = set(origins)
        return [
            route
            for database in self._databases.values()
            for route in database.routes_of_origins(origins)
        ]

    @property
    def version(self) -> tuple[int, int]:
        """Combined mutation counter over member databases."""
        return (
            len(self._databases),
            sum(db.version for db in self._databases.values()),
        )

    def as_set(self, name: str) -> AsSetObject | None:
        """First as-set with this name across member databases."""
        for database in self._databases.values():
            as_set = database.as_set(name)
            if as_set is not None:
                return as_set
        return None

    def aut_num(self, asn: int) -> AutNumObject | None:
        """First aut-num for this ASN across member databases."""
        for database in self._databases.values():
            aut_num = database.aut_num(asn)
            if aut_num is not None:
                return aut_num
        return None

    @property
    def route_count(self) -> int:
        """Total route objects across all member databases."""
        return sum(db.route_count for db in self._databases.values())
