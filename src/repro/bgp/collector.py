"""Route collectors: the RouteViews / RIPE RIS substitute.

A collector has a set of *vantage points* (peer ASes exporting their full
tables).  :func:`collect_rib` runs propagation for every announced route
and records the AS path each vantage point selects, producing a
:class:`RibSnapshot` — the raw material for the prefix2as dataset and the
IHR pipeline.

Announcements sharing (origin AS, filter class) propagate identically, so
the snapshot stores one route group per such pair — paths are kept once
per group rather than once per prefix, which keeps full-table collection
affordable in both time and memory.

Routes enter collection as one integer table (:class:`RouteRows`): a
row per route, its origin, prefix columns and route class flags.  One
stable ``lexsort`` of the table gives the groups and each group's
prefix rows in address order.

The snapshot is its stored columns: :func:`assemble_rib` builds them
for :func:`collect_rib` and for the live world's checkpoints; a
checkpoint writes them and the ``rib`` digest hashes them as they are,
and every reader (prefix2as, the IHR pipeline, the counterfactual and
ablation experiments) walks them.  No runtime path decodes a group's
paths wholesale: propagation returns :class:`GroupPaths` views over the
path columns each batch writes, the live world seeds its propagation
memo and transit cache with views over its base snapshot's columns, and
:func:`assemble_rib` copies the column slices a view or a
:class:`PrefixRows` covers, encoding only plain mappings and prefix
lists.  :meth:`RibSnapshot.groups` decodes every group, for tests.

Real collectors see the Internet through a limited, biased set of vantage
points (mostly large transit networks); §11 of the paper calls this out as
the main limitation.  :func:`select_vantage_points` reproduces that bias:
all large transits, a sample of mediums, and a few edge networks.

Collection runs in-process through the engine's batched resolver
(:meth:`~repro.bgp.propagation.PropagationEngine.paths_to_many`), which
bounds its own working set (DESIGN §18).
"""

from __future__ import annotations

from itertools import chain, compress
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from repro import obs
from repro.bgp.policy import ROUTE_CLASSES, RouteClass
from repro.bgp.propagation import PropagationEngine
from repro.kernels.csr import GroupPaths
from repro.kernels.intervals import route_key_columns
from repro.net.prefix import Prefix, prefix_columns, prefixes_from_columns
from repro.topology.classify import SizeClass, classify_all
from repro.topology.generator import uniform_picks
from repro.topology.model import ASTopology

__all__ = [
    "COLUMNS",
    "GroupPaths",
    "PrefixRows",
    "RibSnapshot",
    "RouteRows",
    "assemble_rib",
    "collect_rib",
    "select_vantage_points",
]

#: The stored columns, in the order a checkpoint writes them and the
#: ``rib`` digest hashes them.
COLUMNS = (
    "rib_origin",
    "rib_rpki_invalid",
    "rib_irr_invalid",
    "rib_prefix_hi",
    "rib_prefix_lo",
    "rib_prefix_len",
    "rib_prefix_ver",
    "rib_prefix_offsets",
    "rib_path_values",
    "rib_path_offsets",
    "rib_ref_vp",
    "rib_ref_offsets",
)



class Group(NamedTuple):
    """One route group, the unit :func:`assemble_rib` stores.

    ``paths`` maps each vantage point that selected a route to its AS
    path (vantage point first, origin last).  Vantage points missing
    from the mapping did not receive the announcement — typically
    because filters dropped it on every valley-free path.  ``prefixes``
    are the group's distinct prefixes in address order; a
    :class:`PrefixRows` and a :class:`GroupPaths` are copied from the
    columns they cover.
    """

    origin: int
    route_class: RouteClass
    prefixes: Sequence[Prefix]
    paths: Mapping[int, tuple[int, ...]]


class RouteRows(NamedTuple):
    """Announced routes as one integer table, a row per route.

    ``hi``, ``lo``, ``length`` and ``version`` hold the prefix as
    :func:`~repro.net.prefix.prefix_columns` stores it and ``origin``
    the origin AS (the columns, in order, of
    :func:`~repro.kernels.intervals.route_key_columns`); the two flags are
    the route's class.  ``prefixes`` holds the decoded prefixes, row for
    row: the snapshot :func:`collect_rib` builds keeps them.
    """

    hi: np.ndarray
    lo: np.ndarray
    length: np.ndarray
    version: np.ndarray
    origin: np.ndarray
    rpki_invalid: np.ndarray
    irr_invalid: np.ndarray
    prefixes: Sequence[Prefix]

    @classmethod
    def of(
        cls, routes: Sequence[tuple[Prefix, int, RouteClass]]
    ) -> "RouteRows":
        """The table of ``(prefix, origin, route class)`` routes."""
        return cls(
            *route_key_columns([(prefix, origin) for prefix, origin, _ in routes]),
            np.array([c.rpki_invalid for *_, c in routes], dtype=bool),
            np.array([c.irr_invalid for *_, c in routes], dtype=bool),
            [prefix for prefix, _, _ in routes],
        )


class PrefixRows(Sequence[Prefix]):
    """Rows ``begin:end`` of the ``rib_prefix_*`` columns of
    ``columns``, whose decoded prefixes are ``prefixes``.

    As a group's prefixes it reads as ``prefixes``, and
    :func:`assemble_rib` copies its column slices instead of encoding
    them.
    """

    __slots__ = ("columns", "begin", "end", "prefixes")

    def __init__(
        self,
        columns: Mapping[str, np.ndarray],
        begin: int,
        end: int,
        prefixes: Sequence[Prefix],
    ):
        self.columns = columns
        self.begin = begin
        self.end = end
        self.prefixes = prefixes

    def __len__(self) -> int:
        return self.end - self.begin

    def __getitem__(self, index):
        return self.prefixes[index]

    def __iter__(self):
        return iter(self.prefixes)


class RibSnapshot:
    """All routes observed by the collector's vantage points, as columns.

    ``meta`` holds the vantage points; ``arrays`` maps each name of
    :data:`COLUMNS`, in that order, to the array it was given (nothing
    is copied).  Per group: ``rib_origin`` and the two route
    class flags; ``rib_prefix_offsets`` slices its rows of the four
    prefix columns and ``rib_ref_offsets`` its (vantage point, path)
    references.  The path table stores one path per reference, in
    reference order, so ``rib_ref_offsets`` slices the paths of
    ``rib_path_offsets`` just as it slices ``rib_ref_vp``.  A group is
    visible when at least one vantage point holds a path.
    """

    def __init__(self, meta: dict, arrays: Mapping[str, np.ndarray]):
        self.meta = meta
        self.arrays = {name: arrays[name] for name in COLUMNS}
        self._prefixes: list[Prefix] | None = None

    @property
    def vantage_points(self) -> tuple[int, ...]:
        """The collector's vantage points, as the meta records them."""
        return tuple(self.meta["vantage_points"])

    def visible(self) -> np.ndarray:
        """Per group: did any vantage point see it?"""
        return np.diff(self.arrays["rib_ref_offsets"]) > 0

    def visible_rows(self) -> np.ndarray:
        """Per prefix row: is its group visible?"""
        return np.repeat(
            self.visible(), np.diff(self.arrays["rib_prefix_offsets"])
        )

    def row_origins(self) -> np.ndarray:
        """Each prefix row's origin."""
        return np.repeat(
            self.arrays["rib_origin"], np.diff(self.arrays["rib_prefix_offsets"])
        )

    def prefix_rows(self, name: str, rows=slice(None)) -> dict[str, np.ndarray]:
        """The prefix columns at ``rows`` (a mask or an index), as the
        column set ``name`` of :func:`~repro.net.prefix.prefix_columns`."""
        return {
            f"{name}_{part}": self.arrays[f"rib_prefix_{part}"][rows]
            for part in ("hi", "lo", "len", "ver")
        }

    def prefixes(self) -> list[Prefix]:
        """The prefix rows, decoded once per snapshot.  A snapshot
        :func:`assemble_rib` built holds the prefixes it was given, so
        lookups keyed by them hit by identity."""
        if self._prefixes is None:
            self._prefixes = prefixes_from_columns(self.arrays, "rib_prefix")
        return self._prefixes

    def routes(self, rows: np.ndarray | None = None) -> list[tuple[Prefix, int]]:
        """The ``(prefix, origin)`` routes of every prefix row, or of the
        rows the boolean mask ``rows`` selects."""
        routes = zip(self.prefixes(), self.row_origins().tolist())
        return list(routes if rows is None else compress(routes, rows.tolist()))

    def route_classes(self) -> list[RouteClass]:
        """Each group's route class."""
        columns = self.arrays
        return [
            ROUTE_CLASSES[flags]
            for flags in zip(
                columns["rib_rpki_invalid"].tolist(),
                columns["rib_irr_invalid"].tolist(),
            )
        ]

    def route_rows(self) -> RouteRows:
        """Every route with its route class, in row order: the table
        :func:`collect_rib` regroups into this snapshot's groups."""
        columns = self.arrays
        counts = np.diff(columns["rib_prefix_offsets"])
        return RouteRows(
            *(columns[f"rib_prefix_{part}"] for part in ("hi", "lo", "len", "ver")),
            self.row_origins(),
            np.repeat(columns["rib_rpki_invalid"], counts),
            np.repeat(columns["rib_irr_invalid"], counts),
            self.prefixes(),
        )

    def group_paths(self) -> list[GroupPaths]:
        """A read-only view of each group's paths, in order; nothing is
        decoded."""
        count = len(self.arrays["rib_origin"])
        return [GroupPaths(self.arrays, group) for group in range(count)]

    def groups(self) -> list[Group]:
        """Decode every group, in order: the inverse of
        :func:`assemble_rib`."""
        columns = self.arrays
        values = columns["rib_path_values"].tolist()
        offsets = columns["rib_path_offsets"].tolist()
        # One path per (group, vantage point) reference — a million-plus
        # at full scale — so the table is cut with map() over slices.
        paths = list(
            map(tuple, map(values.__getitem__, map(slice, offsets, offsets[1:])))
        )
        prefixes = self.prefixes()
        prefix_offsets = columns["rib_prefix_offsets"].tolist()
        ref_vp = columns["rib_ref_vp"].tolist()
        ref_offsets = columns["rib_ref_offsets"].tolist()
        return [
            Group(
                origin,
                route_class,
                tuple(prefixes[prefix_offsets[g]:prefix_offsets[g + 1]]),
                dict(
                    zip(
                        ref_vp[ref_offsets[g]:ref_offsets[g + 1]],
                        paths[ref_offsets[g]:ref_offsets[g + 1]],
                    )
                ),
            )
            for g, (origin, route_class) in enumerate(
                zip(columns["rib_origin"].tolist(), self.route_classes())
            )
        ]


def _offsets(lengths, count: int) -> np.ndarray:
    """Slice boundaries of consecutive runs of ``lengths``."""
    offsets = np.zeros(count + 1, dtype=np.int64)
    offsets[1:] = np.fromiter(lengths, dtype=np.int64, count=count)
    np.cumsum(offsets, out=offsets)
    return offsets


def _encoded_paths(
    mappings: Sequence[Mapping[int, tuple[int, ...]]],
) -> dict[str, np.ndarray]:
    """The path columns of ``mappings``, one group each, flattened
    straight into preallocated columns."""

    def paths():
        return chain.from_iterable(mapping.values() for mapping in mappings)

    references = sum(map(len, mappings))
    path_offsets = _offsets(map(len, paths()), references)
    return {
        "rib_path_values": np.fromiter(
            chain.from_iterable(paths()),
            dtype=np.int64,
            count=int(path_offsets[-1]),
        ),
        "rib_path_offsets": path_offsets,
        "rib_ref_vp": np.fromiter(
            chain.from_iterable(mappings), dtype=np.int64, count=references
        ),
        "rib_ref_offsets": _offsets(map(len, mappings), len(mappings)),
    }


def _runs(pieces) -> list[list]:
    """``(columns, begin, end)`` row ranges, consecutive ranges of the
    same columns merged into one run."""
    runs: list[list] = []
    for columns, begin, end in pieces:
        if runs and runs[-1][0] is columns and runs[-1][2] == begin:
            runs[-1][2] = end
        else:
            runs.append([columns, begin, end])
    return runs


def _cut(runs: list[list], name: str, empty: np.ndarray) -> np.ndarray:
    """Column ``name`` of each run's columns, its rows cut and joined
    (``empty`` fixes the dtype when there is no run)."""
    return np.concatenate(
        [empty, *(columns[name][begin:end] for columns, begin, end in runs)]
    )


def assemble_rib(
    vantage_points: Sequence[int], groups: Sequence[Group]
) -> RibSnapshot:
    """The snapshot of ``groups``, in order.

    Ragged structure is flattened into value + offset columns, which
    hash, store and map without a transform.  A group's prefixes that
    are a :class:`PrefixRows` and its paths that are a
    :class:`GroupPaths` view are copied as slices of the columns they
    cover: a RIB's, a route table's or a propagation batch's.  Other
    prefixes and paths (plain mappings, from the scalar propagation
    path) are encoded.  Consecutive groups covering consecutive rows of
    the same columns form one run, cut as one slice per column, so the
    columns are byte for byte those of encoding every group.  Paths are
    not deduplicated: that would remove only ~4% of the rows on real
    worlds but needs a tuple-keyed hash table spanning the whole RIB,
    which at large scales cost hundreds of MB.
    """
    n = len(groups)
    plain_prefixes = [
        group.prefixes
        for group in groups
        if not isinstance(group.prefixes, PrefixRows)
    ]
    plain_paths = [
        group.paths for group in groups if not isinstance(group.paths, GroupPaths)
    ]
    encoded_prefixes = prefix_columns(
        "rib_prefix", list(chain.from_iterable(plain_prefixes))
    )
    encoded_paths = _encoded_paths(plain_paths)
    prefix_pieces = []
    row = 0
    for group in groups:
        prefixes = group.prefixes
        if isinstance(prefixes, PrefixRows):
            prefix_pieces.append((prefixes.columns, prefixes.begin, prefixes.end))
        else:
            prefix_pieces.append((encoded_prefixes, row, row + len(prefixes)))
            row += len(prefixes)
    # Each group's references, as the row range of its columns' refs.
    ref_offsets: dict[int, list[int]] = {}
    ref_pieces = []
    plain = 0
    for group in groups:
        paths = group.paths
        if isinstance(paths, GroupPaths):
            columns, index = paths.columns, paths.group
        else:
            columns, index = encoded_paths, plain
            plain += 1
        offsets = ref_offsets.get(id(columns))
        if offsets is None:
            offsets = ref_offsets[id(columns)] = columns["rib_ref_offsets"].tolist()
        ref_pieces.append((columns, offsets[index], offsets[index + 1]))
    prefix_runs = _runs(prefix_pieces)
    ref_runs = _runs(ref_pieces)
    path_runs = []
    for columns, begin, end in ref_runs:
        bounds = columns["rib_path_offsets"]
        path_runs.append([columns, int(bounds[begin]), int(bounds[end])])
    path_lengths = np.concatenate(
        [
            np.empty(0, dtype=np.int64),
            *(
                np.diff(columns["rib_path_offsets"][begin:end + 1])
                for columns, begin, end in ref_runs
            ),
        ]
    )
    path_offsets = np.zeros(len(path_lengths) + 1, dtype=np.int64)
    np.cumsum(path_lengths, out=path_offsets[1:])
    no_ints = np.empty(0, dtype=np.int64)
    arrays = {
        "rib_origin": np.fromiter(
            (group.origin for group in groups), dtype=np.int64, count=n
        ),
        "rib_rpki_invalid": np.fromiter(
            (group.route_class.rpki_invalid for group in groups),
            dtype=np.bool_,
            count=n,
        ),
        "rib_irr_invalid": np.fromiter(
            (group.route_class.irr_invalid for group in groups),
            dtype=np.bool_,
            count=n,
        ),
        **{
            name: _cut(prefix_runs, name, empty[:0])
            for name, empty in encoded_prefixes.items()
        },
        "rib_prefix_offsets": _offsets(
            (end - begin for _, begin, end in prefix_pieces), n
        ),
        "rib_path_values": _cut(path_runs, "rib_path_values", no_ints),
        "rib_path_offsets": path_offsets,
        "rib_ref_vp": _cut(ref_runs, "rib_ref_vp", no_ints),
        "rib_ref_offsets": _offsets(
            (end - begin for _, begin, end in ref_pieces), n
        ),
    }
    snapshot = RibSnapshot({"vantage_points": list(vantage_points)}, arrays)
    snapshot._prefixes = list(
        chain.from_iterable(group.prefixes for group in groups)
    )
    return snapshot


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
    # would tie the uniform picks to topology insertion order, making
    # vantage-point selection fragile across refactors and numpy versions.
    larges = sorted(asn for asn, size in sizes.items() if size is SizeClass.LARGE)
    mediums = sorted(asn for asn, size in sizes.items() if size is SizeClass.MEDIUM)
    smalls = sorted(asn for asn, size in sizes.items() if size is SizeClass.SMALL)
    chosen = list(larges)
    for pool, wanted in ((mediums, n_medium), (smalls, n_small)):
        if pool:
            picks = uniform_picks(rng, len(pool), min(wanted, len(pool)))
            chosen.extend(pool[i] for i in picks)
    return tuple(sorted(set(chosen)))


def collect_rib(
    engine: PropagationEngine,
    routes: RouteRows,
    vantage_points: Sequence[int],
) -> RibSnapshot:
    """Propagate every route of the table and record vantage-point routes.

    One stable ``lexsort`` orders the rows by origin, route class and
    prefix (address order: version, value, length); rows equal in all of
    them are one route, kept once.  Each run of one (origin, route
    class) is a group, whose prefix rows are copied from the sorted
    table.  Groups are emitted in that order, and each group's paths
    depend only on (origin, route class, vantage points).
    """
    # np.lexsort sorts by its last key first.
    keys = (
        routes.origin,
        routes.rpki_invalid,
        routes.irr_invalid,
        routes.version,
        routes.hi,
        routes.lo,
        routes.length,
    )
    order = np.lexsort(keys[::-1])
    changed = [
        column[1:] != column[:-1] for column in (key[order] for key in keys)
    ]
    starts_group = np.ones(len(order), dtype=bool)
    starts_group[1:] = changed[0] | changed[1] | changed[2]
    distinct = starts_group.copy()
    distinct[1:] |= np.logical_or.reduce(changed[3:])
    rows = order[distinct]
    starts_group = starts_group[distinct]
    bounds = np.append(np.flatnonzero(starts_group), len(rows)).tolist()
    firsts = rows[starts_group]
    group_keys = list(
        zip(
            routes.origin[firsts].tolist(),
            map(
                ROUTE_CLASSES.__getitem__,
                zip(
                    routes.rpki_invalid[firsts].tolist(),
                    routes.irr_invalid[firsts].tolist(),
                ),
            ),
        )
    )
    table = {
        f"rib_prefix_{part}": column[rows]
        for part, column in zip(("hi", "lo", "len", "ver"), routes)
    }
    prefixes = list(map(routes.prefixes.__getitem__, rows.tolist()))
    vantage_points = tuple(vantage_points)
    obs.add("collect.route_groups", len(group_keys))
    obs.gauge("collect.vantage_points", len(vantage_points))
    obs.annotate(groups=len(group_keys))
    # Size the propagation memo to this snapshot's working set before any
    # lookups, so one snapshot's groups never evict each other.
    engine.ensure_cache_capacity(len(group_keys))
    paths_by_key = engine.paths_to_many(group_keys, vantage_points)
    obs.add("collect.routes_propagated", sum(map(len, paths_by_key)))
    return assemble_rib(
        vantage_points,
        [
            Group(
                origin,
                route_class,
                PrefixRows(table, begin, end, prefixes[begin:end]),
                paths,
            )
            for (origin, route_class), paths, begin, end in zip(
                group_keys, paths_by_key, bounds, bounds[1:]
            )
        ],
    )
