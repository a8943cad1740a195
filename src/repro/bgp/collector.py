"""Route collectors: the RouteViews / RIPE RIS substitute.

A collector has a set of *vantage points* (peer ASes exporting their full
tables).  :func:`collect_rib` runs propagation for every announcement and
records the AS path each vantage point selects, producing a
:class:`RibSnapshot` — the raw material for the prefix2as dataset and the
IHR pipeline.

Announcements sharing (origin AS, filter class) propagate identically, so
the snapshot stores one route group per such pair — paths are kept once
per group rather than once per prefix, which keeps full-table collection
affordable in both time and memory.

The snapshot is its stored columns: :func:`assemble_rib` builds them
for :func:`collect_rib` and the live world's changed groups; a
checkpoint writes them and the ``rib`` digest hashes them as they are,
and every reader (prefix2as, the IHR pipeline, the counterfactual and
ablation experiments) walks them.  No runtime path decodes a group's
paths wholesale: the live world seeds its propagation memo and transit
cache with :class:`GroupPaths` views over its base snapshot's columns,
and :func:`splice_rib` copies the column slices of every group whose
view and prefix rows no event changed, encoding only the rest.
:meth:`RibSnapshot.groups` decodes every group, for tests.

Real collectors see the Internet through a limited, biased set of vantage
points (mostly large transit networks); §11 of the paper calls this out as
the main limitation.  :func:`select_vantage_points` reproduces that bias:
all large transits, a sample of mediums, and a few edge networks.

Collection runs in-process through the engine's batched resolver
(:meth:`~repro.bgp.propagation.PropagationEngine.paths_to_many`), which
bounds its own working set (DESIGN §18).
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from repro import obs
from repro.bgp.announcement import Announcement
from repro.bgp.policy import ROUTE_CLASSES, RouteClass
from repro.bgp.propagation import PropagationEngine
from repro.net.prefix import Prefix, prefix_columns, prefixes_from_columns
from repro.topology.classify import SizeClass, classify_all
from repro.topology.generator import uniform_picks
from repro.topology.model import ASTopology

__all__ = [
    "COLUMNS",
    "GroupPaths",
    "RibSnapshot",
    "assemble_rib",
    "collect_rib",
    "select_vantage_points",
    "splice_rib",
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
    because filters dropped it on every valley-free path.
    """

    origin: int
    route_class: RouteClass
    prefixes: Sequence[Prefix]
    paths: Mapping[int, tuple[int, ...]]


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

    def announcements(self) -> list[tuple[Announcement, RouteClass]]:
        """Every route with its route class, in row order: the input
        :func:`collect_rib` regroups into this snapshot's groups."""
        counts = np.diff(self.arrays["rib_prefix_offsets"]).tolist()
        classes = chain.from_iterable(map(repeat, self.route_classes(), counts))
        return [
            (Announcement(prefix, origin), route_class)
            for (prefix, origin), route_class in zip(self.routes(), classes)
        ]

    def group_paths(self) -> list["GroupPaths"]:
        """A read-only view of each group's paths, in order; nothing is
        decoded."""
        count = len(self.arrays["rib_origin"])
        return [GroupPaths(self, group) for group in range(count)]

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


class GroupPaths(Mapping[int, tuple[int, ...]]):
    """The paths of group ``group`` of ``rib``, as a read-only mapping.

    Vantage points iterate in reference order, as they do in the dict
    :meth:`RibSnapshot.groups` decodes.  The size comes from the offsets;
    the paths are decoded on the first read of a key or a value, and
    kept.  Identity stands for "these are still the base's paths": a
    memo hit of :meth:`~repro.bgp.propagation.PropagationEngine.paths_to_many`
    returns the very view the memo was seeded with, so
    :func:`splice_rib` can copy the group's columns instead of encoding
    the mapping.
    """

    __slots__ = ("rib", "group", "_paths")

    def __init__(self, rib: RibSnapshot, group: int):
        self.rib = rib
        self.group = group
        self._paths: dict[int, tuple[int, ...]] | None = None

    def _decoded(self) -> dict[int, tuple[int, ...]]:
        if self._paths is None:
            columns = self.rib.arrays
            offsets = columns["rib_ref_offsets"]
            begin, end = int(offsets[self.group]), int(offsets[self.group + 1])
            bounds = columns["rib_path_offsets"][begin:end + 1].tolist()
            values = columns["rib_path_values"][bounds[0]:bounds[-1]].tolist()
            start = bounds[0]
            self._paths = dict(
                zip(
                    columns["rib_ref_vp"][begin:end].tolist(),
                    (
                        tuple(values[lo - start:hi - start])
                        for lo, hi in zip(bounds, bounds[1:])
                    ),
                )
            )
        return self._paths

    def __len__(self) -> int:
        offsets = self.rib.arrays["rib_ref_offsets"]
        return int(offsets[self.group + 1] - offsets[self.group])

    def __iter__(self) -> Iterator[int]:
        return iter(self._decoded())

    def __getitem__(self, vantage_point: int) -> tuple[int, ...]:
        return self._decoded()[vantage_point]


def _offsets(lengths: Iterable[int], count: int) -> np.ndarray:
    """Slice boundaries of consecutive runs of ``lengths``."""
    offsets = np.zeros(count + 1, dtype=np.int64)
    offsets[1:] = np.fromiter(lengths, dtype=np.int64, count=count)
    np.cumsum(offsets, out=offsets)
    return offsets


def assemble_rib(
    vantage_points: Sequence[int], groups: Sequence[Group]
) -> RibSnapshot:
    """The snapshot of ``groups``, in order.

    Ragged structure is flattened into value + offset columns, which
    hash, store and map without a transform.  Paths are not
    deduplicated: that would remove only ~4% of the rows on real worlds
    but needs a tuple-keyed hash table spanning the whole RIB, which at
    large scales cost hundreds of MB; the rows stream straight into
    preallocated columns instead.
    """
    n = len(groups)

    def paths():
        return chain.from_iterable(group.paths.values() for group in groups)

    prefixes = list(chain.from_iterable(group.prefixes for group in groups))
    path_offsets = _offsets(
        map(len, paths()), sum(len(group.paths) for group in groups)
    )
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
        **prefix_columns("rib_prefix", prefixes),
        "rib_prefix_offsets": _offsets((len(group.prefixes) for group in groups), n),
        "rib_path_values": np.fromiter(
            chain.from_iterable(paths()),
            dtype=np.int64,
            count=int(path_offsets[-1]),
        ),
        "rib_path_offsets": path_offsets,
        "rib_ref_vp": np.fromiter(
            chain.from_iterable(group.paths for group in groups),
            dtype=np.int64,
            count=len(path_offsets) - 1,
        ),
        "rib_ref_offsets": _offsets((len(group.paths) for group in groups), n),
    }
    snapshot = RibSnapshot({"vantage_points": list(vantage_points)}, arrays)
    snapshot._prefixes = prefixes
    return snapshot


def _joined(
    first: Mapping[str, np.ndarray], second: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """The columns of ``first``'s groups followed by ``second``'s."""
    joined = {}
    for name in COLUMNS:
        head, tail = first[name], second[name]
        if name.endswith("_offsets"):
            tail = tail[1:] + head[-1]
        joined[name] = np.concatenate([head, tail])
    return joined


def _runs(ids: np.ndarray) -> list[tuple[int, int]]:
    """``ids`` as maximal runs of consecutive ids, ``(first, last + 1)``."""
    if not len(ids):
        return []
    breaks = np.flatnonzero(np.diff(ids) != 1) + 1
    firsts = ids[np.concatenate([[0], breaks])]
    lasts = ids[np.concatenate([breaks - 1, [len(ids) - 1]])]
    return list(zip(firsts.tolist(), (lasts + 1).tolist()))


def _row_runs(
    offsets: np.ndarray, runs: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The runs of rows that ``offsets`` slices for the runs ``runs``."""
    return [(int(offsets[begin]), int(offsets[end])) for begin, end in runs]


def _cut(column: np.ndarray, runs: list[tuple[int, int]]) -> np.ndarray:
    """The rows of the runs ``runs`` of ``column``, run after run."""
    return np.concatenate(
        [column[:0], *(column[begin:end] for begin, end in runs)]
    )


def _rebased(offsets: np.ndarray, runs: list[tuple[int, int]]) -> np.ndarray:
    """The offsets slicing the runs ``runs`` of ``offsets`` once they
    are cut out and joined."""
    lengths = _cut(np.diff(offsets), runs)
    rebased = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=rebased[1:])
    return rebased


def splice_rib(
    vantage_points: Sequence[int],
    base: RibSnapshot,
    groups: Sequence[Group],
    rows_from: Sequence[int],
) -> RibSnapshot:
    """:func:`assemble_rib` of ``groups``, copying what ``base`` holds.

    ``rows_from[i]`` is -1, or the group of ``base`` whose origin, route
    class and prefix rows are group ``i``'s own.  In the latter case
    ``groups[i].paths`` must be a :class:`GroupPaths` view over
    ``base``, and group ``i`` is copied as column slices: its prefix
    rows from group ``rows_from[i]``, its references and paths from the
    view's group.  The two differ where route classes of one origin
    share a propagation memo entry.  Every other group is encoded by
    :func:`assemble_rib`.  The columns are byte for byte those
    :func:`assemble_rib` writes for ``groups``.  Consecutive groups
    copied from consecutive groups form one run, and a run is cut as
    one slice per column, so a checkpoint that changed few groups
    costs a few slices.
    """
    row_groups = np.asarray(rows_from, dtype=np.int64)
    copied = row_groups >= 0
    flags = copied.tolist()
    encoded = [group for group, copy in zip(groups, flags) if not copy]
    # The source: the base's groups, then the encoded ones.
    source = _joined(
        base.arrays, assemble_rib(vantage_points, encoded).arrays
    )
    first = len(base.arrays["rib_origin"])
    row_groups[~copied] = np.arange(first, first + len(encoded))
    path_groups = row_groups.copy()
    path_groups[copied] = [
        group.paths.group for group in compress(groups, flags)
    ]
    group_runs, path_runs = _runs(row_groups), _runs(path_groups)
    rows = _row_runs(source["rib_prefix_offsets"], group_runs)
    refs = _row_runs(source["rib_ref_offsets"], path_runs)
    arrays = {
        "rib_origin": source["rib_origin"][row_groups],
        "rib_rpki_invalid": source["rib_rpki_invalid"][row_groups],
        "rib_irr_invalid": source["rib_irr_invalid"][row_groups],
        **{
            f"rib_prefix_{part}": _cut(source[f"rib_prefix_{part}"], rows)
            for part in ("hi", "lo", "len", "ver")
        },
        "rib_prefix_offsets": _rebased(
            source["rib_prefix_offsets"], group_runs
        ),
        "rib_path_values": _cut(
            source["rib_path_values"],
            _row_runs(source["rib_path_offsets"], refs),
        ),
        "rib_path_offsets": _rebased(source["rib_path_offsets"], refs),
        "rib_ref_vp": _cut(source["rib_ref_vp"], refs),
        "rib_ref_offsets": _rebased(source["rib_ref_offsets"], path_runs),
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
    return assemble_rib(
        vantage_points,
        [
            Group(*key, sorted(set(grouped[key])), paths)
            for key, paths in zip(keys, paths_by_key)
        ],
    )
