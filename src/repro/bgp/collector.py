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

Collection parallelises across (origin, filter-class) groups: with
``REPRO_JOBS=N`` (or an explicit ``jobs=`` argument) the per-origin
propagation fans out over a process pool.  Workers receive a pickled
engine once, results are reassembled in the same deterministic order the
serial path uses, so parallel and serial snapshots are identical.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import config as _config
from repro import obs
from repro.bgp.announcement import Announcement, RibEntry
from repro.config import RuntimeConfig
from repro.bgp.policy import RouteClass
from repro.bgp.propagation import PropagationEngine
from repro.net.prefix import Prefix
from repro.shard import (
    ColumnAccumulator,
    SpillError,
    check_shard_manifests,
    pool_map_consume,
    resolve_build_budget,
    resolve_shards,
    shard_manifest,
    split_evenly,
)
from repro.topology.classify import SizeClass, classify_all
from repro.topology.model import ASTopology

__all__ = ["RouteGroup", "RibSnapshot", "collect_rib", "select_vantage_points"]

log = logging.getLogger(__name__)

#: Below this many (origin, class) groups the pool overhead cannot pay
#: for itself; collection stays serial regardless of ``jobs``.
MIN_PARALLEL_GROUPS = 256


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
    jobs: int | None = None,
    shards: int | None = None,
    runtime: RuntimeConfig | None = None,
) -> RibSnapshot:
    """Propagate every announcement and record vantage-point routes.

    ``runtime`` installs a :class:`repro.config.RuntimeConfig` for the
    duration of the call; ``jobs``/``shards`` arguments still win over
    it when given explicitly.

    ``jobs`` (default: the runtime config, whose fallback is the
    ``REPRO_JOBS`` environment variable, else serial) fans the per-group
    propagation across worker processes.  The output is identical either
    way: groups are keyed and emitted in one deterministic order, and
    each group's paths depend only on (origin, route class, vantage
    points).

    ``shards`` (default: the runtime config / ``REPRO_SHARDS``, else 1)
    instead splits the *vantage points* into contiguous chunks, each
    propagated by a worker that emits packed path columns; the driver
    merges the column shards in shard order, which reproduces the serial
    vantage-point iteration order exactly — see DESIGN §13 for the
    determinism argument.
    """
    with _config.use(runtime):
        return _collect_rib(engine, announcements, vantage_points, jobs, shards)


def _collect_rib(
    engine: PropagationEngine,
    announcements: Iterable[tuple[Announcement, RouteClass]],
    vantage_points: Sequence[int],
    jobs: int | None,
    shards: int | None,
) -> RibSnapshot:
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
    jobs = obs.resolve_jobs(jobs)
    obs.add("collect.route_groups", len(keys))
    obs.gauge("collect.jobs", jobs)
    obs.gauge("collect.vantage_points", len(vantage_points))
    obs.annotate(groups=len(keys), jobs=jobs)
    # Size the propagation memo to this snapshot's working set before any
    # lookups (and before workers inherit the engine), so one snapshot's
    # groups never evict each other.
    engine.ensure_cache_capacity(len(keys))
    shards = resolve_shards(shards)
    paths_by_key = None
    if shards > 1 and len(vantage_points) > 1:
        paths_by_key = _sharded_paths(
            engine, keys, vantage_points, shards, jobs
        )
    if paths_by_key is None and jobs > 1 and len(keys) >= MIN_PARALLEL_GROUPS:
        paths_by_key = _parallel_paths(engine, keys, vantage_points, jobs)
    if paths_by_key is None:
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


# Worker-process state, installed once per worker by the pool initializer
# (cheaper than pickling the engine into every task).
_worker_engine: PropagationEngine | None = None
_worker_vantage_points: tuple[int, ...] = ()
_worker_keys: list[tuple[int, RouteClass]] = []


def _init_worker(
    engine: PropagationEngine, vantage_points: tuple[int, ...]
) -> None:
    global _worker_engine, _worker_vantage_points
    _worker_engine = engine
    _worker_vantage_points = vantage_points


def _propagate_chunk(
    keys: list[tuple[int, RouteClass]],
) -> list[dict[int, tuple[int, ...]]]:
    assert _worker_engine is not None
    return [
        _worker_engine.paths_to(origin, _worker_vantage_points, route_class)
        for origin, route_class in keys
    ]


def _init_shard_worker(
    engine: PropagationEngine, keys: list[tuple[int, RouteClass]]
) -> None:
    global _worker_engine, _worker_keys
    _worker_engine = engine
    _worker_keys = keys


def _propagate_vp_shard(task: tuple) -> tuple[dict, dict[str, np.ndarray]]:
    """Propagate every route group onto one vantage-point chunk.

    Emits a column shard: per-key selected vantage points plus their
    flattened AS paths, with offset arrays delimiting both levels.  The
    within-chunk entry order is the chunk's vantage-point order, exactly
    as ``paths_to`` iterates it.
    """
    index, total, vp_chunk = task
    assert _worker_engine is not None
    vp_ids: list[int] = []
    key_offsets = np.zeros(len(_worker_keys) + 1, dtype=np.int64)
    path_values: list[int] = []
    path_offsets: list[int] = [0]
    for slot, (origin, route_class) in enumerate(_worker_keys):
        paths = _worker_engine.paths_to(origin, vp_chunk, route_class)
        for vantage_point, path in paths.items():
            vp_ids.append(vantage_point)
            path_values.extend(path)
            path_offsets.append(len(path_values))
        key_offsets[slot + 1] = len(vp_ids)
    columns = {
        "vp": np.asarray(vp_ids, dtype=np.int64),
        "key_offsets": key_offsets,
        "path_values": np.asarray(path_values, dtype=np.int64),
        "path_offsets": np.asarray(path_offsets, dtype=np.int64),
    }
    return shard_manifest("collect_rib", index, total, len(vp_ids)), columns


def _sharded_paths(
    engine: PropagationEngine,
    keys: list[tuple[int, RouteClass]],
    vantage_points: tuple[int, ...],
    shards: int,
    jobs: int,
) -> list[dict[int, tuple[int, ...]]] | None:
    """Vantage-point-sharded collection; None falls back to other paths.

    Chunks are contiguous slices of the vantage-point tuple and shards
    merge in ascending index, so per-key path dicts are populated in the
    exact order the serial ``paths_to`` inserts them — bit-identical
    snapshots at any shard count.
    """
    chunks = split_evenly(vantage_points, shards)
    total = len(chunks)
    tasks = [(index, total, tuple(chunk)) for index, chunk in enumerate(chunks)]
    obs.add("collect.vp_shards", total)
    manifests: list[dict] = []
    rows_seen: list[int] = []
    try:
        with ColumnAccumulator(
            "collect_rib", budget_bytes=resolve_build_budget()
        ) as accumulator:

            def consume(result: tuple[dict, dict[str, np.ndarray]]) -> None:
                manifest, columns = result
                manifests.append(manifest)
                # Row accounting is captured on arrival, before the block
                # may spill, so validation never forces a read-back.
                rows_seen.append(int(columns["key_offsets"][-1]))
                accumulator.append(columns)

            ok = pool_map_consume(
                _propagate_vp_shard,
                tasks,
                workers=max(jobs, 1),
                consume=consume,
                initializer=_init_shard_worker,
                initargs=(engine, keys),
            )
            if not ok:
                return None
            problems = check_shard_manifests(manifests, "collect_rib", total)
            if not problems:
                for manifest, rows in zip(manifests, rows_seen):
                    if rows != manifest["rows"]:
                        problems.append(
                            f"shard {manifest['shard']}: "
                            "row accounting mismatch"
                        )
            if problems:
                log.warning(
                    "discarding sharded collection (%s); "
                    "recomputing unsharded",
                    "; ".join(problems),
                )
                obs.add("shard.discarded")
                return None
            paths_by_key: list[dict[int, tuple[int, ...]]] = [{} for _ in keys]
            # Ascending shard index == vp order; one block resident at a
            # time, so spilled shards never re-accumulate in memory.
            for columns in accumulator.blocks():
                vp_ids = columns["vp"].tolist()
                key_offsets = columns["key_offsets"].tolist()
                path_values = columns["path_values"].tolist()
                path_offsets = columns["path_offsets"].tolist()
                for slot in range(len(keys)):
                    merged = paths_by_key[slot]
                    for entry in range(key_offsets[slot], key_offsets[slot + 1]):
                        merged[vp_ids[entry]] = tuple(
                            path_values[
                                path_offsets[entry] : path_offsets[entry + 1]
                            ]
                        )
            return paths_by_key
    except SpillError as error:
        log.warning(
            "discarding sharded collection (%s); recomputing unsharded",
            error,
        )
        obs.add("shard.discarded")
        return None


def _parallel_paths(
    engine: PropagationEngine,
    keys: list[tuple[int, RouteClass]],
    vantage_points: tuple[int, ...],
    jobs: int,
) -> list[dict[int, tuple[int, ...]]] | None:
    """Fan ``paths_to`` across a process pool; None on pool failure.

    Chunks are mapped in order, so the flattened result lines up with
    ``keys`` and collection stays bit-identical to the serial path.
    """
    chunk_size = max(1, len(keys) // (jobs * 4))
    chunks = [
        keys[start : start + chunk_size]
        for start in range(0, len(keys), chunk_size)
    ]
    obs.add("collect.parallel_chunks", len(chunks))
    obs.gauge("collect.pool_workers", jobs)
    try:
        with ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_init_worker,
            initargs=(engine, vantage_points),
        ) as pool:
            results: list[dict[int, tuple[int, ...]]] = []
            for chunk_paths in pool.map(_propagate_chunk, chunks):
                results.extend(chunk_paths)
        return results
    except OSError:
        # No usable process pool (e.g. sandboxed /dev/shm): fall back to
        # serial rather than failing collection.
        return None
