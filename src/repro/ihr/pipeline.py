"""The IHR pipeline: collector RIBs + registries → analysis datasets.

This reimplements the derivation the Internet Health Report performs
(§5.3): classify every routed (prefix, origin) against the RPKI (RFC 6811)
and the IRR, compute AS-Hegemony scores for the transit ASes on paths
toward it, and emit the prefix-origin and transit datasets the paper's
conformance and impact analyses consume.

The construction batches its lookups: all (prefix, origin) pairs are
classified up front through the bulk/memoised validator paths (one
interval-kernel pass instead of one lookup per record), and transit
scoring runs as one columnar reduction over every group's paths
(:func:`repro.kernels.groupby.hegemony_transits`).  The per-group loop
it replaced, :func:`_transit_groups_python`, stays as the reference
``tests/test_kernels.py`` checks it against.
"""

from __future__ import annotations

import logging
from itertools import chain

import numpy as np

from repro import config as _config
from repro import obs
from repro.bgp.collector import RibSnapshot, RouteGroup
from repro.config import RuntimeConfig
from repro.hegemony.scores import DEFAULT_TRIM, hegemony_scores
from repro.kernels.groupby import hegemony_transits
from repro.ihr.records import (
    IHRDataset,
    PrefixOriginRecord,
    TransitGroup,
    TransitInfo,
)
from repro.irr.database import IRRCollection, IRRDatabase
from repro.irr.validation import validate_irr_many
from repro.net.asn import strip_prepending
from repro.rpki.rov import ROVValidator
from repro.shard import (
    check_shard_manifests,
    pool_map_consume,
    resolve_build_budget,
    resolve_shards,
    shard_manifest,
    split_evenly,
)
from repro.topology.model import ASTopology

__all__ = ["build_ihr_dataset", "transit_groups_indexed"]

log = logging.getLogger(__name__)

#: Below this many visible route groups the per-pool topology pickling
#: cannot pay for itself; transit scoring stays in-process.
MIN_SHARD_GROUPS = 64

#: Flat-path working-set bound (bytes) for one in-process hegemony
#: partition when no ``REPRO_BUILD_BUDGET_MB`` is configured.  Per-group
#: scores depend only on that group's paths, so partitioning the flat
#: reduction is an identity transform — it just caps how much of the
#: RIB's path table is ever flattened into int64 columns at once.
DEFAULT_HEGEMONY_PARTITION_BYTES = 64 * 1024 * 1024


def build_ihr_dataset(
    snapshot: RibSnapshot,
    rov: ROVValidator,
    irr: IRRCollection | IRRDatabase,
    topology: ASTopology,
    trim: float = DEFAULT_TRIM,
    shards: int | None = None,
    jobs: int | None = None,
    runtime: RuntimeConfig | None = None,
) -> IHRDataset:
    """Build both IHR tables from one collector snapshot.

    Vantage-point paths are identical for every prefix in a
    :class:`~repro.bgp.collector.RouteGroup`, so hegemony and the
    learned-from-customer flags are computed once per group.

    ``shards`` (default: the runtime config / ``REPRO_SHARDS``, else 1)
    fans both the bulk route validation (by prefix range) and the
    transit scoring (by route-group chunk) across a process pool;
    per-route verdicts and per-group hegemony are independent, so the
    sharded dataset is identical.  ``runtime`` installs a
    :class:`repro.config.RuntimeConfig` for the duration of the call.
    """
    if runtime is not None:
        with _config.use(runtime):
            return build_ihr_dataset(
                snapshot, rov, irr, topology, trim=trim, shards=shards, jobs=jobs
            )
    prefix_origins: list[PrefixOriginRecord] = []
    visible = [group for group in snapshot.groups if group.paths]
    shards = resolve_shards(shards)
    with obs.span("ihr.validate"):
        routes = [
            (prefix, group.origin)
            for group in visible
            for prefix in group.prefixes
        ]
        rpki_by_route = rov.validate_many(routes, shards=shards, jobs=jobs)
        irr_by_route = validate_irr_many(irr, routes, shards=shards, jobs=jobs)
    with obs.span("ihr.hegemony"):
        group_statuses: list[tuple] = []
        for group in visible:
            statuses = tuple(
                (
                    rpki_by_route[(prefix, group.origin)],
                    irr_by_route[(prefix, group.origin)],
                )
                for prefix in group.prefixes
            )
            group_statuses.append(statuses)
            visibility = len(group.paths)
            for prefix, (rpki_status, irr_status) in zip(
                group.prefixes, statuses
            ):
                prefix_origins.append(
                    PrefixOriginRecord(
                        prefix=prefix,
                        origin=group.origin,
                        rpki=rpki_status,
                        irr=irr_status,
                        visibility=visibility,
                    )
                )
        transit_groups = None
        if shards > 1 and len(visible) >= MIN_SHARD_GROUPS:
            transit_groups = _sharded_transit_groups(
                visible, group_statuses, topology, trim, shards, jobs
            )
        if transit_groups is None:
            transit_groups = _transit_groups_numpy(
                visible, group_statuses, topology, trim
            )
    obs.add("ihr.prefix_origins", len(prefix_origins))
    obs.add("ihr.transit_groups", len(transit_groups))
    return IHRDataset(prefix_origins=prefix_origins, transit_groups=transit_groups)


def _transit_groups_python(
    visible: list[RouteGroup],
    group_statuses: list[tuple],
    topology: ASTopology,
    trim: float,
) -> list[TransitGroup]:
    """The reference per-group transit scoring loop.

    Production scoring is :func:`_transit_groups_numpy`; this loop is
    the oracle ``tests/test_kernels.py`` checks it (and
    :func:`transit_groups_indexed`) against.
    """
    # Materialise customer sets once: ASTopology.customers_of copies a
    # frozenset per call, far too slow for millions of path positions.
    customers_of = {asn: topology.customers_of(asn) for asn in topology.asns}
    transit_groups: list[TransitGroup] = []
    for group, statuses in zip(visible, group_statuses):
        stripped = [strip_prepending(path) for path in group.paths.values()]
        scores = hegemony_scores(stripped, trim=trim, prestripped=True)
        if not scores:
            continue
        learned_from_customer = _customer_learning(stripped, customers_of)
        transits = {
            asn: TransitInfo(
                hegemony=score,
                from_customer=learned_from_customer.get(asn, False),
            )
            for asn, score in scores.items()
        }
        transit_groups.append(
            TransitGroup(
                origin=group.origin,
                prefixes=group.prefixes,
                statuses=statuses,
                transits=transits,
                visibility=len(group.paths),
            )
        )
    return transit_groups


def transit_groups_indexed(
    visible: list[RouteGroup],
    group_statuses: list[tuple],
    topology: ASTopology,
    trim: float = DEFAULT_TRIM,
) -> list[tuple[int, TransitGroup]]:
    """``(index, TransitGroup)`` pairs for groups with transit scores.

    Per-group outputs are identical to the batch builders above, but each
    surviving group is tagged with its index into ``visible`` so an
    incremental caller (:mod:`repro.delta`) can score a sparse subset of
    groups and splice the results between cached ones.
    """
    if not visible:
        return []
    columns = _hegemony_columns(visible, topology, trim)
    groups = _groups_from_columns(visible, group_statuses, columns)
    group_ids = columns[0]
    if not len(group_ids):
        return []
    bounds = np.flatnonzero(
        np.concatenate(([True], group_ids[1:] != group_ids[:-1]))
    )
    return list(zip(group_ids[bounds].tolist(), groups))


def _hegemony_columns(
    visible: list[RouteGroup], topology: ASTopology, trim: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The flat hegemony reduction as columns (group id, ASN, score, flag).

    Rows come out grouped by ascending group index; each group's rows
    depend only on that group's paths, which is what makes group-chunk
    sharding an identity transform.
    """
    all_paths: list[tuple[int, ...]] = []
    counts: list[int] = []
    for group in visible:
        paths = group.paths
        all_paths.extend(paths.values())
        counts.append(len(paths))
    lens = np.fromiter(map(len, all_paths), dtype=np.int64, count=len(all_paths))
    offsets = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(lens)))
    flat = np.fromiter(
        chain.from_iterable(all_paths), dtype=np.int64, count=int(offsets[-1])
    )
    paths_per_group = np.array(counts, dtype=np.int64)
    group_of_path = np.repeat(
        np.arange(len(visible), dtype=np.int64), paths_per_group
    )
    edges = topology.csr().customer_edge_keys()
    return hegemony_transits(
        flat,
        offsets,
        group_of_path,
        paths_per_group,
        trim,
        edges,
    )


def _groups_from_columns(
    visible: list[RouteGroup],
    group_statuses: list[tuple],
    columns: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> list[TransitGroup]:
    """Materialise TransitGroups from hegemony columns."""
    group_ids, asns, scores, flags = columns
    transit_groups: list[TransitGroup] = []
    if not len(group_ids):
        return transit_groups
    bounds = np.flatnonzero(
        np.concatenate(([True], group_ids[1:] != group_ids[:-1]))
    )
    ends = np.concatenate((bounds[1:], [len(group_ids)]))
    gi_list = group_ids.tolist()
    asn_list = asns.tolist()
    score_list = scores.tolist()
    flag_list = flags.tolist()
    for begin, end in zip(bounds.tolist(), ends.tolist()):
        group = visible[gi_list[begin]]
        transits = {
            asn_list[row]: TransitInfo(
                hegemony=score_list[row],
                from_customer=flag_list[row],
            )
            for row in range(begin, end)
        }
        transit_groups.append(
            TransitGroup(
                origin=group.origin,
                prefixes=group.prefixes,
                statuses=group_statuses[gi_list[begin]],
                transits=transits,
                visibility=len(group.paths),
            )
        )
    return transit_groups


def _partition_groups(
    visible: list[RouteGroup], budget_bytes: int
) -> list[list[RouteGroup]]:
    """Contiguous partitions of ``visible`` bounded by flat-path bytes.

    A group whose paths alone exceed the budget gets a partition of its
    own — partitions are never empty and their concatenation is
    ``visible``, so the streamed reduction visits every group exactly
    once in the serial order.
    """
    partitions: list[list[RouteGroup]] = []
    current: list[RouteGroup] = []
    current_bytes = 0
    for group in visible:
        group_bytes = 8 * sum(len(path) for path in group.paths.values())
        if current and current_bytes + group_bytes > budget_bytes:
            partitions.append(current)
            current = []
            current_bytes = 0
        current.append(group)
        current_bytes += group_bytes
    if current:
        partitions.append(current)
    return partitions


def _transit_groups_numpy(
    visible: list[RouteGroup],
    group_statuses: list[tuple],
    topology: ASTopology,
    trim: float,
) -> list[TransitGroup]:
    """Columnar transit scoring, streamed over route-group partitions.

    Produces the same TransitGroups in the same order with the same
    per-group transit insertion order as the reference loop (see
    :func:`repro.kernels.groupby.hegemony_transits`).  The flat
    reduction runs one bounded partition at a time: each group's rows
    depend only on its own paths and partitions are contiguous slices,
    so per-partition columns materialise exactly the groups the global
    reduction would — with the flattened int64 working set capped at
    ``REPRO_BUILD_BUDGET_MB`` (default
    :data:`DEFAULT_HEGEMONY_PARTITION_BYTES`).
    """
    budget = resolve_build_budget()
    bound = budget if budget is not None else DEFAULT_HEGEMONY_PARTITION_BYTES
    partitions = _partition_groups(visible, max(1, bound))
    obs.add("hegemony.partitions", len(partitions))
    transit_groups: list[TransitGroup] = []
    start = 0
    for partition in partitions:
        statuses = group_statuses[start : start + len(partition)]
        transit_groups.extend(
            _groups_from_columns(
                partition,
                statuses,
                _hegemony_columns(partition, topology, trim),
            )
        )
        start += len(partition)
    return transit_groups


def _customer_learning(
    stripped_paths: list[tuple[int, ...]],
    customers_of: dict[int, frozenset[int]],
) -> dict[int, bool]:
    """For each on-path AS, did it learn the route from a direct customer?

    Paths arrive prepending-stripped.  On a path ``(vp, ..., t, next, ...,
    origin)`` the AS after ``t`` (toward the origin) is the neighbour ``t``
    accepted the route from; the flag is set when that neighbour is
    ``t``'s customer.  The propagation engine gives every AS a single
    selected route, so the flag is consistent across paths.
    """
    learned: dict[int, bool] = {}
    for stripped in stripped_paths:
        for position in range(1, len(stripped) - 1):
            transit = stripped[position]
            if transit in learned:
                continue
            toward_origin = stripped[position + 1]
            learned[transit] = toward_origin in customers_of[transit]
    return learned


# Worker-process state for group-chunk sharded transit scoring, installed
# once per worker by the pool initializer (the topology pickles once).
_shard_topology: ASTopology | None = None
_shard_trim: float = DEFAULT_TRIM


def _init_ihr_shard_worker(topology: ASTopology, trim: float) -> None:
    global _shard_topology, _shard_trim
    _shard_topology = topology
    _shard_trim = trim


def _transit_shard(task: tuple) -> tuple[dict, tuple]:
    """Score one route-group chunk; emits hegemony column shards.

    Group ids in the emitted columns are chunk-local — the driver
    materialises each shard's groups directly against its own chunk.
    """
    index, total, chunk = task
    assert _shard_topology is not None
    columns = _hegemony_columns(chunk, _shard_topology, _shard_trim)
    return shard_manifest("ihr.transit", index, total, len(columns[0])), columns


def _sharded_transit_groups(
    visible: list[RouteGroup],
    group_statuses: list[tuple],
    topology: ASTopology,
    trim: float,
    shards: int,
    jobs: int | None,
) -> list[TransitGroup] | None:
    """Group-chunk sharded transit scoring; None falls back in-process.

    Chunks are contiguous slices of ``visible`` and every group's rows
    depend only on its own paths, so materialising each shard's groups
    from its chunk-local columns and extending in ascending shard order
    reproduces the unsharded reduction exactly.
    """
    chunks = split_evenly(visible, shards)
    total = len(chunks)
    status_chunks: list[list[tuple]] = []
    start = 0
    for chunk in chunks:
        status_chunks.append(group_statuses[start : start + len(chunk)])
        start += len(chunk)
    tasks = [(index, total, list(chunk)) for index, chunk in enumerate(chunks)]
    obs.add("ihr.transit_shards", total)
    manifests: list[dict] = []
    parts: list[list[TransitGroup]] = []

    def consume(result: tuple[dict, tuple]) -> None:
        # Shard columns carry chunk-local group ids, so each shard's
        # TransitGroups materialise on arrival against its own chunk —
        # no global column concatenation, at most one shard's columns
        # resident.  Should manifest validation below reject the set,
        # the materialised parts are discarded wholesale (the usual
        # discard-don't-stitch contract), never partially reused.
        manifest, columns = result
        position = len(manifests)
        manifests.append(manifest)
        if position < total:
            parts.append(
                _groups_from_columns(
                    list(chunks[position]), status_chunks[position], columns
                )
            )

    ok = pool_map_consume(
        _transit_shard,
        tasks,
        workers=obs.resolve_jobs(jobs),
        consume=consume,
        initializer=_init_ihr_shard_worker,
        initargs=(topology, trim),
    )
    if not ok:
        return None
    problems = check_shard_manifests(manifests, "ihr.transit", total)
    if problems:
        log.warning(
            "discarding sharded transit scoring (%s); recomputing unsharded",
            "; ".join(problems),
        )
        obs.add("shard.discarded")
        return None
    transit_groups: list[TransitGroup] = []
    for part in parts:
        transit_groups.extend(part)
    return transit_groups
