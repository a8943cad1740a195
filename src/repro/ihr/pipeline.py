"""The IHR pipeline: collector RIBs + registries → analysis datasets.

This reimplements the derivation the Internet Health Report performs
(§5.3): classify every routed (prefix, origin) against the RPKI (RFC 6811)
and the IRR, compute AS-Hegemony scores for the transit ASes on paths
toward it, and emit the prefix-origin and transit datasets the paper's
conformance and impact analyses consume.

The construction batches its lookups: all (prefix, origin) pairs are
classified up front through the bulk/memoised validator paths (one
interval-kernel pass instead of one lookup per record), and transit
scoring runs as a columnar reduction over bounded partitions of the
groups' paths (:func:`repro.kernels.groupby.hegemony_transits`).  The
per-group loop it replaced, :func:`_transit_groups_python`, stays as the
reference ``tests/test_kernels.py`` checks it against.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro import obs
from repro.bgp.collector import RibSnapshot, RouteGroup
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
from repro.topology.model import ASTopology

__all__ = ["build_ihr_dataset", "transit_groups_indexed"]

#: Flat-path bytes scored per hegemony partition.  Per-group scores
#: depend only on that group's paths, so partitioning the flat reduction
#: is an identity transform; the bound caps how much of the RIB's path
#: table is flattened into int64 columns, and the kernel temporaries
#: that scale with it, at once (DESIGN §18).
HEGEMONY_PARTITION_BYTES = 2 * 1024 * 1024


def build_ihr_dataset(
    snapshot: RibSnapshot,
    rov: ROVValidator,
    irr: IRRCollection | IRRDatabase,
    topology: ASTopology,
    trim: float = DEFAULT_TRIM,
) -> IHRDataset:
    """Build both IHR tables from one collector snapshot.

    Vantage-point paths are identical for every prefix in a
    :class:`~repro.bgp.collector.RouteGroup`, so hegemony and the
    learned-from-customer flags are computed once per group.
    """
    prefix_origins: list[PrefixOriginRecord] = []
    visible = [group for group in snapshot.groups if group.paths]
    with obs.span("ihr.validate"):
        routes = [
            (prefix, group.origin)
            for group in visible
            for prefix in group.prefixes
        ]
        rpki_by_route = rov.validate_many(routes)
        irr_by_route = validate_irr_many(irr, routes)
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
    depend only on that group's paths, which is what makes partitioning
    the groups an identity transform.
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
    visible: list[RouteGroup], bound_bytes: int
) -> list[list[RouteGroup]]:
    """Contiguous partitions of ``visible`` bounded by flat-path bytes.

    A group whose paths alone exceed the bound gets a partition of its
    own — partitions are never empty and their concatenation is
    ``visible``, so the streamed reduction visits every group exactly
    once in the serial order.
    """
    partitions: list[list[RouteGroup]] = []
    current: list[RouteGroup] = []
    current_bytes = 0
    for group in visible:
        group_bytes = 8 * sum(len(path) for path in group.paths.values())
        if current and current_bytes + group_bytes > bound_bytes:
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
    :data:`HEGEMONY_PARTITION_BYTES`.
    """
    partitions = _partition_groups(visible, HEGEMONY_PARTITION_BYTES)
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

