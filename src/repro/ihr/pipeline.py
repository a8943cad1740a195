"""The IHR pipeline: collector RIBs + registries → analysis datasets.

This reimplements the derivation the Internet Health Report performs
(§5.3): classify every routed (prefix, origin) against the RPKI (RFC 6811)
and the IRR, compute AS-Hegemony scores for the transit ASes on paths
toward it, and emit the prefix-origin and transit tables the paper's
conformance and impact analyses consume, as the stored columns of
:class:`~repro.ihr.records.IHRDataset`.

The construction batches its lookups: all (prefix, origin) pairs are
classified up front through the bulk/memoised validator paths (one
interval-kernel pass instead of one lookup per record), and transit
scoring runs as a columnar reduction over bounded partitions of the
groups' paths (:func:`repro.kernels.groupby.hegemony_transits`).  The
per-group loop it replaced stays in ``tests/test_kernels.py`` as the
oracle both the partitioned build path and the live world's re-scoring
path are checked against.  :func:`assemble_ihr` turns the visible
groups, their routes' statuses and their hegemony rows into the tables;
the build and the live world (:mod:`repro.delta.live`) both call it.
"""

from __future__ import annotations

from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from repro import obs
from repro.bgp.collector import RibSnapshot, RouteGroup
from repro.hegemony.scores import DEFAULT_TRIM
from repro.ihr.records import IRR_STATUSES, LEGEND, RPKI_STATUSES, IHRDataset
from repro.irr.database import IRRCollection, IRRDatabase
from repro.irr.validation import IRRStatus, validate_irr_many
from repro.kernels.groupby import hegemony_transits
from repro.net.prefix import Prefix, prefix_columns
from repro.rpki.rov import ROVValidator, RPKIStatus
from repro.topology.model import ASTopology

__all__ = [
    "assemble_ihr",
    "build_ihr_dataset",
    "hegemony_rows",
]

#: Flat-path bytes scored per hegemony partition.  Per-group scores
#: depend only on that group's paths, so partitioning the flat reduction
#: is an identity transform; the bound caps how much of the RIB's path
#: table is flattened into int64 columns, and the kernel temporaries
#: that scale with it, at once (DESIGN §18).
HEGEMONY_PARTITION_BYTES = 2 * 1024 * 1024

#: Status → its code in the tables.
_RPKI_CODE = {status: code for code, status in enumerate(RPKI_STATUSES)}
_IRR_CODE = {status: code for code, status in enumerate(IRR_STATUSES)}

#: Hegemony rows: (group index, transit ASN, hegemony, from customer),
#: grouped by ascending group index, each group's in scoring order.
HegemonyRows = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


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
        return assemble_ihr(
            visible,
            rpki_by_route,
            irr_by_route,
            _partitioned_rows(visible, topology, trim),
        )


def assemble_ihr(
    visible: Sequence[RouteGroup],
    rpki_of: Mapping[tuple[Prefix, int], RPKIStatus],
    irr_of: Mapping[tuple[Prefix, int], IRRStatus],
    transits: HegemonyRows,
) -> IHRDataset:
    """The IHR tables of the visible route groups.

    ``rpki_of`` and ``irr_of`` give the statuses of every
    ``(prefix, origin)`` route of the groups; ``transits`` are the
    groups' hegemony rows.  The transit groups are the visible groups
    that have a row, in order, and their prefix and status rows are
    theirs in ``po_*``.
    """
    routes = [
        (prefix, group.origin) for group in visible for prefix in group.prefixes
    ]
    rpki = np.fromiter(
        (_RPKI_CODE[rpki_of[route]] for route in routes),
        dtype=np.int64,
        count=len(routes),
    )
    irr = np.fromiter(
        (_IRR_CODE[irr_of[route]] for route in routes),
        dtype=np.int64,
        count=len(routes),
    )
    n = len(visible)
    counts = np.fromiter(
        (len(group.prefixes) for group in visible), dtype=np.int64, count=n
    )
    origins = np.fromiter(
        (group.origin for group in visible), dtype=np.int64, count=n
    )
    visibility = np.fromiter(
        (len(group.paths) for group in visible), dtype=np.int64, count=n
    )
    po_prefix = prefix_columns("po_prefix", [prefix for prefix, _ in routes])
    group_ids, asns, scores, flags = transits
    per_group = np.bincount(group_ids, minlength=n)
    scored = per_group > 0
    in_transit_group = np.repeat(scored, counts)
    dataset = IHRDataset(
        LEGEND,
        {
            **po_prefix,
            "po_origin": np.repeat(origins, counts),
            "po_rpki": rpki,
            "po_irr": irr,
            "po_visibility": np.repeat(visibility, counts),
            "tg_origin": origins[scored],
            "tg_visibility": visibility[scored],
            **{
                name.replace("po_", "tg_", 1): column[in_transit_group]
                for name, column in po_prefix.items()
            },
            "tg_rpki": rpki[in_transit_group],
            "tg_irr": irr[in_transit_group],
            "tg_offsets": _offsets(counts[scored]),
            "tr_asn": asns,
            "tr_hegemony": scores,
            "tr_from_customer": flags,
            "tr_offsets": _offsets(per_group[scored]),
        },
    )
    obs.add("ihr.prefix_origins", len(rpki))
    obs.add("ihr.transit_groups", int(scored.sum()))
    return dataset


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """Slice boundaries of consecutive runs of ``lengths``."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def hegemony_rows(
    visible: Sequence[RouteGroup], topology: ASTopology, trim: float
) -> HegemonyRows:
    """The flat hegemony reduction of ``visible`` as rows.

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


def _partitioned_rows(
    visible: list[RouteGroup], topology: ASTopology, trim: float
) -> HegemonyRows:
    """:func:`hegemony_rows`, streamed over route-group partitions.

    Each group's rows depend only on its own paths and partitions are
    contiguous slices, so per-partition rows, with their group indexes
    shifted by the partition's start, are exactly the rows the global
    reduction would emit — with the flattened int64 working set capped
    at :data:`HEGEMONY_PARTITION_BYTES`.
    """
    partitions = _partition_groups(visible, HEGEMONY_PARTITION_BYTES)
    obs.add("hegemony.partitions", len(partitions))
    # The empty reduction seeds the concatenation: no groups, no rows.
    parts = [hegemony_rows([], topology, trim)]
    start = 0
    for partition in partitions:
        group_ids, asns, scores, flags = hegemony_rows(
            partition, topology, trim
        )
        parts.append((group_ids + start, asns, scores, flags))
        start += len(partition)
    return tuple(np.concatenate(column) for column in zip(*parts))
