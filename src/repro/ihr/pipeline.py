"""The IHR pipeline: collector RIBs + registries → analysis datasets.

This reimplements the derivation the Internet Health Report performs
(§5.3): classify every routed (prefix, origin) against the RPKI (RFC 6811)
and the IRR, compute AS-Hegemony scores for the transit ASes on paths
toward it, and emit the prefix-origin and transit tables the paper's
conformance and impact analyses consume, as the stored columns of
:class:`~repro.ihr.records.IHRDataset`.

The construction batches its lookups: the visible (prefix, origin)
pairs of the RIB's columns are classified up front through the
bulk/memoised validator paths (one interval-kernel pass instead of one
lookup per record), and transit scoring runs as a columnar reduction
over bounded partitions of the visible groups' rows of
``rib_path_values`` (:func:`repro.kernels.groupby.hegemony_transits`).
The per-group loop it replaced stays in ``tests/test_kernels.py`` as
the oracle both the partitioned build path and the live world's
re-scoring path are checked against.  :func:`assemble_ihr` turns the
visible groups, their routes' statuses and their hegemony rows into
the tables; the build and the live world (:mod:`repro.delta.live`)
both call it.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro import obs
from repro.bgp.collector import RibSnapshot
from repro.hegemony.scores import DEFAULT_TRIM
from repro.ihr.records import IRR_STATUSES, LEGEND, RPKI_STATUSES, IHRDataset
from repro.irr.database import IRRCollection, IRRDatabase
from repro.irr.validation import IRRStatus, validate_irr_many
from repro.kernels.groupby import hegemony_transits
from repro.net.prefix import Prefix
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
#: table is gathered into the kernel's input, and the kernel
#: temporaries that scale with it, at once (DESIGN §18).
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
    """Build both IHR tables from one collector snapshot, validating
    its visible routes against ``rov`` and ``irr``.

    Vantage-point paths are identical for every prefix of a route
    group, so hegemony and the learned-from-customer flags are computed
    once per group.
    """
    with obs.span("ihr.validate"):
        routes = snapshot.routes(snapshot.visible_rows())
        rpki_by_route = rov.validate_many(routes)
        irr_by_route = validate_irr_many(irr, routes)
    with obs.span("ihr.hegemony"):
        return assemble_ihr(
            snapshot,
            rpki_by_route,
            irr_by_route,
            _partitioned_rows(snapshot, topology, trim),
        )


def assemble_ihr(
    rib: RibSnapshot,
    rpki_of: Mapping[tuple[Prefix, int], RPKIStatus],
    irr_of: Mapping[tuple[Prefix, int], IRRStatus],
    transits: HegemonyRows,
) -> IHRDataset:
    """The IHR tables of the visible route groups of ``rib``.

    ``rpki_of`` and ``irr_of`` give the statuses of every
    ``(prefix, origin)`` route of the groups; ``transits`` are the
    groups' hegemony rows, numbered by visible group.  The prefix-origin
    rows are the visible groups' rows of the RIB, gathered.  The transit
    groups are the visible groups that have a row, in order, and their
    prefix and status rows are theirs in ``po_*``.
    """
    columns = rib.arrays
    visible = rib.visible()
    rows = rib.visible_rows()
    routes = rib.routes(rows)
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
    counts = np.diff(columns["rib_prefix_offsets"])[visible]
    origins = columns["rib_origin"][visible]
    visibility = np.diff(columns["rib_ref_offsets"])[visible]
    po_prefix = rib.prefix_rows("po_prefix", rows)
    group_ids, asns, scores, flags = transits
    per_group = np.bincount(group_ids, minlength=len(origins))
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


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indexes ``starts[i] .. starts[i] + lengths[i] - 1``, run after
    run."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total, dtype=np.int64) + np.repeat(
        starts - ends + lengths, lengths
    )


def hegemony_rows(
    rib: RibSnapshot,
    groups: np.ndarray,
    topology: ASTopology,
    trim: float,
) -> HegemonyRows:
    """The flat hegemony reduction of the groups ``groups`` of ``rib``.

    ``groups`` are ascending group indexes, and a row's group id is its
    group's position in ``groups``.  The groups' paths are gathered from
    ``rib_path_values`` as stored.  Rows come out grouped by ascending
    group id; each group's rows depend only on that group's paths, which
    is what makes partitioning the groups an identity transform.
    """
    groups = np.asarray(groups, dtype=np.int64)
    columns = rib.arrays
    ref_offsets = columns["rib_ref_offsets"]
    path_offsets = columns["rib_path_offsets"]
    paths_per_group = ref_offsets[groups + 1] - ref_offsets[groups]
    refs = _spans(ref_offsets[groups], paths_per_group)
    lengths = path_offsets[refs + 1] - path_offsets[refs]
    return hegemony_transits(
        columns["rib_path_values"][_spans(path_offsets[refs], lengths)],
        _offsets(lengths),
        np.repeat(np.arange(len(groups), dtype=np.int64), paths_per_group),
        paths_per_group,
        trim,
        topology.csr().customer_edge_keys(),
    )


def _partition_bounds(sizes: Sequence[int], bound_bytes: int) -> list[int]:
    """Boundaries of contiguous partitions of groups of ``sizes`` bytes.

    A group whose paths alone exceed the bound gets a partition of its
    own — partitions are never empty and together they cover every
    group, so the streamed reduction visits every group exactly once in
    the serial order.
    """
    bounds = [0]
    current = 0
    for index, size in enumerate(sizes):
        if current and current + size > bound_bytes:
            bounds.append(index)
            current = 0
        current += size
    if sizes:
        bounds.append(len(sizes))
    return bounds


def _partitioned_rows(
    rib: RibSnapshot, topology: ASTopology, trim: float
) -> HegemonyRows:
    """:func:`hegemony_rows` of the visible groups, streamed over
    partitions.

    Each group's rows depend only on its own paths and partitions are
    contiguous runs of visible groups, so per-partition rows, with
    their group ids shifted by the partition's start, are exactly the
    rows the global reduction would emit — with the gathered int64
    working set capped at :data:`HEGEMONY_PARTITION_BYTES`.
    """
    visible = np.flatnonzero(rib.visible())
    ref_offsets = rib.arrays["rib_ref_offsets"]
    path_offsets = rib.arrays["rib_path_offsets"]
    sizes = 8 * (
        path_offsets[ref_offsets[visible + 1]] - path_offsets[ref_offsets[visible]]
    )
    bounds = _partition_bounds(sizes.tolist(), HEGEMONY_PARTITION_BYTES)
    obs.add("hegemony.partitions", len(bounds) - 1)
    # The empty reduction seeds the concatenation: no groups, no rows.
    parts = [hegemony_rows(rib, visible[:0], topology, trim)]
    for begin, end in zip(bounds, bounds[1:]):
        group_ids, asns, scores, flags = hegemony_rows(
            rib, visible[begin:end], topology, trim
        )
        parts.append((group_ids + begin, asns, scores, flags))
    return tuple(np.concatenate(column) for column in zip(*parts))
