"""CSR propagation kernels: batched phase-2/3 sweeps for collection.

``PropagationEngine.paths_to`` re-runs the same three-phase computation
for thousands of origins against one vantage-point set.  Phase 1
(customer routes up the origin's provider chain) touches a handful of
ASes and stays in Python; phases 2 and 3 each scan the vantage points'
provider *closure* — a fixed set of ~10² ASes whose peer/provider
adjacency never changes between origins.  This module freezes that
closure into CSR slot arrays once per vantage-point set
(:class:`CollectionPlan`) and then resolves phases 2–3 for a whole batch
of origins as ``min``-``reduceat`` sweeps over ``(origins × slots)``
matrices.

Selection semantics are bit-identical to the scalar reference
(:meth:`PropagationEngine._fast_paths`): candidates pack to
``length * 2**16 + neighbour_rank`` so the vectorised ``min`` reproduces
"shortest path, then first neighbour in ascending-ASN iteration", and
phase 3 runs level-by-level over the provider-first closure ordering —
every provider of a level-``k`` AS sits in a level below ``k``, so the
per-level sweep sees exactly the state the sequential loop saw.

No path is built as a tuple.  Every selected route is "an AS, then the
route it was learned from", so the batch's routes form one pointer
table: each phase-1 route points at its child's, a phase-2 route at its
exporter's phase-1 route and a phase-3 route at its provider's.  The
vantage points' paths are written straight into RIB-shaped columns by
chasing those pointers for every path at once, one AS per step
(:func:`batch_paths`); :class:`GroupPaths` reads one origin's paths
back as a mapping.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Mapping, Sequence

import numpy as np

__all__ = ["CollectionPlan", "GroupPaths", "batch_paths"]

#: Rank base for packed (path length, neighbour rank) candidate keys.
_RANK = np.int64(1) << np.int64(16)
#: "No candidate" sentinel; larger than any packed key.
_NONE = np.int64(1) << np.int64(62)


class CollectionPlan:
    """One vantage-point set's closure, frozen for batched resolution.

    Built from the provider-first closure ``order`` (phase-3 processing
    sequence) and the engine's frozen ascending-ASN adjacency tuples —
    slot ranks inherit their ordering, which is what makes the packed
    ``min`` reproduce the scalar tie-breaks.  Exporters — the peers that
    may feed a phase-2 route into the closure — are pooled separately
    because they need not be closure members themselves.
    """

    __slots__ = (
        "casn",
        "cidx",
        "vp_asns",
        "vp_columns",
        "closure_lookup",
        "exporter_asns",
        "exporter_lookup",
        "p2_members",
        "p2_starts",
        "p2_slot_exporter",
        "p2_slot_rank",
        "levels",
    )

    def __init__(
        self,
        order: tuple[int, ...],
        vantage_points: tuple[int, ...],
        peers_of: Mapping[int, tuple[int, ...]],
        providers_of: Mapping[int, tuple[int, ...]],
    ):
        self.casn = list(order)
        self.cidx = {asn: i for i, asn in enumerate(order)}
        self.vp_asns = np.array(vantage_points, dtype=np.int64)
        self.vp_columns = np.array(
            [self.cidx[vp] for vp in vantage_points], dtype=np.int64
        )
        self.closure_lookup = _Lookup(order)

        # Phase-2 slots: per closure member with peers, its peers mapped
        # into one exporter pool (slot order = ascending-ASN peer order).
        exporter_asns: list[int] = []
        eidx: dict[int, int] = {}
        members: list[int] = []
        starts: list[int] = []
        slot_exporter: list[int] = []
        for c, asn in enumerate(order):
            peers = peers_of[asn]
            if not peers:
                continue
            members.append(c)
            starts.append(len(slot_exporter))
            for peer in peers:
                e = eidx.get(peer)
                if e is None:
                    e = len(exporter_asns)
                    eidx[peer] = e
                    exporter_asns.append(peer)
                slot_exporter.append(e)
        self.exporter_asns = exporter_asns
        self.exporter_lookup = _Lookup(exporter_asns)
        self.p2_members = np.array(members, dtype=np.int64)
        self.p2_starts = np.array(starts, dtype=np.int64)
        self.p2_slot_exporter = np.array(slot_exporter, dtype=np.int64)
        ranks = np.arange(len(slot_exporter), dtype=np.int64)
        if len(starts):
            ranks -= np.repeat(
                self.p2_starts,
                np.diff(np.concatenate((self.p2_starts, [len(slot_exporter)]))),
            )
        self.p2_slot_rank = ranks

        # Phase-3 levels: partition the provider-first order into rounds
        # where every member's providers sit in an earlier round.  The
        # closure is provider-closed, so provider lookups stay inside it.
        level_of: dict[int, int] = {}
        by_level: dict[int, list[int]] = {}
        for c, asn in enumerate(order):
            providers = providers_of[asn]
            level = (
                0
                if not providers
                else 1 + max(level_of[p] for p in providers)
            )
            level_of[asn] = level
            if providers:
                by_level.setdefault(level, []).append(c)
        self.levels = []
        for level in sorted(by_level):
            l_members: list[int] = []
            l_starts: list[int] = []
            l_slot_provider: list[int] = []
            for c in by_level[level]:
                l_members.append(c)
                l_starts.append(len(l_slot_provider))
                l_slot_provider.extend(
                    self.cidx[p] for p in providers_of[self.casn[c]]
                )
            slot_provider = np.array(l_slot_provider, dtype=np.int64)
            starts_arr = np.array(l_starts, dtype=np.int64)
            rank_arr = np.arange(len(slot_provider), dtype=np.int64)
            rank_arr -= np.repeat(
                starts_arr,
                np.diff(np.concatenate((starts_arr, [len(slot_provider)]))),
            )
            self.levels.append(
                (
                    np.array(l_members, dtype=np.int64),
                    starts_arr,
                    slot_provider,
                    rank_arr,
                )
            )

    def filter_masks(
        self, drops_peers: frozenset[int], drops_everywhere: frozenset[int]
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Per-member keep masks for one filter signature."""
        casn = self.casn
        p2_keep = np.array(
            [casn[c] not in drops_peers for c in self.p2_members.tolist()],
            dtype=bool,
        )
        level_keeps = [
            np.array(
                [casn[c] not in drops_everywhere for c in members.tolist()],
                dtype=bool,
            )
            for members, _, _, _ in self.levels
        ]
        return p2_keep, level_keeps


class _Lookup:
    """ASN → position in a list of distinct ASNs, for whole columns."""

    __slots__ = ("order", "asns")

    def __init__(self, asns: Sequence[int]):
        values = np.array(asns, dtype=np.int64)
        self.order = np.argsort(values, kind="stable")
        self.asns = values[self.order]

    def find(self, asns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which of ``asns`` are listed, and the positions of those."""
        if not len(self.asns):
            return np.zeros(len(asns), dtype=bool), np.empty(0, dtype=np.int64)
        at = np.minimum(np.searchsorted(self.asns, asns), len(self.asns) - 1)
        hit = self.asns[at] == asns
        return hit, self.order[at[hit]]


#: One origin's phase-1 routes, in breadth-first order from the origin:
#: the AS holding each, the position of the route it extends (-1 for
#: the origin's own), and its path length in ASes.
Tree = tuple[list[int], list[int], list[int]]


def batch_paths(
    plan: CollectionPlan,
    trees: Sequence[Tree],
    p2_keep: np.ndarray,
    level_keeps: list[np.ndarray],
) -> dict[str, np.ndarray]:
    """Resolve phases 2–3 for every origin in one sweep per phase.

    ``trees`` holds each origin's phase-1 routes.  Returns the RIB's
    path columns (``rib_ref_vp``, ``rib_ref_offsets``,
    ``rib_path_values``, ``rib_path_offsets``; see
    :class:`repro.bgp.collector.RibSnapshot`) of one route group per
    origin, in order: its references are the vantage points holding a
    route, in vantage-point order, and each path runs from the vantage
    point to the origin — the paths, and the order, of the scalar
    reference.
    """
    n_origins = len(trees)
    n_closure = len(plan.casn)
    n_exporters = len(plan.exporter_asns)
    counts = [len(asns) for asns, _, _ in trees]
    n_base = sum(counts)
    # The phase-1 routes of the batch, one node each.
    base_asn = np.fromiter(
        chain.from_iterable(tree[0] for tree in trees), np.int64, n_base
    )
    hops = np.fromiter(
        chain.from_iterable(tree[1] for tree in trees), np.int64, n_base
    )
    base_len = np.fromiter(
        chain.from_iterable(tree[2] for tree in trees), np.int64, n_base
    )
    origin_of = np.repeat(np.arange(n_origins), counts)
    firsts = np.cumsum([0, *counts[:-1]], dtype=np.int64)
    base_next = np.where(hops >= 0, hops + firsts[origin_of], -1)
    nodes = np.arange(n_base, dtype=np.int64)

    # Scatter phase-1 path lengths (and nodes) into the exporter and
    # closure columns.
    exporter_len = np.zeros((n_origins, n_exporters), dtype=np.int64)
    exporter_node = np.zeros((n_origins, n_exporters), dtype=np.int64)
    hit, column = plan.exporter_lookup.find(base_asn)
    exporter_len[origin_of[hit], column] = base_len[hit]
    exporter_node[origin_of[hit], column] = nodes[hit]
    merged_len = np.zeros((n_origins, n_closure), dtype=np.int64)
    kind = np.zeros((n_origins, n_closure), dtype=np.int8)
    #: The node of each closure member's route: its phase-1 node, or
    #: (set below) its own closure node.
    start = np.zeros((n_origins, n_closure), dtype=np.int64)
    hit, column = plan.closure_lookup.find(base_asn)
    merged_len[origin_of[hit], column] = base_len[hit]
    kind[origin_of[hit], column] = 1
    start[origin_of[hit], column] = nodes[hit]
    peer_bp = np.zeros((n_origins, n_closure), dtype=np.int32)
    provider_bp = np.zeros((n_origins, n_closure), dtype=np.int32)

    # Phase 2: best (shortest, lowest-rank) exporting peer per member.
    if len(plan.p2_members):
        gathered = exporter_len[:, plan.p2_slot_exporter]
        packed = np.where(
            gathered > 0, gathered * _RANK + plan.p2_slot_rank, _NONE
        )
        best = np.minimum.reduceat(packed, plan.p2_starts, axis=1)
        members = plan.p2_members
        chosen = (
            (best < _NONE) & (merged_len[:, members] == 0) & p2_keep[None, :]
        )
        slots = plan.p2_starts[None, :] + (best % _RANK)
        exporters = plan.p2_slot_exporter[slots]
        merged_len[:, members] = np.where(
            chosen, best // _RANK + 1, merged_len[:, members]
        )
        kind[:, members] = np.where(chosen, np.int8(2), kind[:, members])
        peer_bp[:, members] = np.where(
            chosen, exporters.astype(np.int32), peer_bp[:, members]
        )

    # Phase 3, one round per closure level (provider-first semantics).
    for (members, starts, slot_provider, slot_rank), keep in zip(
        plan.levels, level_keeps
    ):
        gathered = merged_len[:, slot_provider]
        packed = np.where(gathered > 0, gathered * _RANK + slot_rank, _NONE)
        best = np.minimum.reduceat(packed, starts, axis=1)
        chosen = (
            (best < _NONE) & (merged_len[:, members] == 0) & keep[None, :]
        )
        providers = slot_provider[starts[None, :] + (best % _RANK)]
        merged_len[:, members] = np.where(
            chosen, best // _RANK + 1, merged_len[:, members]
        )
        kind[:, members] = np.where(chosen, np.int8(3), kind[:, members])
        provider_bp[:, members] = np.where(
            chosen, providers.astype(np.int32), provider_bp[:, members]
        )

    # The pointer table: phase-1 nodes, then one node per (origin,
    # closure member).  A phase-2 node points at its exporter's phase-1
    # node, a phase-3 node at its provider's route.
    own = n_base + np.arange(n_origins * n_closure, dtype=np.int64).reshape(
        n_origins, n_closure
    )
    start = np.where(kind == 1, start, own)
    closure_next = np.full((n_origins, n_closure), -1, dtype=np.int64)
    rows, columns = np.nonzero(kind == 2)
    closure_next[rows, columns] = exporter_node[rows, peer_bp[rows, columns]]
    rows, columns = np.nonzero(kind == 3)
    closure_next[rows, columns] = start[rows, provider_bp[rows, columns]]
    node_asn = np.concatenate(
        [base_asn, np.tile(np.array(plan.casn, dtype=np.int64), n_origins)]
    )
    node_next = np.concatenate([base_next, closure_next.ravel()])

    # One reference per (origin, vantage point holding a route), and
    # its path written by chasing the pointers, one AS per step.
    held = kind[:, plan.vp_columns] != 0
    ref_offsets = np.zeros(n_origins + 1, dtype=np.int64)
    np.cumsum(held.sum(axis=1), out=ref_offsets[1:])
    path_offsets = np.zeros(int(ref_offsets[-1]) + 1, dtype=np.int64)
    np.cumsum(merged_len[:, plan.vp_columns][held], out=path_offsets[1:])
    values = np.empty(int(path_offsets[-1]), dtype=np.int64)
    at = path_offsets[:-1].copy()
    node = start[:, plan.vp_columns][held]
    while len(node):
        values[at] = node_asn[node]
        node = node_next[node]
        going = node >= 0
        node = node[going]
        at = at[going] + 1
    return {
        "rib_path_values": values,
        "rib_path_offsets": path_offsets,
        "rib_ref_vp": np.broadcast_to(plan.vp_asns, held.shape)[held],
        "rib_ref_offsets": ref_offsets,
    }


class GroupPaths(Mapping[int, tuple[int, ...]]):
    """The paths of group ``group`` of the RIB-shaped path columns in
    ``columns``, as a read-only mapping.

    The columns are a RIB's (:meth:`repro.bgp.collector.RibSnapshot.group_paths`)
    or a block :func:`batch_paths` wrote.  Vantage points iterate in
    reference order, as they do in the dict
    :meth:`~repro.bgp.collector.RibSnapshot.groups` decodes.  The size
    comes from the offsets; the paths are decoded on the first read of
    a key or a value, and kept.  A view is never decoded to be stored:
    :func:`~repro.bgp.collector.assemble_rib` copies the group's column
    slices.
    """

    __slots__ = ("columns", "group", "_paths")

    def __init__(self, columns: Mapping[str, np.ndarray], group: int):
        self.columns = columns
        self.group = group
        self._paths: dict[int, tuple[int, ...]] | None = None

    def _decoded(self) -> dict[int, tuple[int, ...]]:
        if self._paths is None:
            columns = self.columns
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
        offsets = self.columns["rib_ref_offsets"]
        return int(offsets[self.group + 1] - offsets[self.group])

    def __iter__(self) -> Iterator[int]:
        return iter(self._decoded())

    def __getitem__(self, vantage_point: int) -> tuple[int, ...]:
        return self._decoded()[vantage_point]
