"""Interval kernels: bulk prefix-coverage lookups via ``searchsorted``.

RPKI route origin validation and IRR route-object matching share one
primitive: given a route ``(prefix, origin)``, find whether any
*covering* registered entry exists, whether one matches the origin, and
whether one authorises the announced prefix length.  The radix trie
answers that one route at a time in O(prefix length); these kernels
answer it for whole integer prefix columns at once.

The trick is that a prefix of length ``L`` covers a query iff the
query's top ``L`` address bits equal the entry's — so per registered
length ``L`` the entries reduce to a sorted array of ``L``-bit keys, and
covering containment over a column of queries becomes one
``np.searchsorted`` per populated length (at most 32 for IPv4).  Origin
matching packs ``(key, asn)`` into one ``uint64`` and aggregates the
maximum authorised length per pair, so the RFC 6811 verdict falls out of
three boolean columns.

IPv6 values exceed 64 bits; v6 entries use per-length Python dict
lookups instead (v6 populations in the model are small).  Verdicts are
exactly those of the per-route reference classifiers in
:mod:`repro.rpki.rov` and :mod:`repro.irr.validation`.

Routes are classified as a table (:meth:`RouteIntervalIndex.classify_rows`
over :func:`route_key_columns`), and both validators memoise the
verdicts the same way (:func:`memoise_verdicts`).
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from repro import obs
from repro.net.prefix import Prefix, prefix_columns

__all__ = [
    "NOT_FOUND",
    "VALID",
    "INVALID_LENGTH",
    "INVALID_ORIGIN",
    "RouteIntervalIndex",
    "memoise_verdicts",
    "route_key_columns",
    "union_address_count",
]

#: Verdict codes shared by the RPKI and IRR classifications.  The two
#: "invalid" flavours map to ``INVALID_ASN``/``INVALID_ORIGIN`` in the
#: respective status enums.
NOT_FOUND = 0
VALID = 1
INVALID_LENGTH = 2
INVALID_ORIGIN = 3

_V4_BITS = 32
_V6_BITS = 128
_U32 = np.uint64(_V4_BITS)


class _V4Bucket:
    """All v4 entries of one prefix length, in searchsorted form."""

    __slots__ = ("length", "shift", "keys", "packed", "packed_maxlen")

    def __init__(
        self,
        length: int,
        keys: np.ndarray,
        packed: np.ndarray,
        packed_maxlen: np.ndarray,
    ):
        self.length = length
        #: Right shift turning a v4 address into its ``length``-bit key.
        self.shift = np.uint64(_V4_BITS - length)
        #: Sorted unique top-``length``-bit keys (coverage test).
        self.keys = keys
        #: Sorted unique ``(key << 32) | asn`` pairs (origin-match test).
        self.packed = packed
        #: Max authorised length per ``packed`` entry (VALID test).
        self.packed_maxlen = packed_maxlen


class _V6Bucket:
    """All v6 entries of one prefix length (dict form: 128-bit keys)."""

    __slots__ = ("length", "keys", "maxlen_by_origin")

    def __init__(self, length: int):
        self.length = length
        self.keys: set[int] = set()
        #: ``(key, asn) -> max authorised length``.
        self.maxlen_by_origin: dict[tuple[int, int], int] = {}


class RouteIntervalIndex:
    """A frozen registry snapshot indexed for bulk classification.

    Each row is one VRP or route object, held as integer columns: the
    prefix as :func:`~repro.net.prefix.prefix_columns` stores it
    (``hi``, ``lo``, ``lengths``, ``versions``), the ASN and the max
    length.  No :class:`Prefix` is built; only the v6 rows become Python
    integers.  For the IRR, ``max_length`` is the object's own
    prefix length, which makes the paper's IRR procedure (§6.1) the
    exact RFC 6811 verdict function: a covering entry with matching
    origin is VALID iff the announcement is no more specific than
    ``max_length`` allows.

    ``zero_asn_matches=False`` reproduces ROV's AS0 rule: entries with
    ASN 0 still provide *coverage* but can never origin-match.
    """

    def __init__(
        self,
        hi: np.ndarray,
        lo: np.ndarray,
        lengths: np.ndarray,
        versions: np.ndarray,
        asns: np.ndarray,
        max_lengths: np.ndarray,
        zero_asn_matches: bool = False,
    ):
        self._zero_asn_matches = zero_asn_matches
        v4 = versions == 4
        self._v4_buckets = _build_v4_buckets(
            lo[v4], lengths[v4], asns[v4], max_lengths[v4], zero_asn_matches
        )
        v6 = ~v4
        self._v6_buckets = _build_v6_buckets(
            hi[v6], lo[v6], lengths[v6], asns[v6], max_lengths[v6],
            zero_asn_matches,
        )

    def rebucketed(
        self,
        version: int,
        length: int,
        hi: np.ndarray,
        lo: np.ndarray,
        lengths: np.ndarray,
        versions: np.ndarray,
        asns: np.ndarray,
        max_lengths: np.ndarray,
    ) -> "RouteIntervalIndex":
        """The index of the given columns, which hold this index's rows
        except in the IPv``version`` rows of prefix length ``length``.

        That one bucket is rebuilt from the columns; every other bucket
        is this index's own, shared (buckets are never modified).
        """
        rows = (lengths == length) & (versions == version)
        index = RouteIntervalIndex.__new__(RouteIntervalIndex)
        index._zero_asn_matches = zero = self._zero_asn_matches
        index._v4_buckets = self._v4_buckets
        index._v6_buckets = self._v6_buckets
        if version == 4:
            fresh = _build_v4_buckets(
                lo[rows], lengths[rows], asns[rows], max_lengths[rows], zero
            )
            index._v4_buckets = _with_bucket(self._v4_buckets, length, fresh)
        else:
            fresh = _build_v6_buckets(
                hi[rows], lo[rows], lengths[rows], asns[rows],
                max_lengths[rows], zero,
            )
            index._v6_buckets = _with_bucket(self._v6_buckets, length, fresh)
        return index

    # -- bulk classification ----------------------------------------------

    def classify_v4(
        self,
        values: np.ndarray,
        lengths: np.ndarray,
        origins: np.ndarray,
    ) -> np.ndarray:
        """Verdict codes for columns of v4 routes.

        ``values``/``origins`` are uint64, ``lengths`` int64; returns an
        int8 column of the module-level verdict codes.
        """
        n = len(values)
        covered = np.zeros(n, dtype=bool)
        matched = np.zeros(n, dtype=bool)
        valid = np.zeros(n, dtype=bool)
        for bucket in self._v4_buckets:
            # The routes at least as long as the bucket's prefixes; whole
            # columns when all are, which spares the gathers (a few routes,
            # as an event re-validates, are usually all).
            rows = lengths >= bucket.length
            if rows.all():
                rows = slice(None)
            elif not rows.any():
                break  # buckets ascend by length: none later applies
            keys = values[rows] >> bucket.shift
            covered[rows] |= _sorted_contains(bucket.keys, keys)
            packed = bucket.packed
            if len(packed):
                pk = (keys << _U32) | origins[rows]
                pos = np.minimum(np.searchsorted(packed, pk), len(packed) - 1)
                hit = packed[pos] == pk
                matched[rows] |= hit
                valid[rows] |= hit & (bucket.packed_maxlen[pos] >= lengths[rows])
        codes = np.full(n, NOT_FOUND, dtype=np.int8)
        codes[covered] = INVALID_ORIGIN
        codes[matched] = INVALID_LENGTH
        codes[valid] = VALID
        return codes

    def _classify_v6(self, value: int, qlen: int, origin: int) -> int:
        """Verdict code for a single v6 route (dict-backed)."""
        covered = matched = False
        for bucket in self._v6_buckets:
            if bucket.length > qlen:
                break
            key = value >> (_V6_BITS - bucket.length)
            if key not in bucket.keys:
                continue
            covered = True
            max_length = bucket.maxlen_by_origin.get((key, origin))
            if max_length is not None:
                matched = True
                if qlen <= max_length:
                    return VALID
        if matched:
            return INVALID_LENGTH
        return INVALID_ORIGIN if covered else NOT_FOUND

    def classify_rows(
        self,
        hi: np.ndarray,
        lo: np.ndarray,
        lengths: np.ndarray,
        versions: np.ndarray,
        origins: np.ndarray,
    ) -> np.ndarray:
        """Verdict codes of a table of routes, row for row.

        Each row is a route: its prefix as
        :func:`~repro.net.prefix.prefix_columns` stores it and its
        origin.  The v4 rows take one :meth:`classify_v4` sweep; the
        few v6 rows are classified one by one.  Returns an int8 column
        of the module-level verdict codes.
        """
        lengths = lengths.astype(np.int64)
        origins = origins.astype(np.uint64)
        v6 = np.flatnonzero(versions != 4)
        if not len(v6):
            return self.classify_v4(lo, lengths, origins)
        codes = np.empty(len(origins), dtype=np.int8)
        v4 = versions == 4
        codes[v4] = self.classify_v4(lo[v4], lengths[v4], origins[v4])
        codes[v6] = [
            self._classify_v6((high << 64) | low, length, origin)
            for high, low, length, origin in zip(
                hi[v6].tolist(),
                lo[v6].tolist(),
                lengths[v6].tolist(),
                origins[v6].tolist(),
            )
        ]
        return codes

    # -- bulk coverage ------------------------------------------------------

    def covers_v4(self, values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Boolean column: does any entry cover each v4 ``(value, length)``?"""
        covered = np.zeros(len(values), dtype=bool)
        for bucket in self._v4_buckets:
            mask = (lengths >= bucket.length) & ~covered
            if not mask.any():
                continue
            keys = values[mask] >> bucket.shift
            covered[mask] = _sorted_contains(bucket.keys, keys)
        return covered

    def covers_one_v6(self, prefix: Prefix) -> bool:
        """Does any entry cover this v6 prefix?"""
        value, qlen = prefix.value, prefix.length
        for bucket in self._v6_buckets:
            if bucket.length > qlen:
                break
            if value >> (_V6_BITS - bucket.length) in bucket.keys:
                return True
        return False

    def covers_prefixes(self, prefixes: Sequence[Prefix]) -> np.ndarray:
        """Boolean column aligned with ``prefixes`` (mixed v4/v6)."""
        covered = np.zeros(len(prefixes), dtype=bool)
        v4_pos: list[int] = []
        v4_vals: list[int] = []
        v4_lens: list[int] = []
        for i, prefix in enumerate(prefixes):
            if prefix.version == 4:
                v4_pos.append(i)
                v4_vals.append(prefix.value)
                v4_lens.append(prefix.length)
            else:
                covered[i] = self.covers_one_v6(prefix)
        if v4_pos:
            covered[np.array(v4_pos, dtype=np.int64)] = self.covers_v4(
                np.array(v4_vals, dtype=np.uint64),
                np.array(v4_lens, dtype=np.int64),
            )
        return covered


def route_key_columns(
    routes: Sequence[tuple[Prefix, int]],
) -> tuple[np.ndarray, ...]:
    """The :meth:`RouteIntervalIndex.classify_rows` columns of
    ``(prefix, origin)`` routes, row for row."""
    return (
        *prefix_columns("route", [prefix for prefix, _ in routes]).values(),
        np.fromiter(
            (origin for _, origin in routes), dtype=np.int64, count=len(routes)
        ),
    )


def memoise_verdicts(
    memo: dict,
    routes: Sequence[tuple[Prefix, int]],
    codes: np.ndarray,
    statuses: Sequence,
    domain: str,
) -> None:
    """Memoise the status of each route of ``routes`` (``codes[i]`` is
    route ``i``'s verdict code) that ``memo`` does not hold yet.

    Counts what a validator's bulk call counts under ``domain``: each
    distinct route is a memo hit or a miss, and each miss a verdict
    (``{domain}.verdict.{status}``).
    """
    verdicts = dict(zip(routes, map(statuses.__getitem__, codes.tolist())))
    fresh = verdicts
    if memo:
        fresh = {key: status for key, status in verdicts.items() if key not in memo}
    memo.update(fresh)
    for status, tally in Counter(fresh.values()).items():
        obs.add(f"{domain}.verdict.{status.value}", tally)
    obs.add(f"{domain}.memo_hits", len(verdicts) - len(fresh))
    obs.add(f"{domain}.memo_misses", len(fresh))


def _build_v4_buckets(
    vals: np.ndarray,
    lens: np.ndarray,
    asns: np.ndarray,
    maxs: np.ndarray,
    zero_asn_matches: bool,
) -> list[_V4Bucket]:
    values = np.array(vals, dtype=np.uint64)
    lengths = np.array(lens, dtype=np.int64)
    origins = np.array(asns, dtype=np.uint64)
    maxlens = np.array(maxs, dtype=np.int64)
    buckets: list[_V4Bucket] = []
    for length in np.unique(lengths):
        mask = lengths == length
        keys = values[mask] >> np.uint64(_V4_BITS - length)
        bucket_asns = origins[mask]
        bucket_maxlens = maxlens[mask]
        if not zero_asn_matches:
            nonzero = bucket_asns != 0
            packed_keys = keys[nonzero]
            bucket_asns = bucket_asns[nonzero]
            bucket_maxlens = bucket_maxlens[nonzero]
        else:
            packed_keys = keys
        packed = (packed_keys << np.uint64(_V4_BITS)) | bucket_asns
        if len(packed):
            order = np.argsort(packed, kind="stable")
            packed = packed[order]
            bucket_maxlens = bucket_maxlens[order]
            starts = np.flatnonzero(
                np.concatenate(([True], packed[1:] != packed[:-1]))
            )
            packed = packed[starts]
            packed_maxlen = np.maximum.reduceat(bucket_maxlens, starts)
        else:
            packed_maxlen = bucket_maxlens
        buckets.append(
            _V4Bucket(int(length), np.unique(keys), packed, packed_maxlen)
        )
    return buckets


def _build_v6_buckets(
    his: np.ndarray,
    los: np.ndarray,
    lens: np.ndarray,
    asns: np.ndarray,
    maxs: np.ndarray,
    zero_asn_matches: bool,
) -> list[_V6Bucket]:
    buckets: dict[int, _V6Bucket] = {}
    for high, low, length, asn, max_length in zip(
        his.tolist(), los.tolist(), lens.tolist(), asns.tolist(), maxs.tolist()
    ):
        bucket = buckets.get(length)
        if bucket is None:
            bucket = buckets[length] = _V6Bucket(length)
        key = ((high << 64) | low) >> (_V6_BITS - length)
        bucket.keys.add(key)
        if asn != 0 or zero_asn_matches:
            pair = (key, asn)
            known = bucket.maxlen_by_origin.get(pair)
            if known is None or max_length > known:
                bucket.maxlen_by_origin[pair] = max_length
    return sorted(buckets.values(), key=lambda bucket: bucket.length)


def _with_bucket(buckets: list, length: int, fresh: list) -> list:
    """``buckets`` (ascending lengths) with the bucket of ``length``
    replaced by ``fresh``: one bucket, or none when no row is left."""
    kept = [bucket for bucket in buckets if bucket.length != length]
    return sorted(kept + fresh, key=lambda bucket: bucket.length)


def _sorted_contains(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Membership of ``needles`` in the sorted unique ``haystack``."""
    if not len(haystack):
        return np.zeros(len(needles), dtype=bool)
    pos = np.searchsorted(haystack, needles)
    return haystack[np.minimum(pos, len(haystack) - 1)] == needles


def union_address_count(firsts: np.ndarray, lasts: np.ndarray) -> int:
    """Distinct addresses covered by intervals sorted by (first, length).

    Vector form of the sweep in
    :func:`repro.net.prefix.aggregate_address_count`: a running maximum
    of interval ends replaces the scalar ``covered_until`` cursor, and
    each interval contributes the part past everything before it.
    """
    if not len(firsts):
        return 0
    reach = np.maximum.accumulate(lasts)
    covered_until = np.empty_like(reach)
    covered_until[0] = -1
    covered_until[1:] = reach[:-1]
    contributions = lasts - np.maximum(firsts, covered_until + 1) + 1
    return int(contributions.clip(min=0).sum())
