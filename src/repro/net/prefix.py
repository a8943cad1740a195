"""IP prefix algebra for IPv4 and IPv6.

The whole measurement pipeline — RPKI route origin validation, IRR route
object matching, prefix2as derivation, address-space accounting — operates
on CIDR prefixes.  This module provides an immutable :class:`Prefix` value
type backed by plain integers, which keeps comparisons and radix-trie
insertion cheap (no per-operation object churn as with ``ipaddress``).

A prefix is the pair ``(value, length)`` for a given IP ``version`` where
``value`` is the network address as an unsigned integer with all host bits
zero.  ``Prefix`` objects are hashable and totally ordered (by version,
then value, then length) so they can be used as dict keys and sorted into
the canonical "address order" used by routing-table dumps.
"""

from __future__ import annotations

import re
from functools import total_ordering
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import PrefixError

__all__ = [
    "Prefix",
    "address_key",
    "aggregate_address_count",
    "coalesce",
    "prefix_columns",
    "prefix_keys",
    "prefixes_from_columns",
]

_V4_BITS = 32
_V6_BITS = 128
_V4_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


def _parse_v4(text: str) -> int:
    match = _V4_RE.match(text)
    if match is None:
        raise PrefixError(f"malformed IPv4 address: {text!r}")
    value = 0
    for octet_text in match.groups():
        octet = int(octet_text)
        if octet > 255:
            raise PrefixError(f"IPv4 octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def _parse_v6(text: str) -> int:
    """Parse an IPv6 address (RFC 4291 text form, without zone index)."""
    if text.count("::") > 1:
        raise PrefixError(f"multiple '::' in IPv6 address: {text!r}")
    if "::" in text:
        head_text, tail_text = text.split("::", 1)
        head = head_text.split(":") if head_text else []
        tail = tail_text.split(":") if tail_text else []
        missing = 8 - (len(head) + len(tail))
        if missing < 1:
            raise PrefixError(f"'::' expands to nothing in {text!r}")
        groups = head + ["0"] * missing + tail
    else:
        groups = text.split(":")
        if len(groups) != 8:
            raise PrefixError(f"IPv6 address needs 8 groups: {text!r}")
    value = 0
    for group in groups:
        if not group or len(group) > 4:
            raise PrefixError(f"bad IPv6 group {group!r} in {text!r}")
        try:
            part = int(group, 16)
        except ValueError as exc:
            raise PrefixError(f"bad IPv6 group {group!r} in {text!r}") from exc
        value = (value << 16) | part
    return value


def _format_v4(value: int) -> str:
    return (
        f"{value >> 24}.{(value >> 16) & 0xFF}."
        f"{(value >> 8) & 0xFF}.{value & 0xFF}"
    )


def _format_v6(value: int) -> str:
    groups = [(value >> (16 * (7 - i))) & 0xFFFF for i in range(8)]
    # Find the longest run of zero groups to compress with '::'.
    best_start, best_len = -1, 0
    run_start, run_len = -1, 0
    for i, group in enumerate(groups):
        if group == 0:
            if run_start < 0:
                run_start, run_len = i, 0
            run_len += 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        else:
            run_start, run_len = -1, 0
    if best_len < 2:
        return ":".join(f"{g:x}" for g in groups)
    head = ":".join(f"{g:x}" for g in groups[:best_start])
    tail = ":".join(f"{g:x}" for g in groups[best_start + best_len:])
    return f"{head}::{tail}"


#: :meth:`Prefix.parse` memo.  Bounded by wholesale clearing (not LRU):
#: the working set of distinct prefix strings in even a full-scale world
#: is far below the bound, so a clear only ever fires on pathological
#: input streams.
_parse_cache: dict = {}
_PARSE_CACHE_MAX = 1 << 18


@total_ordering
class Prefix:
    """An immutable IPv4/IPv6 CIDR prefix.

    Instances are created with :meth:`parse` (from ``"10.0.0.0/8"`` text)
    or directly from integer network value + length.  Host bits must be
    zero; :meth:`from_host` masks them off instead of raising.
    """

    __slots__ = ("_value", "_length", "_version", "_hash")

    def __init__(self, value: int, length: int, version: int = 4):
        if version not in (4, 6):
            raise PrefixError(f"IP version must be 4 or 6, got {version}")
        bits = _V4_BITS if version == 4 else _V6_BITS
        if not 0 <= length <= bits:
            raise PrefixError(f"/{length} out of range for IPv{version}")
        if not 0 <= value < (1 << bits):
            raise PrefixError(f"address value out of range for IPv{version}")
        host_mask = (1 << (bits - length)) - 1
        if value & host_mask:
            raise PrefixError(
                f"host bits set in {value:#x}/{length} (IPv{version}); "
                "use Prefix.from_host to mask them"
            )
        self._value = value
        self._length = length
        self._version = version
        # Prefixes key the hot dicts of the whole pipeline (validation
        # memos, RIB group indexes, radix query dedupe); hashing a fresh
        # tuple per lookup dominates those paths, so cache it once.
        self._hash = hash((version, value, length))

    # -- constructors -----------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` or an IPv6 equivalent.

        A bare address (no ``/len``) is treated as a host prefix (/32 or
        /128).  Results are memoised: the same prefix strings recur by
        the hundreds of thousands when loading dataset bundles and
        checkpoints, and instances are immutable so sharing them is
        safe.
        """
        if cls is Prefix:
            cached = _parse_cache.get(text)
            if cached is not None:
                return cached
        stripped = text.strip()
        if "/" in stripped:
            addr_text, _, len_text = stripped.partition("/")
            try:
                length = int(len_text)
            except ValueError as exc:
                raise PrefixError(f"malformed prefix length in {text!r}") from exc
        else:
            addr_text, length = stripped, -1
        if ":" in addr_text:
            value, version = _parse_v6(addr_text), 6
        else:
            value, version = _parse_v4(addr_text), 4
        if length < 0:
            length = _V4_BITS if version == 4 else _V6_BITS
        prefix = cls.from_host(value, length, version)
        if cls is Prefix:
            if len(_parse_cache) >= _PARSE_CACHE_MAX:
                _parse_cache.clear()
            _parse_cache[text] = prefix
        return prefix

    @classmethod
    def _from_trusted(cls, value: int, length: int, version: int) -> "Prefix":
        """Construct without validation from a previously-validated triple.

        Only for callers replaying ``(value, length, version)`` triples
        that a live :class:`Prefix` produced — the checkpoint store
        rebuilds hundreds of thousands of prefixes from digest-verified
        integer columns, and re-running the range/host-bit checks (or
        round-tripping through text) dominated that path.  Feeding
        arbitrary integers in here yields an invalid instance, hence
        private.
        """
        self = object.__new__(cls)
        self._value = value
        self._length = length
        self._version = version
        self._hash = hash((version, value, length))
        return self

    @classmethod
    def from_host(cls, value: int, length: int, version: int = 4) -> "Prefix":
        """Build a prefix from an address that may have host bits set."""
        bits = _V4_BITS if version == 4 else _V6_BITS
        if not 0 <= length <= bits:
            raise PrefixError(f"/{length} out of range for IPv{version}")
        mask = ((1 << length) - 1) << (bits - length) if length else 0
        return cls(value & mask, length, version)

    # -- basic accessors ---------------------------------------------------

    @property
    def value(self) -> int:
        """Network address as an unsigned integer (host bits zero)."""
        return self._value

    @property
    def length(self) -> int:
        """Prefix length in bits."""
        return self._length

    @property
    def version(self) -> int:
        """IP version: 4 or 6."""
        return self._version

    @property
    def bits(self) -> int:
        """Address width in bits (32 or 128)."""
        return _V4_BITS if self._version == 4 else _V6_BITS

    @property
    def address_count(self) -> int:
        """Number of addresses covered (2**(bits - length))."""
        return 1 << (self.bits - self._length)

    @property
    def network_address(self) -> str:
        """Dotted-quad / RFC 4291 text of the network address."""
        if self._version == 4:
            return _format_v4(self._value)
        return _format_v6(self._value)

    @property
    def first(self) -> int:
        """First covered address as an integer (== :attr:`value`)."""
        return self._value

    @property
    def last(self) -> int:
        """Last covered address as an integer."""
        return self._value + self.address_count - 1

    # -- algebra -----------------------------------------------------------

    def contains(self, other: "Prefix") -> bool:
        """True if ``other`` is equal to or more specific than ``self``."""
        if self._version != other._version or other._length < self._length:
            return False
        shift = self.bits - self._length
        return (other._value >> shift) == (self._value >> shift)

    def overlaps(self, other: "Prefix") -> bool:
        """True if the two prefixes share any address."""
        return self.contains(other) or other.contains(self)

    def supernet(self, length: int | None = None) -> "Prefix":
        """The covering prefix at ``length`` (default: one bit shorter)."""
        if length is None:
            length = self._length - 1
        if length < 0 or length > self._length:
            raise PrefixError(
                f"supernet length {length} invalid for /{self._length}"
            )
        return Prefix.from_host(self._value, length, self._version)

    def subnets(self, length: int | None = None) -> Iterator["Prefix"]:
        """Yield the subnets of ``self`` at ``length`` (default: one bit
        longer), in address order."""
        if length is None:
            length = self._length + 1
        if length < self._length or length > self.bits:
            raise PrefixError(
                f"subnet length {length} invalid for /{self._length}"
            )
        step = 1 << (self.bits - length)
        for i in range(1 << (length - self._length)):
            yield Prefix(self._value + i * step, length, self._version)

    def bit_at(self, index: int) -> int:
        """The address bit at ``index`` (0 = most significant).

        Only bits below :attr:`length` are meaningful; asking beyond is an
        error because it would read host bits.
        """
        if not 0 <= index < self._length:
            raise PrefixError(f"bit {index} outside /{self._length}")
        return (self._value >> (self.bits - 1 - index)) & 1

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return (
            self._version == other._version
            and self._value == other._value
            and self._length == other._length
        )

    def __lt__(self, other: "Prefix") -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return (self._version, self._value, self._length) < (
            other._version,
            other._value,
            other._length,
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.network_address}/{self._length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"


def address_key(prefix: Prefix) -> tuple[int, int, int]:
    """The ``(version, value, length)`` tuple prefixes are ordered by.

    ``sorted(prefixes, key=address_key)`` gives the order of
    ``sorted(prefixes)`` (stable on ties, like any key sort) while
    comparing plain int tuples instead of calling :meth:`Prefix.__lt__`
    per comparison.
    """
    return (prefix._version, prefix._value, prefix._length)


def aggregate_address_count(prefixes: Iterable[Prefix]) -> int:
    """Count distinct addresses covered by ``prefixes``.

    Overlapping prefixes are only counted once; this is the "routed address
    space" accounting the paper uses for Figures 4b and 6.  Mixing IP
    versions is allowed; counts are simply summed across versions.
    """
    by_version: dict[int, list[Prefix]] = {}
    for prefix in prefixes:
        by_version.setdefault(prefix.version, []).append(prefix)
    total = 0
    for version_prefixes in by_version.values():
        version_prefixes.sort(key=lambda p: (p.first, p.length))
        covered_until = -1
        for prefix in version_prefixes:
            first, last = prefix.first, prefix.last
            if last <= covered_until:
                continue
            total += last - max(first, covered_until + 1) + 1
            covered_until = last
    return total


def coalesce(prefixes: Iterable[Prefix]) -> list[Prefix]:
    """Return a minimal sorted list of prefixes covering the same space.

    Removes prefixes contained in others and merges sibling pairs into
    their supernet, repeating until a fixed point.
    """
    by_version: dict[int, set[Prefix]] = {}
    for prefix in prefixes:
        by_version.setdefault(prefix.version, set()).add(prefix)
    result: list[Prefix] = []
    for version_set in by_version.values():
        work = sorted(version_set, key=lambda p: (p.length, p.value))
        # Drop contained prefixes: any prefix covered by a shorter one.
        kept: list[Prefix] = []
        for prefix in work:
            if not any(other.contains(prefix) for other in kept):
                kept.append(prefix)
        # Merge sibling pairs bottom-up until stable.
        merged = True
        current = set(kept)
        while merged:
            merged = False
            for prefix in sorted(current, key=lambda p: -p.length):
                if prefix not in current or prefix.length == 0:
                    continue
                sibling_value = prefix.value ^ (
                    1 << (prefix.bits - prefix.length)
                )
                sibling = Prefix(sibling_value, prefix.length, prefix.version)
                if sibling in current:
                    current.discard(prefix)
                    current.discard(sibling)
                    current.add(prefix.supernet())
                    merged = True
        result.extend(current)
    return sorted(result)


_U64_MASK = (1 << 64) - 1


def prefix_columns(name: str, prefixes: Sequence[Prefix]) -> dict[str, np.ndarray]:
    """Four parallel columns storing prefixes as integers.

    A prefix is ``(value, length, version)``; the value is up to 128
    bits, split into two unsigned-64 halves.  Integer columns decode
    with :meth:`Prefix._from_trusted` in a fraction of the time text
    columns take to parse (and at a quarter of the bytes of ``U18``
    unicode storage).
    """
    values = [p._value for p in prefixes]
    return {
        f"{name}_hi": np.asarray([v >> 64 for v in values], dtype=np.uint64),
        f"{name}_lo": np.asarray(
            [v & _U64_MASK for v in values], dtype=np.uint64
        ),
        f"{name}_len": np.asarray(
            [p._length for p in prefixes], dtype=np.uint8
        ),
        f"{name}_ver": np.asarray(
            [p._version for p in prefixes], dtype=np.uint8
        ),
    }


def prefixes_from_columns(
    columns: Mapping[str, np.ndarray], name: str, rows=slice(None)
) -> list[Prefix]:
    """Decode the ``rows`` of one :func:`prefix_columns` set.

    The columns must have been written by :func:`prefix_columns` from
    live prefixes, so the triples are replayed without re-validation.
    """
    make = Prefix._from_trusted
    return [
        make((hi << 64) | lo if hi else lo, length, version)
        for hi, lo, length, version in zip(
            columns[f"{name}_hi"][rows].tolist(),
            columns[f"{name}_lo"][rows].tolist(),
            columns[f"{name}_len"][rows].tolist(),
            columns[f"{name}_ver"][rows].tolist(),
        )
    ]


def prefix_keys(
    columns: Mapping[str, np.ndarray], name: str
) -> list[tuple[int, int, int, int]]:
    """The rows of one :func:`prefix_columns` set as integer tuples,
    equal where the prefixes are equal, without decoding them."""
    return list(
        zip(
            columns[f"{name}_hi"].tolist(),
            columns[f"{name}_lo"].tolist(),
            columns[f"{name}_len"].tolist(),
            columns[f"{name}_ver"].tolist(),
        )
    )
