"""Address allocation engine (the number-resource side of an RIR).

A buddy allocator hands out CIDR blocks from each RIR's pools and records a
:class:`Delegation` per block, mirroring the RIR "delegated" statistics
files.  Delegations carry the holder organisation, date, and a ``legacy``
flag — legacy space matters to the paper because it is hard to certify in
RPKI (§8.6 cites it as the reason MANRS saturation cannot reach 100%).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from typing import Iterable

from repro.errors import AllocationError
from repro.net.prefix import Prefix
from repro.net.radix import RadixTree
from repro.registry.rir import RIR

__all__ = ["Delegation", "AddressSpace", "parse_delegations"]


@dataclass(frozen=True)
class Delegation:
    """A block of address space delegated to an organisation."""

    prefix: Prefix
    rir: RIR
    org_id: str
    allocated_on: date
    legacy: bool = False

    def __str__(self) -> str:
        kind = "legacy" if self.legacy else "allocated"
        return f"{self.rir.value}|{self.org_id}|{self.prefix}|{kind}"


@dataclass
class _Pool:
    """Buddy free lists for one RIR and IP version: the network values of
    the free blocks, keyed by prefix length.  Only the block handed out
    becomes a :class:`Prefix`."""

    version: int
    free: dict[int, list[int]] = field(default_factory=dict)

    @classmethod
    def of(cls, blocks: Iterable[Prefix], version: int) -> "_Pool":
        """A pool of ``blocks``, each free list ordered so that ``pop``
        serves its lowest address first."""
        pool = cls(version)
        for block in blocks:
            pool.free.setdefault(block.length, []).append(block.value)
        for values in pool.free.values():
            values.sort(reverse=True)
        return pool

    def take(self, length: int) -> Prefix:
        """Pop a block of exactly ``length``, splitting larger blocks."""
        free = self.free
        values = free.get(length)
        if values:
            return Prefix(values.pop(), length, self.version)
        # Find the longest available block shorter than `length` to split.
        for shorter in range(length - 1, -1, -1):
            values = free.get(shorter)
            if values:
                value = values.pop()
                break
        else:
            raise AllocationError(f"no free block for /{length}")
        # Split down to the requested size: the block keeps its low half
        # at each length, and the high half returns to that free list.
        bits = 32 if self.version == 4 else 128
        for split in range(shorter + 1, length + 1):
            free.setdefault(split, []).append(value | 1 << (bits - split))
        return Prefix(value, length, self.version)


class AddressSpace:
    """Allocator + ledger of delegations across all five RIRs.

    Allocation order is deterministic: blocks are split lowest-address
    first, so two runs with the same request sequence produce identical
    delegations (required for reproducible scenarios).
    """

    def __init__(self) -> None:
        self._pools: dict[tuple[RIR, int], _Pool] = {}
        for rir in RIR:
            self._pools[(rir, 4)] = _Pool.of(rir.v4_pools, 4)
            self._pools[(rir, 6)] = _Pool.of((rir.v6_pool,), 6)
        self._delegations: list[Delegation] = []
        self._by_org: dict[str, list[Delegation]] = {}
        self._index: RadixTree[Delegation] = RadixTree()
        # Delegations whose radix indexing is deferred (restore() fills
        # this); drained on the first prefix lookup.
        self._unindexed: list[Delegation] = []

    def allocate(
        self,
        rir: RIR,
        length: int,
        org_id: str,
        allocated_on: date,
        version: int = 4,
        legacy: bool = False,
    ) -> Delegation:
        """Delegate one block of ``/length`` from ``rir`` to ``org_id``."""
        max_bits = 32 if version == 4 else 128
        if not 0 < length <= max_bits:
            raise AllocationError(f"/{length} invalid for IPv{version}")
        pool = self._pools[(rir, version)]
        block = pool.take(length)
        delegation = Delegation(block, rir, org_id, allocated_on, legacy)
        self._delegations.append(delegation)
        self._by_org.setdefault(org_id, []).append(delegation)
        # Index lazily (drained by holder_of): scenario builds allocate
        # tens of thousands of blocks and never look one up by prefix.
        self._unindexed.append(delegation)
        return delegation

    @classmethod
    def restore(cls, delegations: Iterable[Delegation]) -> "AddressSpace":
        """Rebuild the ledger from a recorded delegation sequence.

        The free-pool state is deliberately *not* reconstructed: a
        restored space answers every ledger query (``delegations``,
        ``delegations_for``, ``holder_of``) identically to the original,
        but further :meth:`allocate` calls raise — checkpointed worlds
        are finished building, and handing out already-delegated blocks
        again would corrupt them silently.

        The prefix radix index is built lazily on the first
        :meth:`holder_of` call: most warm-started workloads never look a
        prefix up here, and eagerly indexing tens of thousands of
        delegations was one of the larger warm-start costs.
        """
        space = cls()
        space._pools = {key: _Pool(key[1]) for key in space._pools}
        for delegation in delegations:
            space._delegations.append(delegation)
            space._by_org.setdefault(delegation.org_id, []).append(delegation)
        space._unindexed = list(space._delegations)
        return space

    @property
    def delegations(self) -> tuple[Delegation, ...]:
        """All delegations made so far, in allocation order."""
        return tuple(self._delegations)

    def delegations_for(self, org_id: str) -> list[Delegation]:
        """Delegations held by one organisation."""
        return list(self._by_org.get(org_id, ()))

    def holder_of(self, prefix: Prefix) -> Delegation | None:
        """The delegation covering ``prefix``, if any.

        Delegations never overlap (the buddy allocator guarantees
        disjointness), so at most one can cover a prefix.
        """
        if self._unindexed:
            for delegation in self._unindexed:
                self._index.insert(delegation.prefix, delegation)
            self._unindexed = []
        covering = self._index.covering(prefix)
        return covering[0] if covering else None

    def serialize(self) -> str:
        """Render the ledger in a delegated-stats-like text format."""
        return "\n".join(str(d) for d in self._delegations)


def parse_delegations(text: str) -> list[Delegation]:
    """Parse the format produced by :meth:`AddressSpace.serialize`.

    The allocation date is not stored in the line format (matching the
    real delegated-stats files' coarse dates); parsed records carry a
    placeholder epoch date.
    """
    delegations = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("|")
        if len(fields) != 4:
            raise AllocationError(
                f"bad delegation record at line {line_number}"
            )
        rir_name, org_id, prefix_text, kind = fields
        try:
            rir = RIR(rir_name)
            prefix = Prefix.parse(prefix_text)
        except ValueError as exc:
            raise AllocationError(
                f"bad delegation record at line {line_number}: {line!r}"
            ) from exc
        if kind not in ("allocated", "legacy"):
            raise AllocationError(
                f"unknown delegation kind {kind!r} at line {line_number}"
            )
        delegations.append(
            Delegation(
                prefix=prefix,
                rir=rir,
                org_id=org_id,
                allocated_on=date(1970, 1, 1),
                legacy=kind == "legacy",
            )
        )
    return delegations
