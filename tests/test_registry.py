"""Unit tests for RIR pools and the address allocation engine."""

from __future__ import annotations

from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AllocationError
from repro.net.prefix import Prefix, aggregate_address_count
from repro.registry.allocation import AddressSpace
from repro.registry.rir import ALL_RIRS, RIR, rir_for_country, rir_for_prefix


class TestRIRPools:
    def test_five_rirs(self):
        assert len(ALL_RIRS) == 5

    def test_pools_are_disjoint(self):
        pools = [(rir, p) for rir in RIR for p in rir.v4_pools]
        for i, (_, a) in enumerate(pools):
            for _, b in pools[i + 1:]:
                assert not a.overlaps(b), f"{a} overlaps {b}"

    def test_rir_for_prefix_roundtrip(self):
        for rir in RIR:
            for pool in rir.v4_pools:
                inner = next(pool.subnets(16))
                assert rir_for_prefix(inner) is rir
            assert rir_for_prefix(rir.v6_pool) is rir

    def test_rir_for_prefix_rejects_unpooled(self):
        with pytest.raises(AllocationError):
            rir_for_prefix(Prefix.parse("10.0.0.0/8"))

    def test_rir_for_country(self):
        assert rir_for_country("US") is RIR.ARIN
        assert rir_for_country("BR") is RIR.LACNIC
        with pytest.raises(AllocationError):
            rir_for_country("XX")


class TestAllocation:
    def test_allocates_within_rir_pool(self):
        space = AddressSpace()
        delegation = space.allocate(RIR.RIPE, 16, "ORG-1", date(2020, 1, 1))
        assert delegation.prefix.length == 16
        assert rir_for_prefix(delegation.prefix) is RIR.RIPE

    def test_allocations_are_disjoint(self):
        space = AddressSpace()
        blocks = [
            space.allocate(RIR.ARIN, 12, f"ORG-{i}", date(2020, 1, 1)).prefix
            for i in range(20)
        ]
        for i, a in enumerate(blocks):
            for b in blocks[i + 1:]:
                assert not a.overlaps(b)

    def test_deterministic_sequence(self):
        first = AddressSpace()
        second = AddressSpace()
        seq1 = [first.allocate(RIR.APNIC, 20, "O", date(2020, 1, 1)).prefix for _ in range(50)]
        seq2 = [second.allocate(RIR.APNIC, 20, "O", date(2020, 1, 1)).prefix for _ in range(50)]
        assert seq1 == seq2

    def test_exhaustion_raises(self):
        space = AddressSpace()
        # AFRINIC has three /8 pools: four /9s exhaust... eight /9s exist.
        for _ in range(6):
            space.allocate(RIR.AFRINIC, 9, "O", date(2020, 1, 1))
        with pytest.raises(AllocationError):
            space.allocate(RIR.AFRINIC, 9, "O", date(2020, 1, 1))

    def test_rejects_length_zero(self):
        space = AddressSpace()
        with pytest.raises(AllocationError):
            space.allocate(RIR.ARIN, 0, "O", date(2020, 1, 1))

    def test_holder_of(self):
        space = AddressSpace()
        delegation = space.allocate(RIR.ARIN, 16, "ORG-1", date(2020, 1, 1))
        inner = next(delegation.prefix.subnets(24))
        found = space.holder_of(inner)
        assert found is not None and found.org_id == "ORG-1"
        assert space.holder_of(Prefix.parse("10.0.0.0/8")) is None

    def test_delegations_for(self):
        space = AddressSpace()
        space.allocate(RIR.ARIN, 16, "A", date(2020, 1, 1))
        space.allocate(RIR.ARIN, 16, "B", date(2020, 1, 1))
        space.allocate(RIR.RIPE, 20, "A", date(2020, 1, 1))
        assert len(space.delegations_for("A")) == 2
        assert space.delegations_for("missing") == []

    def test_legacy_flag_recorded(self):
        space = AddressSpace()
        delegation = space.allocate(
            RIR.ARIN, 16, "A", date(1993, 1, 1), legacy=True
        )
        assert delegation.legacy
        assert "legacy" in str(delegation)

    def test_ipv6_allocation(self):
        space = AddressSpace()
        delegation = space.allocate(RIR.RIPE, 32, "A", date(2020, 1, 1), version=6)
        assert delegation.prefix.version == 6
        assert RIR.RIPE.v6_pool.contains(delegation.prefix)

    def test_buddy_split_conserves_space(self):
        space = AddressSpace()
        total_before = sum(p.address_count for p in RIR.AFRINIC.v4_pools)
        allocated = [
            space.allocate(RIR.AFRINIC, 12, "O", date(2020, 1, 1)).prefix
            for _ in range(10)
        ]
        allocated_count = aggregate_address_count(allocated)
        assert allocated_count == 10 * 2**20
        assert allocated_count < total_before

    def test_serialize_lists_all(self):
        space = AddressSpace()
        space.allocate(RIR.ARIN, 16, "A", date(2020, 1, 1))
        space.allocate(RIR.RIPE, 16, "B", date(2020, 1, 1))
        text = space.serialize()
        assert "ARIN|A" in text and "RIPE|B" in text


class _PrefixPool:
    """The buddy allocator over :class:`Prefix` objects, as it stood
    before the pools held plain network values: the reference
    ``AddressSpace`` must match, delegation for delegation."""

    def __init__(self, blocks) -> None:
        self.free: dict[int, list[Prefix]] = {}
        for block in blocks:
            self.free.setdefault(block.length, []).append(block)
        # Reverse so .pop() serves lowest-address blocks first.
        for free in self.free.values():
            free.sort(reverse=True)

    def take(self, length: int) -> Prefix:
        if length in self.free and self.free[length]:
            return self.free[length].pop()
        for shorter in range(length - 1, -1, -1):
            blocks = self.free.get(shorter)
            if blocks:
                block = blocks.pop()
                break
        else:
            raise AllocationError(f"no free block for /{length}")
        while block.length < length:
            low, high = block.subnets()
            self.free.setdefault(high.length, []).append(high)
            block = low
        return block


def _reference_allocate(pools, rir: RIR, length: int, version: int) -> Prefix:
    if not 0 < length <= (32 if version == 4 else 128):
        raise AllocationError(f"/{length} invalid for IPv{version}")
    return pools[(rir, version)].take(length)


#: Request lengths per IP version: invalid ones, ones no pool block can
#: serve, and ones that split the /8 (v4) and /20 (v6) pool blocks.
_LENGTHS = {
    4: [0, 1, 7, 8, 9, 10, 11, 12, 33],
    6: [0, 19, 20, 21, 22, 23, 24, 129],
}

_REQUESTS = st.lists(
    st.tuples(
        st.sampled_from(list(RIR)),
        st.sampled_from([4, 6]).flatmap(
            lambda version: st.tuples(
                st.just(version), st.sampled_from(_LENGTHS[version])
            )
        ),
        st.booleans(),
    ),
    max_size=40,
)


@settings(max_examples=40, deadline=None)
@given(requests=_REQUESTS)
def test_integer_pools_allocate_like_prefix_pools(requests):
    """Random requests (both versions, every RIR, legacy or not), then
    /12 (v4) and /24 (v6) requests until every pool is exhausted: the
    integer pools hand out the reference's blocks and raise
    ``AllocationError`` at the same requests."""
    space = AddressSpace()
    pools = {}
    for rir in RIR:
        pools[(rir, 4)] = _PrefixPool(rir.v4_pools)
        pools[(rir, 6)] = _PrefixPool((rir.v6_pool,))
    exhaust = [
        (rir, (version, 12 if version == 4 else 24), False)
        for rir in RIR
        for version in (4, 6)
        # The most blocks any pool holds at that length, plus one.
        for _ in range(len(RIR.ARIN.v4_pools) * 16 + 1)
    ]
    failed = 0
    for index, (rir, (version, length), legacy) in enumerate(
        [*requests, *exhaust]
    ):
        org_id = f"ORG-{index}"
        try:
            expected = _reference_allocate(pools, rir, length, version)
        except AllocationError:
            with pytest.raises(AllocationError):
                space.allocate(
                    rir, length, org_id, date(2020, 1, 1), version, legacy
                )
            failed += 1
            continue
        delegation = space.allocate(
            rir, length, org_id, date(2020, 1, 1), version, legacy
        )
        assert (delegation.prefix, delegation.rir) == (expected, rir)
        assert (delegation.org_id, delegation.legacy) == (org_id, legacy)
    assert failed >= 2 * len(RIR)
    for rir in RIR:
        for version in (4, 6):
            with pytest.raises(AllocationError):
                space.allocate(rir, 32 if version == 4 else 128, "X",
                               date(2020, 1, 1), version)
