"""Property-based tests for the conformance accounting (Formulas 1–6)."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.core.classification import is_conformant, is_unconformant
from repro.core.conformance import (
    OriginationStats,
    PropagationStats,
    origination_stats,
    propagation_stats,
)
from repro.ihr.records import (
    IHRDataset,
    PrefixOriginRecord,
    TransitGroup,
    TransitInfo,
)
from repro.irr.validation import IRRStatus
from repro.manrs.actions import Program
from repro.net.prefix import Prefix
from repro.rpki.rov import RPKIStatus

status_pairs = st.tuples(
    st.sampled_from(list(RPKIStatus)), st.sampled_from(list(IRRStatus))
)


@given(st.lists(status_pairs, min_size=1, max_size=50))
def test_origination_counts_partition(pairs):
    stats = OriginationStats()
    for rpki, irr in pairs:
        stats.add(rpki, irr)
    assert stats.total == len(pairs)
    # RPKI buckets partition the total; so do IRR buckets.
    assert (
        stats.rpki_valid + stats.rpki_invalid + stats.rpki_not_found
        == stats.total
    )
    assert (
        stats.irr_valid
        + stats.irr_invalid_origin
        + stats.irr_invalid_length
        + stats.irr_not_found
        == stats.total
    )
    assert 0.0 <= stats.og_conformant <= 100.0
    assert 0.0 <= stats.og_rpki_valid <= 100.0


@given(status_pairs)
def test_overlap_only_for_rpki_invalid_irr_valid(pair):
    """The paper's two predicates serve different formulas and are NOT
    mutually exclusive: an RPKI-Invalid route with a Valid (or
    invalid-length) IRR object earns Action 4 credit *and* counts as
    Action 1 unconformant (ROV would drop it).  That overlap is the only
    one possible."""
    rpki, irr = pair
    if is_conformant(rpki, irr) and is_unconformant(rpki, irr):
        assert rpki.is_invalid
        assert irr in (IRRStatus.VALID, IRRStatus.INVALID_LENGTH)


@given(st.lists(status_pairs, min_size=1, max_size=50))
def test_order_invariance(pairs):
    forward = OriginationStats()
    backward = OriginationStats()
    for rpki, irr in pairs:
        forward.add(rpki, irr)
    for rpki, irr in reversed(pairs):
        backward.add(rpki, irr)
    assert forward == backward


@given(st.lists(status_pairs, min_size=1, max_size=50))
def test_cdn_threshold_stricter_than_isp(pairs):
    from repro.core.conformance import is_action4_conformant

    stats = OriginationStats()
    for rpki, irr in pairs:
        stats.add(rpki, irr)
    if is_action4_conformant(stats, Program.CDN):
        assert is_action4_conformant(stats, Program.ISP)


@given(
    st.lists(
        st.tuples(status_pairs, st.booleans()), min_size=1, max_size=50
    )
)
def test_propagation_counts_consistent(rows):
    stats = PropagationStats()
    for (rpki, irr), from_customer in rows:
        stats.add(rpki, irr, from_customer)
    assert stats.total == len(rows)
    assert stats.customer_total <= stats.total
    assert stats.customer_unconformant <= stats.customer_total
    assert 0.0 <= stats.pg_rpki_invalid <= 100.0
    assert 0.0 <= stats.pg_unconformant <= 100.0
    # Formula 4 counts exactly the invalid-flavoured rows.
    expected_invalid = sum(
        1 for (rpki, _), _ in rows if rpki.is_invalid
    )
    assert stats.rpki_invalid == expected_invalid


@given(st.lists(status_pairs, min_size=1, max_size=30))
def test_adding_valid_prefix_never_lowers_conformance(pairs):
    stats = OriginationStats()
    for rpki, irr in pairs:
        stats.add(rpki, irr)
    before = stats.og_conformant
    stats.add(RPKIStatus.VALID, IRRStatus.VALID)
    assert stats.og_conformant >= before


# -- tallied stats against the per-record reference loops ---------------------

#: A small ASN pool, so origins repeat and transits are shared by groups.
asns = st.integers(1, 5)


@st.composite
def ihr_datasets(draw):
    rows = draw(st.lists(st.tuples(asns, status_pairs), min_size=1, max_size=40))
    rows.append(rows[0])  # a repeated (origin, status) row
    prefix_origins = [
        PrefixOriginRecord(
            Prefix.parse(f"10.{i}.0.0/16"), origin, rpki, irr, visibility=1
        )
        for i, (origin, (rpki, irr)) in enumerate(rows)
    ]
    groups = draw(
        st.lists(
            st.tuples(
                asns,
                st.lists(status_pairs, min_size=1, max_size=6),
                st.dictionaries(asns, st.booleans(), min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=12,
        )
    )
    # The first group's transits reappear, relationship flipped, in a
    # later group, and lead an empty group together with a transit (99)
    # that no other group has: an empty group must insert nothing.
    origin, statuses, transits = groups[0]
    groups.append((origin, statuses[::-1], {t: not c for t, c in transits.items()}))
    groups.insert(0, (origin, [], {99: True, **transits}))
    transit_groups = [
        TransitGroup(
            origin=origin,
            prefixes=tuple(
                Prefix.parse(f"11.{i}.0.0/16") for i in range(len(statuses))
            ),
            statuses=tuple(statuses),
            transits={
                transit: TransitInfo(hegemony=0.5, from_customer=customer)
                for transit, customer in transits.items()
            },
            visibility=1,
        )
        for origin, statuses, transits in groups
    ]
    return IHRDataset(prefix_origins=prefix_origins, transit_groups=transit_groups)


def reference_origination_stats(dataset):
    stats = {}
    for record in dataset.prefix_origins:
        stats.setdefault(record.origin, OriginationStats()).add(
            record.rpki, record.irr
        )
    return stats


def reference_propagation_stats(dataset):
    stats = {}
    for group in dataset.transit_groups:
        for _, (rpki, irr) in zip(group.prefixes, group.statuses):
            for transit, info in group.transits.items():
                stats.setdefault(transit, PropagationStats()).add(
                    rpki, irr, info.from_customer
                )
    return stats


@given(ihr_datasets())
def test_tallied_stats_match_per_record_reference(dataset):
    tallied = origination_stats(dataset)
    reference = reference_origination_stats(dataset)
    assert tallied == reference
    assert list(tallied) == list(reference)

    tallied = propagation_stats(dataset)
    reference = reference_propagation_stats(dataset)
    assert tallied == reference
    assert list(tallied) == list(reference)
    assert 99 not in tallied
