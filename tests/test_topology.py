"""Unit tests for the topology model, classification, and generator."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.registry.rir import RIR
from repro.topology.classify import SizeClass, classify_all, classify_size
from repro.topology.generator import (
    TopologyConfig,
    WeightedPick,
    generate_topology,
    uniform_picks,
)
from repro.topology.model import (
    ASCategory,
    ASTopology,
    AutonomousSystem,
    Organization,
    Relationship,
)


def _as(asn: int, org_id: str = "O1") -> AutonomousSystem:
    return AutonomousSystem(
        asn=asn, org_id=org_id, country="US", rir=RIR.ARIN,
        category=ASCategory.STUB,
    )


def build_chain() -> ASTopology:
    """1 -> 2 -> 3 provider chains plus a 2--4 peering."""
    topo = ASTopology()
    topo.add_org(Organization("O1", "Org One", "US"))
    for asn in (1, 2, 3, 4):
        topo.add_as(_as(asn))
    topo.add_link(1, 2, Relationship.PROVIDER_CUSTOMER)
    topo.add_link(2, 3, Relationship.PROVIDER_CUSTOMER)
    topo.add_link(2, 4, Relationship.PEER)
    return topo


class TestModel:
    def test_relationship_accessors(self):
        topo = build_chain()
        assert topo.customers_of(1) == {2}
        assert topo.providers_of(2) == {1}
        assert topo.peers_of(2) == {4}
        assert topo.customer_degree(1) == 1

    def test_duplicate_as_rejected(self):
        topo = build_chain()
        with pytest.raises(TopologyError):
            topo.add_as(_as(1))

    def test_unknown_org_rejected(self):
        topo = ASTopology()
        with pytest.raises(TopologyError):
            topo.add_as(_as(1, org_id="missing"))

    def test_self_link_rejected(self):
        topo = build_chain()
        with pytest.raises(TopologyError):
            topo.add_link(1, 1, Relationship.PEER)

    def test_duplicate_link_rejected(self):
        topo = build_chain()
        with pytest.raises(TopologyError):
            topo.add_link(1, 2, Relationship.PEER)

    def test_link_to_unknown_as_rejected(self):
        topo = build_chain()
        with pytest.raises(TopologyError):
            topo.add_link(1, 99, Relationship.PEER)

    def test_customer_cone(self):
        topo = build_chain()
        assert topo.customer_cone(1) == {1, 2, 3}
        assert topo.customer_cone(3) == {3}
        assert topo.customer_cone(4) == {4}

    def test_as_rank_by_cone(self):
        topo = build_chain()
        assert topo.as_rank(1) == 1
        assert topo.as_rank(2) == 2

    def test_cone_cache_invalidated_on_mutation(self):
        topo = build_chain()
        assert topo.customer_cone(2) == {2, 3}
        topo.add_as(_as(5))
        topo.add_link(2, 5, Relationship.PROVIDER_CUSTOMER)
        assert topo.customer_cone(2) == {2, 3, 5}

    def test_siblings(self):
        topo = ASTopology()
        topo.add_org(Organization("O1", "Org", "US"))
        topo.add_as(_as(1))
        topo.add_as(_as(2))
        assert topo.siblings(1) == {2}

    def test_edges_enumeration(self):
        topo = build_chain()
        edges = list(topo.edges())
        assert (1, 2, Relationship.PROVIDER_CUSTOMER) in edges
        assert (2, 4, Relationship.PEER) in edges
        assert len(edges) == 3

    def test_validate_passes_on_consistent(self):
        build_chain().validate()

    def test_copies_link_independently(self):
        """A copy shares the adjacency sets until either side links an
        AS; then only that side sees the link, copy of a copy too."""
        original = build_chain()
        copy = original.copy()
        copy.add_link(1, 4, Relationship.PEER)
        original.add_link(3, 4, Relationship.PROVIDER_CUSTOMER)
        second = copy.copy()
        second.add_link(1, 3, Relationship.PROVIDER_CUSTOMER)
        copy.add_link(4, 3, Relationship.PEER)
        assert original.peers_of(1) == set() and original.peers_of(4) == {2}
        assert original.customers_of(3) == {4} and original.customers_of(1) == {2}
        assert copy.peers_of(1) == {4} and copy.customers_of(3) == set()
        assert copy.peers_of(4) == {1, 2, 3} and copy.customers_of(1) == {2}
        assert second.peers_of(4) == {1, 2} and second.customers_of(1) == {2, 3}
        assert second.providers_of(3) == {1, 2} and copy.providers_of(3) == {2}
        for topo in (original, copy, second):
            topo.validate()

    def test_copies_add_ases_independently(self):
        """A copy shares the organisation records until either side adds
        an AS to one; then only that side lists the AS, in both
        directions and for a copy of a copy."""
        original = build_chain()
        copy = original.copy()
        copy.add_as(_as(5))
        original.add_as(_as(6))
        second = copy.copy()
        second.add_as(_as(7))
        assert original.get_org("O1").asns == [1, 2, 3, 4, 6]
        assert copy.get_org("O1").asns == [1, 2, 3, 4, 5]
        assert second.get_org("O1").asns == [1, 2, 3, 4, 5, 7]
        assert 5 not in original and 6 not in copy and 7 not in copy
        assert original.siblings(1) == {2, 3, 4, 6}
        assert copy.siblings(1) == {2, 3, 4, 5}
        for topo in (original, copy, second):
            topo.validate()


class TestClassify:
    @pytest.mark.parametrize(
        "degree,expected",
        [
            (0, SizeClass.SMALL),
            (2, SizeClass.SMALL),
            (3, SizeClass.MEDIUM),
            (180, SizeClass.MEDIUM),
            (181, SizeClass.LARGE),
        ],
    )
    def test_thresholds(self, degree, expected):
        assert classify_size(degree) is expected

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            classify_size(-1)

    def test_classify_all(self):
        topo = build_chain()
        sizes = classify_all(topo)
        assert all(size is SizeClass.SMALL for size in sizes.values())


class TestGenerator:
    def test_deterministic(self):
        a = generate_topology(TopologyConfig().scaled(0.05), seed=3)
        b = generate_topology(TopologyConfig().scaled(0.05), seed=3)
        assert a.topology.asns == b.topology.asns
        assert list(a.topology.edges()) == list(b.topology.edges())
        assert a.quiescent == b.quiescent

    def test_seed_changes_output(self):
        a = generate_topology(TopologyConfig().scaled(0.05), seed=3)
        b = generate_topology(TopologyConfig().scaled(0.05), seed=4)
        assert list(a.topology.edges()) != list(b.topology.edges())

    def test_structure_is_valid(self):
        generated = generate_topology(TopologyConfig().scaled(0.1), seed=1)
        generated.topology.validate()

    def test_every_non_tier1_has_provider(self):
        generated = generate_topology(TopologyConfig().scaled(0.1), seed=1)
        topo = generated.topology
        for asn in topo.asns:
            record = topo.get_as(asn)
            if record.category is ASCategory.LARGE_TRANSIT:
                continue
            assert topo.providers_of(asn), f"AS{asn} has no provider"

    def test_tier1_clique_peers(self):
        generated = generate_topology(TopologyConfig().scaled(0.2), seed=1)
        topo = generated.topology
        tier1 = [
            asn
            for asn in topo.asns
            if topo.get_as(asn).category is ASCategory.LARGE_TRANSIT
        ]
        for i, a in enumerate(tier1):
            for b in tier1[i + 1:]:
                assert b in topo.peers_of(a)

    def test_quiescent_are_real_ases(self):
        generated = generate_topology(TopologyConfig().scaled(0.1), seed=1)
        for asn in generated.quiescent:
            assert asn in generated.topology

    def test_full_scale_has_all_size_classes(self):
        generated = generate_topology(seed=1)
        sizes = set(classify_all(generated.topology).values())
        assert sizes == {SizeClass.SMALL, SizeClass.MEDIUM, SizeClass.LARGE}

    def test_scaled_counts(self):
        config = TopologyConfig().scaled(0.5)
        assert config.n_stub == round(TopologyConfig().n_stub * 0.5)
        assert config.n_large_transit >= 3


#: Weights that tie, that are tiny enough to vanish from a normalised
#: probability (5e-324 next to 1.0), or large enough to overflow a total.
_SPECIAL_WEIGHTS = [0.0, 1.0, 2.0, 1e-12, 1e-300, 5e-324, 1e308]
#: Weights ``Generator.choice`` rejects.
_INVALID_WEIGHTS = [-1.0, -5e-324, math.nan, math.inf, -math.inf]

_WEIGHTS = st.lists(
    st.one_of(
        st.sampled_from(_SPECIAL_WEIGHTS),
        st.floats(0.0, 1e6, allow_nan=False),
    ),
    min_size=1,
    max_size=30,
)


def _outcome(draw, *args, **kwargs):
    """``draw(*args, **kwargs)`` as a list, or the ValueError it raises
    (invalid weights warn on the way; they are meant to)."""
    with np.errstate(all="ignore"):
        try:
            return np.atleast_1d(draw(*args, **kwargs)).tolist()
        except ValueError as error:
            return error


def _same_outcome(expected, got) -> bool:
    if isinstance(expected, ValueError):
        return isinstance(got, ValueError)
    return got == expected


class TestWeightedPick:
    """:class:`WeightedPick` against the ``Generator.choice`` calls it
    replaces: the same indices from the same draws (so both generators
    then draw the same next double), and ValueError in the same cases."""

    @settings(max_examples=300, deadline=None)
    @given(
        weights=_WEIGHTS,
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_distinct_draws_what_choice_draws(self, weights, data, seed):
        if data.draw(st.booleans()):
            position = data.draw(st.integers(0, len(weights)))
            weights.insert(position, data.draw(st.sampled_from(_INVALID_WEIGHTS)))
        count = data.draw(st.integers(0, len(weights) + 1))
        weights = np.array(weights)
        reference = np.random.default_rng(seed)
        candidate = np.random.default_rng(seed)
        with np.errstate(all="ignore"):
            p = weights / weights.sum()
        expected = _outcome(
            reference.choice, len(weights), size=count, replace=False, p=p
        )
        got = _outcome(lambda: WeightedPick(weights).distinct(candidate, count))
        assert _same_outcome(expected, got), (expected, got)
        assert candidate.random() == reference.random()

    @settings(max_examples=100, deadline=None)
    @given(weights=_WEIGHTS, seed=st.integers(0, 2**32 - 1))
    def test_one_draws_what_choice_draws(self, weights, seed):
        weights = np.array(weights)
        reference = np.random.default_rng(seed)
        candidate = np.random.default_rng(seed)
        with np.errstate(all="ignore"):
            p = weights / weights.sum()
        expected = _outcome(reference.choice, len(weights), size=3, p=p)
        got = _outcome(
            lambda: [WeightedPick(weights).one(candidate) for _ in range(3)]
        )
        assert _same_outcome(expected, got), (expected, got)
        assert candidate.random() == reference.random()

    def test_collisions_redraw_like_choice(self):
        """A dominant weight makes repeats (and so later rounds) certain."""
        weights = np.array([1e9, 1.0, 1.0, 1.0, 1.0])
        for seed in range(20):
            reference = np.random.default_rng(seed)
            candidate = np.random.default_rng(seed)
            expected = reference.choice(5, size=5, replace=False, p=weights / weights.sum())
            assert WeightedPick(weights).distinct(candidate, 5) == expected.tolist()
            assert candidate.random() == reference.random()


class TestUniformPicks:
    """:func:`uniform_picks` against ``Generator.choice(n, size=k,
    replace=False)``: Floyd's algorithm below the tail-shuffle cut-over
    and the tail shuffle above it."""

    @settings(max_examples=300, deadline=None)
    @given(
        population=st.integers(0, 60),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draws_what_choice_draws(self, population, data, seed):
        count = data.draw(st.integers(0, population + 1))
        reference = np.random.default_rng(seed)
        candidate = np.random.default_rng(seed)
        expected = _outcome(
            reference.choice, population, size=count, replace=False
        )
        got = _outcome(uniform_picks, candidate, population, count)
        assert _same_outcome(expected, got), (expected, got)
        assert candidate.random() == reference.random()

    @pytest.mark.parametrize(
        "population,count",
        [(10_000, 9_000), (10_001, 200), (10_001, 201), (20_000, 400),
         (20_000, 401), (12_000, 12_000)],
    )
    def test_large_populations(self, population, count):
        reference = np.random.default_rng(population + count)
        candidate = np.random.default_rng(population + count)
        expected = reference.choice(population, size=count, replace=False)
        assert uniform_picks(candidate, population, count) == expected.tolist()
        assert candidate.random() == reference.random()
