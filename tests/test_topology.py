"""Unit tests for the topology model, classification, and generator."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.registry.rir import RIR
from repro.topology.classify import SizeClass, classify_all, classify_size
from repro.topology.generator import TopologyConfig, generate_topology
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
