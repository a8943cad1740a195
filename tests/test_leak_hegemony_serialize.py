"""Tests for route leaks, global hegemony and the delegated-stats
parser."""

from __future__ import annotations

import pytest

from repro.bgp.leak import simulate_leak
from repro.bgp.policy import ASPolicy, RouteClass
from repro.bgp.propagation import PropagationEngine, RouteKind
from repro.errors import AllocationError, ReproError
from repro.hegemony.scores import global_hegemony
from repro.registry.allocation import parse_delegations
from repro.registry.rir import RIR
from repro.topology.model import (
    ASCategory,
    ASTopology,
    AutonomousSystem,
    Organization,
    Relationship,
)

P2C = Relationship.PROVIDER_CUSTOMER
PEER = Relationship.PEER


def leak_topology() -> ASTopology:
    """Origin 1 and leaker 3 both customers of provider 2; leaker also
    customer of provider 4; observer 5 is a customer of 4."""
    topo = ASTopology()
    topo.add_org(Organization("O", "Org", "US"))
    for asn in (1, 2, 3, 4, 5):
        topo.add_as(AutonomousSystem(asn, "O", "US", RIR.ARIN, ASCategory.STUB))
    topo.add_link(2, 1, P2C)
    topo.add_link(2, 3, P2C)
    topo.add_link(4, 3, P2C)
    topo.add_link(4, 5, P2C)
    return topo


class TestRouteLeak:
    def test_leak_reaches_other_provider(self):
        engine = PropagationEngine(leak_topology())
        # 3's legitimate route to 1 is via provider 2; without the leak,
        # 4 and 5 have no route at all (2 and 4 are unconnected).
        baseline = engine.propagate(1)
        assert 4 not in baseline and 5 not in baseline
        outcome = simulate_leak(engine, origin=1, leaker=3, vantage_points=(4, 5))
        assert outcome.affected == {4: True, 5: True}
        assert outcome.affected_fraction == 1.0
        assert outcome.leaked_path == (3, 2, 1)

    def test_customer_route_is_not_a_leak(self):
        topo = leak_topology()
        engine = PropagationEngine(topo)
        # 2's route to 1 is customer-learned; "leaking" it is legal export
        with pytest.raises(ReproError):
            simulate_leak(engine, origin=1, leaker=2, vantage_points=(4,))

    def test_leaker_without_route_raises(self):
        engine = PropagationEngine(leak_topology())
        with pytest.raises(ReproError):
            simulate_leak(engine, origin=1, leaker=5, vantage_points=(4,))

    def test_origin_cannot_leak(self):
        engine = PropagationEngine(leak_topology())
        with pytest.raises(ReproError):
            simulate_leak(engine, origin=1, leaker=1, vantage_points=(4,))

    def test_rov_filters_leaked_invalid(self):
        policies = {4: ASPolicy(rov=True)}
        engine = PropagationEngine(leak_topology(), policies)
        outcome = simulate_leak(
            engine,
            origin=1,
            leaker=3,
            vantage_points=(4, 5),
            route_class=RouteClass(rpki_invalid=True),
        )
        assert outcome.affected == {4: False, 5: False}



    def test_leak_route_class_separates_baseline_from_leak(self):
        """A clean announcement leaks, but Action 1 filters see the
        leaked copy as IRR-invalid (prefix-list mismatch) and drop it."""
        policies = {4: ASPolicy(filter_customers_irr=True)}
        engine = PropagationEngine(leak_topology(), policies)
        contained = simulate_leak(
            engine,
            origin=1,
            leaker=3,
            vantage_points=(4, 5),
            leak_route_class=RouteClass(irr_invalid=True),
        )
        assert contained.affected == {4: False, 5: False}
        # without the separate class, the same leak spreads
        open_outcome = simulate_leak(
            engine, origin=1, leaker=3, vantage_points=(4, 5)
        )
        assert open_outcome.affected_fraction == 1.0


    def test_leak_on_world_spreads(self, small_world):
        engine = small_world.engine
        origin = next(
            asn
            for asn in small_world.topology.asns
            if small_world.originations.get(asn)
        )
        routes = engine.propagate(origin)
        leaker = next(
            asn
            for asn, route in routes.items()
            if route.kind is RouteKind.PROVIDER
            and small_world.topology.providers_of(asn)
        )
        outcome = simulate_leak(
            engine, origin, leaker, small_world.vantage_points
        )
        assert 0.0 <= outcome.affected_fraction <= 1.0


class TestGlobalHegemony:
    def test_average_over_destinations(self):
        local = [
            {9: 1.0, 8: 0.5},
            {9: 0.5},
        ]
        scores = global_hegemony(local)
        assert scores[9] == pytest.approx(0.75)
        assert scores[8] == pytest.approx(0.25)

    def test_empty(self):
        assert global_hegemony([]) == {}

    def test_world_global_hegemony_tops_out_at_large_transits(self, small_world):
        from repro.topology.classify import SizeClass

        columns = small_world.ihr.arrays
        offsets = columns["tr_offsets"].tolist()
        asns = columns["tr_asn"].tolist()
        hegemony = columns["tr_hegemony"].tolist()
        local = [
            dict(zip(asns[begin:end], hegemony[begin:end]))
            for begin, end in zip(offsets, offsets[1:])
        ]
        scores = global_hegemony(local)
        top = max(scores, key=scores.get)
        assert small_world.size_of[top] in (SizeClass.LARGE, SizeClass.MEDIUM)


class TestDelegatedStats:
    def test_roundtrip(self, small_world):
        text = small_world.address_space.serialize()
        records = parse_delegations(text)
        assert len(records) == len(small_world.address_space.delegations)
        original = {
            (d.prefix, d.rir, d.org_id, d.legacy)
            for d in small_world.address_space.delegations
        }
        rebuilt = {(d.prefix, d.rir, d.org_id, d.legacy) for d in records}
        assert rebuilt == original

    @pytest.mark.parametrize(
        "bad",
        [
            "ARIN|O|12.0.0.0/16",
            "NOPE|O|12.0.0.0/16|allocated",
            "ARIN|O|12.0.0.0/33|allocated",
            "ARIN|O|12.0.0.0/16|weird",
        ],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(AllocationError):
            parse_delegations(bad)
