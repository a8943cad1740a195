"""Equivalence tests for the performance fast paths.

Every optimisation added for full-scale builds — batched ``collect_rib``,
the propagation memo and targeted fast path, bulk/memoised validation,
the incremental relying party, and the RIB lookup caches — must produce
byte-identical results to the straightforward implementation it replaces.
These tests pin that equivalence on both hand-built topologies and the
session worlds, so a future "optimisation" that changes outputs fails
loudly instead of silently skewing the paper's figures.
"""

from __future__ import annotations

import gc
import random
from datetime import date

import pytest

from repro import obs
from repro.bgp.collector import collect_rib, select_vantage_points
from repro.bgp.policy import ASPolicy, RouteClass
from repro.bgp.propagation import PropagationEngine, RouteKind
from repro.hegemony.scores import hegemony_scores
from repro.irr.database import IRRDatabase
from repro.irr.objects import RouteObject
from repro.irr.validation import validate_irr, validate_irr_many
from repro.net.asn import strip_prepending
from repro.net.prefix import Prefix
from repro.net.radix import RadixTree
from repro.registry.rir import RIR
from repro.rpki.ca import RPKIRepository
from repro.rpki.roa import ROA
from repro.rpki.validator import IncrementalRelyingParty, RelyingParty
from repro.scenario.timeline import Timeline
from repro.topology.model import (
    ASCategory,
    ASTopology,
    AutonomousSystem,
    Organization,
    Relationship,
)

P2C = Relationship.PROVIDER_CUSTOMER
PEER = Relationship.PEER

ROUTE_CLASSES = [
    RouteClass(),
    RouteClass(rpki_invalid=True),
    RouteClass(irr_invalid=True),
    RouteClass(rpki_invalid=True, irr_invalid=True),
]


def make_topology(links: list[tuple[int, int, Relationship]]) -> ASTopology:
    topo = ASTopology()
    topo.add_org(Organization("O", "Org", "US"))
    for asn in sorted({a for link in links for a in link[:2]}):
        topo.add_as(
            AutonomousSystem(asn, "O", "US", RIR.ARIN, ASCategory.STUB)
        )
    for a, b, rel in links:
        topo.add_link(a, b, rel)
    return topo


def random_topology(rng: random.Random, n: int = 30) -> ASTopology:
    """A random mostly-hierarchical AS graph (acyclic provider DAG)."""
    links: list[tuple[int, int, Relationship]] = []
    for asn in range(2, n + 1):
        for provider in rng.sample(range(1, asn), min(asn - 1, rng.randint(1, 3))):
            links.append((provider, asn, P2C))
    linked = {frozenset(link[:2]) for link in links}
    peers = rng.sample(range(1, n + 1), min(n, 10))
    for a, b in zip(peers[::2], peers[1::2]):
        if a != b and frozenset((a, b)) not in linked:
            links.append((a, b, PEER))
    return make_topology(links)


def random_policies(rng: random.Random, topo: ASTopology) -> dict[int, ASPolicy]:
    policies = {}
    for asn in topo.asns:
        if rng.random() < 0.3:
            policies[asn] = ASPolicy(
                rov=rng.random() < 0.5,
                filter_customers_rpki=rng.random() < 0.5,
                filter_customers_irr=rng.random() < 0.5,
                filter_peers_rpki=rng.random() < 0.5,
            )
    return policies


class TestParallelCollect:
    def test_matches_world_rib(self, small_world):
        """Re-collection reproduces the committed world RIB."""
        snapshot = collect_rib(
            small_world.engine,
            small_world.rib.route_rows(),
            small_world.vantage_points,
        )
        assert [paths for *_, paths in snapshot.groups()] == [
            paths for *_, paths in small_world.rib.groups()
        ]


class TestPropagationMemo:
    def test_memoised_equals_uncached(self, small_world):
        """paths_to with the LRU on ≡ a cache-disabled engine."""
        topo = small_world.topology
        policies = small_world.policies
        cached = PropagationEngine(topo, policies)
        uncached = PropagationEngine(topo, policies, paths_cache_size=0)
        vps = small_world.vantage_points
        origins = sorted(topo.asns)[::37][:12]
        for route_class in ROUTE_CLASSES:
            for origin in origins:
                # Twice on the cached engine: second call is a memo hit.
                first = cached.paths_to(origin, vps, route_class)
                again = cached.paths_to(origin, vps, route_class)
                plain = uncached.paths_to(origin, vps, route_class)
                assert first == again == plain
        assert cached.cache_info()["hits"] > 0
        assert uncached.cache_info() == {
            "hits": 0, "misses": 0, "evictions": 0, "size": 0, "max_size": 0
        }

    def test_equal_signatures_share_one_entry(self, small_world):
        """Classes filtered nowhere share a signature, hence one memo slot."""
        engine = PropagationEngine(small_world.topology, {})
        # With no policies, no class is filtered anywhere: all four classes
        # resolve to the same effective-filter signature.
        ids = {engine.signature_id(rc) for rc in ROUTE_CLASSES}
        assert len(ids) == 1
        vps = small_world.vantage_points
        origin = min(small_world.topology.asns)
        results = [engine.paths_to(origin, vps, rc) for rc in ROUTE_CLASSES]
        assert all(r == results[0] for r in results)
        info = engine.cache_info()
        assert info["misses"] == 1 and info["hits"] == len(ROUTE_CLASSES) - 1

    def test_lru_result_is_a_copy(self, small_world):
        engine = small_world.engine
        vps = small_world.vantage_points
        origin = min(small_world.topology.asns)
        first = engine.paths_to(origin, vps, RouteClass())
        first[0] = (0,)  # caller mutation must not poison the memo
        assert 0 not in engine.paths_to(origin, vps, RouteClass())


class TestTargetedPropagation:
    @pytest.mark.parametrize("trial", range(8))
    def test_targeted_equals_full(self, trial):
        """Restricted propagation agrees with full propagation on targets."""
        rng = random.Random(1000 + trial)
        topo = random_topology(rng)
        policies = random_policies(rng, topo)
        engine = PropagationEngine(topo, policies, paths_cache_size=0)
        asns = sorted(topo.asns)
        targets = tuple(rng.sample(asns, 6))
        for route_class in ROUTE_CLASSES:
            for origin in rng.sample(asns, 8):
                full = engine.propagate(origin, route_class=route_class)
                restricted = engine.propagate(
                    origin, targets=targets, route_class=route_class
                )
                for asn in targets:
                    assert restricted.get(asn) == full.get(asn), (
                        f"trial={trial} origin={origin} asn={asn}"
                    )

    @pytest.mark.parametrize("trial", range(8))
    def test_paths_to_equals_propagate(self, trial):
        """The raw-tuple fast path matches propagate-derived paths."""
        rng = random.Random(2000 + trial)
        topo = random_topology(rng)
        policies = random_policies(rng, topo)
        engine = PropagationEngine(topo, policies, paths_cache_size=0)
        asns = sorted(topo.asns)
        vps = tuple(rng.sample(asns, 6))
        for route_class in ROUTE_CLASSES:
            for origin in rng.sample(asns, 8):
                routes = engine.propagate(origin, route_class=route_class)
                expected = {
                    vp: routes[vp].path for vp in vps if vp in routes
                }
                assert engine.paths_to(origin, vps, route_class) == expected

    def test_provider_cycle_falls_back(self):
        """A provider cycle disables the topo-order path, not correctness."""
        # 1 -> 2 -> 3 -> 1 provider cycle, origin 4 below 3.
        topo = make_topology([(1, 2, P2C), (2, 3, P2C), (3, 1, P2C), (3, 4, P2C)])
        engine = PropagationEngine(topo)
        full = engine.propagate(4)
        restricted = engine.propagate(4, targets=(1, 2))
        assert restricted[1] == full[1]
        assert restricted[2] == full[2]
        assert restricted[1].kind is RouteKind.CUSTOMER


class TestIncrementalRelyingParty:
    T0 = date(2015, 1, 1)
    T9 = date(2030, 1, 1)

    def _repo(self) -> RPKIRepository:
        p = Prefix.parse
        repo = RPKIRepository()
        anchor = repo.add_trust_anchor(RIR.ARIN, self.T0, self.T9)
        cert = repo.issue_certificate(
            anchor, "ORG-1", (p("12.0.0.0/8"),), self.T0, self.T9
        )
        # Current, not-yet-valid, expiring, and expired ROAs.
        repo.add_roa(ROA(p("12.1.0.0/16"), 65001, 24, cert.certificate_id,
                         self.T0, self.T9))
        repo.add_roa(ROA(p("12.2.0.0/16"), 65002, 16, cert.certificate_id,
                         date(2020, 6, 1), self.T9))
        repo.add_roa(ROA(p("12.3.0.0/16"), 65003, 16, cert.certificate_id,
                         self.T0, date(2019, 3, 1)))
        # Orphan ROA (no issuing certificate).
        repo.add_roa(ROA(p("12.4.0.0/16"), 65004, 16, "missing-cert",
                         self.T0, self.T9))
        # Over-claiming certificate outside the anchor's space.
        evil = repo.issue_certificate(
            anchor, "EVIL", (p("31.0.0.0/8"),), self.T0, self.T9
        )
        repo.add_roa(ROA(p("31.1.0.0/16"), 65005, 16, evil.certificate_id,
                         self.T0, self.T9))
        # Short-lived certificate: its ROA's window crosses year boundaries.
        brief = repo.issue_certificate(
            anchor, "ORG-2", (p("12.128.0.0/9"),), self.T0, date(2021, 6, 1)
        )
        repo.add_roa(ROA(p("12.200.0.0/16"), 65006, 16, brief.certificate_id,
                         self.T0, self.T9))
        # Revoked certificate.
        gone = repo.issue_certificate(
            anchor, "ORG-3", (p("12.64.0.0/10"),), self.T0, self.T9
        )
        repo.add_roa(ROA(p("12.100.0.0/16"), 65007, 16, gone.certificate_id,
                         self.T0, self.T9))
        repo.revoke(gone.certificate_id)
        return repo

    def test_matches_fresh_relying_party_every_year(self):
        repo = self._repo()
        incremental = IncrementalRelyingParty(repo)
        for year in range(2015, 2026):
            as_of = date(year, 12, 31)
            fast = incremental.validate(as_of)
            slow = RelyingParty(repo).validate(as_of)
            assert sorted(fast.vrps, key=repr) == sorted(slow.vrps, key=repr)
            assert fast.rejected == slow.rejected, f"year={year}"
            # One ROA at a time: a VRP exactly where the full run emits
            # one, in the same (repository) order.
            single = [incremental.vrp_at(roa, as_of) for roa in repo.roas]
            assert [vrp for vrp in single if vrp is not None] == slow.vrps

    def test_detects_repository_growth(self):
        repo = self._repo()
        incremental = IncrementalRelyingParty(repo)
        before = incremental.validate(date(2022, 1, 1))
        anchor = repo.add_trust_anchor(RIR.RIPE, self.T0, self.T9)
        cert = repo.issue_certificate(
            anchor, "ORG-N", (Prefix.parse("31.0.0.0/8"),), self.T0, self.T9
        )
        repo.add_roa(ROA(Prefix.parse("31.1.0.0/16"), 65010, 16,
                         cert.certificate_id, self.T0, self.T9))
        after = incremental.validate(date(2022, 1, 1))
        assert len(after.vrps) == len(before.vrps) + 1
        slow = RelyingParty(repo).validate(date(2022, 1, 1))
        assert sorted(after.vrps, key=repr) == sorted(slow.vrps, key=repr)

    def test_count_neutral_edit_invalidates_plans(self):
        # Publishing one ROA and withdrawing another leaves every object
        # count as it was; the plans must still be rebuilt.  So must a
        # lone withdrawal and a revocation.
        repo = self._repo()
        incremental = IncrementalRelyingParty(repo)
        as_of = date(2022, 1, 1)

        def assert_fresh():
            fast = incremental.validate(as_of)
            slow = RelyingParty(repo).validate(as_of)
            assert sorted(fast.vrps, key=repr) == sorted(slow.vrps, key=repr)
            assert fast.rejected == slow.rejected

        incremental.validate(as_of)
        withdrawn = repo.roas[0]
        issued = ROA(Prefix.parse("12.9.0.0/16"), 65009, 16,
                     withdrawn.certificate_id, self.T0, self.T9)
        repo.add_roa(issued)
        assert repo.remove_roa(withdrawn)
        assert_fresh()
        assert repo.remove_roa(issued)
        assert not repo.remove_roa(issued)
        assert_fresh()
        repo.revoke(withdrawn.certificate_id)
        assert_fresh()

    def test_timeline_rov_matches_fresh(self, small_world):
        timeline = Timeline(small_world)
        party = RelyingParty(small_world.rpki_repository)
        assert len(party.validate(small_world.snapshot_date).vrps) == len(
            small_world.rov
        )
        for year in timeline.years[:: max(1, len(timeline.years) // 3)]:
            as_of = (
                small_world.config.snapshot_date
                if year == small_world.config.snapshot_date.year
                else date(year, 12, 31)
            )
            fresh = party.validate(as_of)
            fast = timeline.rov_at(year)
            assert sorted(fast.all_vrps(), key=repr) == sorted(
                fresh.vrps, key=repr
            )


class TestRibSnapshotIndex:
    """The snapshot's lookups, against brute-force walks of the
    decoded groups and the raw path columns."""

    def test_paths_for_matches_brute_force(self, small_world):
        rib = small_world.rib
        columns = rib.arrays
        values = columns["rib_path_values"].tolist()
        path_offsets = columns["rib_path_offsets"].tolist()
        ref_offsets = columns["rib_ref_offsets"].tolist()
        groups = rib.groups()
        sample = [g for g in range(0, len(groups), 11) if groups[g][3]][:20]
        assert sample
        for g in sample:
            brute = [
                tuple(values[path_offsets[ref]:path_offsets[ref + 1]])
                for ref in range(ref_offsets[g], ref_offsets[g + 1])
            ]
            assert list(groups[g][3].values()) == brute

    def test_visible_announcements_matches_brute_force(self, small_world):
        rib = small_world.rib
        brute = [
            (prefix, origin)
            for origin, _, prefixes, paths in rib.groups()
            if paths
            for prefix in prefixes
        ]
        assert rib.routes(rib.visible_rows()) == brute
        assert len(brute) < len(rib.routes())


class TestBulkValidation:
    def test_covering_many_matches_covering(self):
        """The IRR column lookup answers many prefixes in one call
        exactly as one call per prefix, and both match a radix trie fed
        the same routes."""
        rng = random.Random(7)
        database = IRRDatabase("RADB")
        tree: RadixTree[RouteObject] = RadixTree()
        stored = []
        for i in range(200):
            length = rng.choice([8, 12, 16, 20, 24])
            prefix = Prefix.from_host(rng.randrange(0, 2**32), length)
            route = RouteObject(prefix=prefix, origin=i + 1, source="RADB")
            database.add_route(route)
            tree.insert(prefix, route)
            stored.append(prefix)
        queries = stored[:50] + [
            Prefix.from_host(rng.randrange(0, 2**32), 24) for _ in range(100)
        ]
        bulk = database.routes_covering_many(queries)
        for prefix in queries:
            assert bulk[prefix] == database.routes_covering(prefix)
            assert bulk[prefix] == tree.covering(prefix)

    def test_validate_irr_many_matches_single(self, small_world):
        registry = small_world.irr
        routes = [
            (prefixes[0], origin)
            for origin, _, prefixes, _ in small_world.rib.groups()[::7]
        ][:120]
        # Off-by-one origins exercise the non-matching classifications too.
        routes += [(prefix, origin + 1) for prefix, origin in routes[:30]]
        bulk = validate_irr_many(registry, routes)
        for prefix, origin in routes:
            assert bulk[(prefix, origin)] == validate_irr(registry, prefix, origin)

    def test_irr_memo_invalidated_by_mutation(self):
        p = Prefix.parse
        db = IRRDatabase("RADB")
        status_before = validate_irr(db, p("12.1.0.0/16"), 65001)
        db.add_route(RouteObject(p("12.1.0.0/16"), 65001, "RADB"))
        status_after = validate_irr(db, p("12.1.0.0/16"), 65001)
        assert status_before != status_after

    def test_rov_validate_many_matches_single(self, small_world):
        rov = small_world.rov
        routes = {
            (prefix, origin)
            for origin, _, prefixes, _ in small_world.rib.groups()[::5]
            for prefix in prefixes[:2]
        }
        bulk = rov.validate_many(routes)
        for prefix, origin in routes:
            assert bulk[(prefix, origin)] == rov.validate(prefix, origin)


class TestVantagePointDeterminism:
    def test_repeatable(self, small_world):
        first = select_vantage_points(small_world.topology, seed=3)
        second = select_vantage_points(small_world.topology, seed=3)
        assert first == second
        assert first == tuple(sorted(first))

    def test_world_vantage_points_reproduce(self, small_world):
        config = small_world.config
        assert (
            select_vantage_points(
                small_world.topology,
                n_medium=config.n_medium_vantage_points,
                n_small=config.n_small_vantage_points,
                seed=small_world.seed + 2,
            )
            == small_world.vantage_points
        )


class TestHotHelpers:
    def test_strip_prepending_identity_when_clean(self):
        path = (3, 2, 1)
        assert strip_prepending(path) is path  # no-copy fast path

    def test_strip_prepending_collapses(self):
        assert strip_prepending((3, 3, 2, 2, 2, 1)) == (3, 2, 1)
        assert strip_prepending([5, 5, 5]) == (5,)
        assert strip_prepending(()) == ()

    @pytest.mark.parametrize("trial", range(6))
    def test_hegemony_small_paths_match_reference(self, trial):
        """Length-specialised counting ≡ the set-based reference."""
        rng = random.Random(300 + trial)
        paths = []
        for _ in range(60):
            length = rng.randint(1, 6)
            paths.append(tuple(rng.randint(1, 9) for _ in range(length)))
        stripped = [strip_prepending(p) for p in paths]

        def reference(paths, trim=0.1):
            import math

            appearances: dict[int, int] = {}
            for path in paths:
                for asn in set(path[1:-1]):
                    appearances[asn] = appearances.get(asn, 0) + 1
            cut = math.floor(len(paths) * trim)
            kept = len(paths) - 2 * cut
            scores = {}
            for asn, count in appearances.items():
                score = min(max(count - cut, 0), kept) / kept
                if score > 0:
                    scores[asn] = score
            return scores

        assert hegemony_scores(stripped, prestripped=True) == reference(stripped)


class TestGcPaused:
    def test_restores_enabled_state(self):
        assert gc.isenabled()
        with obs.gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.gc_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_noop_when_already_disabled(self):
        gc.disable()
        try:
            with obs.gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_freeze_also_under_an_outer_pause(self):
        before = gc.get_freeze_count()
        with obs.gc_paused():
            with obs.gc_paused(freeze=True):
                batch = [[i] for i in range(1000)]
            assert gc.get_freeze_count() >= before + 1000
        assert gc.isenabled()
        # Frozen acyclic objects are still freed by reference counting.
        frozen = gc.get_freeze_count()
        del batch
        assert gc.get_freeze_count() <= frozen - 1000
