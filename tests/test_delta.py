"""The delta layer: cover sets, event replay, and the replay==rebuild gate.

The central invariant — applying an event stream incrementally through
:class:`~repro.delta.live.LiveWorld` produces a world digest-identical
to rebuilding everything cold from the mutated inputs — is pinned three
ways: a Hypothesis sweep over random event sequences (with shrinking),
an every-event-kind checkpoint walk, and a committed golden replay
digest on the shared ``small_world``.  The cover set that makes the
incremental path cheap is property-tested against a brute-force
containment scan, through both its searchsorted kernel and the bisect
reference it keeps for IPv6.  Link events the synthesizer never draws
(a provider–customer link, a peer link between large transits) get a
hand-built checkpoint walk, and what a checkpoint re-derives is pinned
twice: paths a derived engine carries across a peer link against an
uncached engine, and the re-propagation and re-scoring counts after a
stub–stub link.  Derived successors are pinned against fresh ones
(engines under policy flips and links, validators under VRP adds and
removes), spies show events build no engine or full interval index,
and neither the base nor a returned world changes under later events.

The satellites ride along: the ``repro.perf`` removal-window guards, the
tampered year-snapshot counter, and the serving layer's ``at=``
live-world hook.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from datetime import date
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.bgp.collector import GroupPaths, RibSnapshot
from repro.bgp.policy import ASPolicy
from repro.bgp.propagation import PropagationEngine
from repro.datasets.checkpoint import (
    CheckpointStore,
    dataset_digests,
    world_digest,
)
from repro.delta import (
    EVENT_KINDS,
    LinkAdded,
    LiveWorld,
    MemberJoined,
    RoaExpired,
    RoaIssued,
    RouteCoverIndex,
    cold_rebuild,
    synthesize_events,
    vrp_delta,
)
from repro.delta import live as live_module
from repro.delta.events import DeltaState, RouteObjectRemoved, apply_raw
from repro.errors import DeltaError
from repro.experiments.registry import REGISTRY
from repro.ihr.records import IHRDataset
from repro.kernels.intervals import RouteIntervalIndex
from repro.irr.validation import _classify as classify_irr
from repro.irr.validation import validate_irr, validate_irr_many
from repro.manrs.actions import Program
from repro.manrs.registry import Participant
from repro.net.prefix import Prefix
from repro.registry.rir import RIR
from repro.rpki.roa import ROA, VRP
from repro.rpki.rov import ROVValidator
from repro.rpki.validator import RelyingParty
from repro.scenario.build import build_world, route_table
from repro.topology.model import Relationship

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
GOLDEN_PATH = Path(__file__).parent / "goldens" / "replay_digests.json"


@lru_cache(maxsize=1)
def delta_world():
    """A tiny world shared by the replay tests (built at most once)."""
    return build_world(scale=0.05, seed=3)


# -- cover sets vs brute force (satellite 1) ---------------------------------

prefix_v4 = st.builds(
    lambda value, length: Prefix.from_host(value, length, 4),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=28),
)
prefix_v6 = st.builds(
    lambda value, length: Prefix.from_host(value, length, 6),
    st.integers(min_value=0, max_value=2**128 - 1),
    st.integers(min_value=0, max_value=64),
)
prefix_strategy = st.one_of(prefix_v4, prefix_v6)
route_strategy = st.tuples(
    prefix_strategy, st.integers(min_value=1, max_value=64_511)
)


def brute_force_cover(routes, changed):
    return sorted(
        {
            index
            for index, (prefix, _) in enumerate(routes)
            for cover in changed
            if cover.contains(prefix)
        }
    )


@given(
    routes=st.lists(route_strategy, min_size=0, max_size=40),
    changed=st.lists(prefix_strategy, min_size=0, max_size=8),
)
def test_cover_index_matches_bruteforce_both_kernels(routes, changed):
    # Both implementations: the searchsorted kernel and the bisect scan
    # it keeps as the reference (and as its IPv6 path).
    index = RouteCoverIndex(routes)
    expected = brute_force_cover(routes, changed)
    assert index.affected(changed) == expected
    assert index._affected_python(changed) == expected


vrp_strategy = st.builds(
    lambda prefix, asn: VRP(
        prefix=prefix,
        asn=asn,
        max_length=prefix.length,
        trust_anchor=list(RIR)[0],
    ),
    prefix_v4,
    st.integers(min_value=0, max_value=9999),
)


@given(
    old=st.lists(vrp_strategy, min_size=0, max_size=12),
    new=st.lists(vrp_strategy, min_size=0, max_size=12),
    routes=st.lists(route_strategy, min_size=1, max_size=30),
)
@settings(deadline=None)
def test_verdict_diff_is_within_cover_set(old, new, routes):
    """Full-revalidation diff (before vs after) ⊆ the radix cover set."""
    added, removed = vrp_delta(old, new)
    changed = {vrp.prefix for vrp in added + removed}
    cover = set(RouteCoverIndex(routes).affected(changed))
    before = ROVValidator(old).validate_many(routes)
    after = ROVValidator(new).validate_many(routes)
    flipped = {
        index
        for index, route in enumerate(routes)
        if before[route] is not after[route]
    }
    assert flipped <= cover


def test_vrp_delta_is_multiset_and_order_blind():
    prefix = Prefix.parse("10.0.0.0/8")
    other = Prefix.parse("192.168.0.0/16")
    a = VRP(prefix, 1, 8, list(RIR)[0])
    b = VRP(other, 2, 16, list(RIR)[0])
    assert vrp_delta([a, b], [b, a]) == ([], [])
    assert vrp_delta([a, a, b], [a, b]) == ([], [a])
    assert vrp_delta([a], [a, b, b]) == ([b, b], [])


# -- replay == rebuild (the tentpole invariant) ------------------------------


@given(
    kinds=st.lists(st.sampled_from(EVENT_KINDS), min_size=1, max_size=5),
    salt=st.integers(min_value=0, max_value=2**16),
)
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_replay_digest_equals_cold_rebuild(kinds, salt):
    world = delta_world()
    events = synthesize_events(world, kinds=kinds, seed=salt)
    live = LiveWorld(world)
    for event in events:
        live.apply(event)
    assert dataset_digests(live.world()) == dataset_digests(
        cold_rebuild(world, events)
    )


def _reopened(world, directory):
    """``world`` saved into a store at ``directory`` and opened again."""
    store = CheckpointStore(directory)
    store.save(world)
    return store.load(world.config, world.scale, world.seed)


def test_every_event_kind_checkpoints_equal_cold_rebuild(tmp_path):
    """One event of each kind, digest-checked at every instant, from the
    built base and from the base saved and reopened (whose live world
    seeds its caches from the stored columns)."""
    world = delta_world()
    events = synthesize_events(world, kinds=list(EVENT_KINDS), seed=13)
    for base in (world, _reopened(world, tmp_path)):
        live = LiveWorld(base)
        for applied, event in enumerate(events, start=1):
            live.apply(event)
            assert dataset_digests(live.world()) == dataset_digests(
                cold_rebuild(base, events[:applied])
            ), f"diverged after {applied} events ({type(event).__name__})"


def _largest_unlinked_pair(topology) -> tuple[int, int]:
    """The two unlinked ASes, among the 20 with the largest customer
    cones, whose smaller cone is largest."""
    cone = {asn: len(topology.customer_cone(asn)) for asn in topology.asns}
    top = sorted(topology.asns, key=lambda asn: (-cone[asn], asn))[:20]
    return max(
        (pair for pair in itertools.combinations(top, 2)
         if not topology.linked(*pair)),
        key=lambda pair: (min(cone[pair[0]], cone[pair[1]]), -pair[0], -pair[1]),
    )


def _unlinked_stubs(world) -> tuple[int, int]:
    """Two unlinked origins with no customers, outside the vantage
    points."""
    topology = world.topology
    stubs = [
        asn
        for asn in sorted(set(world.rib.arrays["rib_origin"].tolist()))
        if not topology.customers_of(asn)
        and asn not in world.vantage_points
    ]
    return next(
        pair for pair in itertools.combinations(stubs, 2)
        if not topology.linked(*pair)
    )


def test_link_events_checkpoint_equal_cold_rebuild():
    """Hand-built links the synthesizer never draws: a customerless
    vantage point becomes the customer of the largest transit (its paths
    toward origins outside both cones change too, so no cached path may
    be kept), then two large transits peer (paths toward origins outside
    their cones are kept)."""
    world = delta_world()
    topology = world.topology
    transit = max(
        topology.asns,
        key=lambda asn: (len(topology.customer_cone(asn)), -asn),
    )
    stub = next(
        asn
        for asn in world.vantage_points
        if not topology.customers_of(asn)
        and not topology.linked(transit, asn)
    )
    a, b = _largest_unlinked_pair(topology)
    events = [
        LinkAdded(transit, stub, Relationship.PROVIDER_CUSTOMER),
        LinkAdded(a, b, Relationship.PEER),
    ]
    live = LiveWorld(world)
    for applied, event in enumerate(events, start=1):
        live.apply(event)
        assert dataset_digests(live.world()) == dataset_digests(
            cold_rebuild(world, events[:applied])
        ), f"diverged after {event}"


@pytest.mark.parametrize(
    "event_seed, last_kind", [(1, "RouteObjectAdded"), (2, "RoaIssued")]
)
def test_advance_to_equals_cold_rebuild_at_the_instant(
    small_world, event_seed, last_kind
):
    """Time shifts around a count-neutral ROA pair, then one more event.

    The pair leaves every repository object count as it was, so only a
    relying party keyed on the repository's mutation counter replans
    for the second shift.
    """
    first, second = date(2021, 6, 1), date(2020, 3, 1)
    issued, expired, last = synthesize_events(
        small_world,
        kinds=["RoaIssued", "RoaExpired", last_kind],
        seed=event_seed,
    )
    assert expired.roa != issued.roa
    live = LiveWorld(small_world)
    live.advance_to(first)
    live.apply(issued)
    live.apply(expired)
    live.advance_to(second)
    live.apply(last)
    assert live.current_date == second
    assert dataset_digests(live.world()) == dataset_digests(
        cold_rebuild(small_world, [issued, expired, last], as_of=second)
    )


def _event_route(event) -> tuple[Prefix, int]:
    if isinstance(event, (RoaIssued, RoaExpired)):
        return event.roa.prefix, event.roa.asn
    return event.route.prefix, event.route.origin


def test_verdict_memos_stay_sound_off_the_route_table(small_world):
    """A memoised verdict for a route outside the table, on the next
    event's own prefix, never outlives the event that changes it."""
    table = set(route_table(small_world.originations))
    events = synthesize_events(
        small_world,
        kinds=[
            "RoaIssued", "RouteObjectAdded", "RoaExpired",
            "RouteObjectRemoved", "RoaIssued", "RouteObjectAdded",
            "RoaExpired", "RouteObjectRemoved",
        ],
        seed=8,
    )
    live = LiveWorld(small_world)
    for event in events:
        prefix, asn = _event_route(event)
        origin = next(
            candidate
            for candidate in (asn, asn + 1, asn + 2)
            if (prefix, candidate) not in table
        )
        before = live.world()
        before.rov.validate(prefix, origin)
        validate_irr(before.irr, prefix, origin)
        live.apply(event)
        after = live.world()
        vrps = RelyingParty(after.rpki_repository).validate(
            after.snapshot_date
        ).vrps
        assert after.rov.validate(prefix, origin) is ROVValidator(
            vrps
        ).validate(prefix, origin), type(event).__name__
        assert validate_irr(after.irr, prefix, origin) is classify_irr(
            after.irr.routes_covering(prefix), prefix, origin
        ), type(event).__name__


# -- what a checkpoint re-derives --------------------------------------------


def _paths_in_order(engine, keys, vantage_points):
    return [
        list(engine.paths_to(origin, vantage_points, route_class).items())
        for origin, route_class in keys
    ]


def test_peer_link_adoption_matches_an_uncached_engine(small_world):
    """Paths a derived engine carries across a new peer link, dropping
    both endpoints' customer cones, are what an uncached engine
    computes; carrying every path is not (the control that shows this
    test can fail).  The parent engine answers as before."""
    topology, policies = small_world.topology, small_world.policies
    vantage_points = small_world.vantage_points
    keys = list(
        zip(
            small_world.rib.arrays["rib_origin"].tolist(),
            small_world.rib.route_classes(),
        )
    )
    previous = PropagationEngine(topology, policies)
    previous.paths_to_many(keys, vantage_points)
    before = _paths_in_order(previous, keys, vantage_points)
    large = _largest_unlinked_pair(topology)
    stubs = _unlinked_stubs(small_world)
    for a, b in (large, stubs):
        grown = topology.copy()
        grown.add_link(a, b, Relationship.PEER)
        expected = _paths_in_order(
            PropagationEngine(grown, policies, paths_cache_size=0),
            keys,
            vantage_points,
        )
        derived = previous.derive(link=(a, b), topology=grown)
        assert 0 < derived.cache_info()["size"] < previous.cache_info()["size"]
        assert _paths_in_order(derived, keys, vantage_points) == expected, (a, b)
        if (a, b) == large:
            careless = previous.derive(link=(a, b), topology=grown)
            careless._paths_cache = previous._paths_cache.copy()
            assert _paths_in_order(careless, keys, vantage_points) != expected
    assert _paths_in_order(previous, keys, vantage_points) == before
    assert previous.topology is topology


#: Every boolean field of an import policy: what a PolicyFlipped toggles.
POLICY_TOGGLES = tuple(
    field.name
    for field in dataclasses.fields(ASPolicy)
    if isinstance(field.default, bool)
)


def _group_paths(engine, keys, vantage_points):
    return [
        list(paths.items())
        for paths in engine.paths_to_many(keys, vantage_points)
    ]


@given(
    steps=st.lists(
        st.one_of(
            st.tuples(
                st.just("flip"),
                st.integers(min_value=0, max_value=5),
                st.sampled_from(POLICY_TOGGLES),
            ),
            st.tuples(
                st.sampled_from(["peer", "provider"]),
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=11),
            ),
        ),
        min_size=1,
        max_size=4,
    )
)
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_derived_engine_matches_an_uncached_engine(small_world, steps):
    """Policy flips of every boolean field (the first one flipped back
    at the end, to an earlier signature) and new peer and
    provider–customer links, each derived from the previous engine:
    after every step the derived engine's paths over every RIB group
    are an uncached engine's over the same inputs."""
    topology = small_world.topology
    keys = list(
        zip(
            small_world.rib.arrays["rib_origin"].tolist(),
            small_world.rib.route_classes(),
        )
    )
    vantage_points = small_world.vantage_points
    cone = {asn: len(topology.customer_cone(asn)) for asn in topology.asns}
    transits = sorted(topology.asns, key=lambda asn: (-cone[asn], asn))[:6]
    stubs = [asn for asn in sorted(topology.asns) if cone[asn] == 1]
    stubs = stubs[:: len(stubs) // 12][:12]
    flips = [step for step in steps if step[0] == "flip"]
    steps = steps + flips[:1]
    policies = dict(small_world.policies)
    engine = small_world.engine
    for kind, first, second in steps:
        if kind == "flip":
            asn = transits[first]
            policy = policies.get(asn, ASPolicy())
            policies[asn] = replace(
                policy, **{second: not getattr(policy, second)}
            )
            engine = engine.derive(policies={asn: policies[asn]})
        else:
            a, b = transits[first], stubs[second]
            if topology.linked(a, b):
                continue
            topology = topology.copy()
            relationship = (
                Relationship.PEER
                if kind == "peer"
                else Relationship.PROVIDER_CUSTOMER
            )
            topology.add_link(a, b, relationship)
            engine = engine.derive(link=(a, b), topology=topology)
        uncached = PropagationEngine(topology, policies, paths_cache_size=0)
        assert _group_paths(engine, keys, vantage_points) == _group_paths(
            uncached, keys, vantage_points
        ), (kind, first, second)


def _vrp(prefix: Prefix, asn: int, extra: int) -> VRP:
    return VRP(
        prefix=prefix,
        asn=asn,
        max_length=min(prefix.length + extra, prefix.bits),
        trust_anchor=list(RIR)[0],
    )


derivable_vrp = st.builds(
    _vrp,
    prefix_strategy,
    st.sampled_from([0, 1, 2, 64_500]),
    st.integers(min_value=0, max_value=3),
)


@given(
    start=st.lists(derivable_vrp, min_size=1, max_size=10),
    changes=st.lists(
        st.one_of(
            st.tuples(st.just("add"), derivable_vrp),
            st.tuples(st.just("copy"), st.integers(min_value=0)),
            st.tuples(st.just("remove"), st.integers(min_value=0)),
        ),
        min_size=1,
        max_size=8,
    ),
    extra_routes=st.lists(route_strategy, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_derived_validator_matches_a_fresh_one(start, changes, extra_routes):
    """VRP adds (new VRPs and duplicates of loaded ones, AS0, IPv6)
    and removals, each derived from the previous validator with its
    interval index built: after every step the derived validator
    classifies every route — its VRPs' own prefixes, one bit more
    specific than their maxLength, and others — as a fresh validator
    over the same VRP list does."""
    vrps = list(start)
    routes = set(extra_routes)
    for vrp in vrps + [change[1] for change in changes if change[0] == "add"]:
        prefix, max_length = vrp.prefix, vrp.max_length
        routes.add((prefix, vrp.asn or 1))
        if max_length < prefix.bits:
            routes.add(
                (Prefix.from_host(prefix.value, max_length + 1, prefix.version), vrp.asn)
            )
    validator = ROVValidator(vrps)
    validator.validate_many(routes)
    for kind, value in changes:
        if kind == "add":
            vrp = value
        else:
            if not vrps:
                continue
            vrp = vrps[value % len(vrps)]
        if kind == "remove":
            validator = validator.without_vrp(vrp)
            vrps.remove(vrp)
        else:
            validator = validator.with_vrp(vrp)
            vrps.append(vrp)
        fresh = ROVValidator(vrps)
        assert validator.all_vrps() == fresh.all_vrps()
        assert validator.validate_many(routes) == fresh.validate_many(routes)
        assert validator.covered_space(
            [prefix for prefix, _ in routes]
        ) == fresh.covered_space([prefix for prefix, _ in routes])
    stranger = _vrp(Prefix.parse("203.0.113.0/24"), 64_501, 0)
    with pytest.raises(ValueError):
        validator.without_vrp(stranger)


def _hand_built_links(world) -> list[LinkAdded]:
    """A provider–customer link and a peer link the synthesizer never
    draws (see test_link_events_checkpoint_equal_cold_rebuild)."""
    topology = world.topology
    transit = max(
        topology.asns,
        key=lambda asn: (len(topology.customer_cone(asn)), -asn),
    )
    stub = next(
        asn
        for asn in world.vantage_points
        if not topology.customers_of(asn)
        and not topology.linked(transit, asn)
    )
    return [
        LinkAdded(transit, stub, Relationship.PROVIDER_CUSTOMER),
        LinkAdded(*_largest_unlinked_pair(topology), Relationship.PEER),
    ]


def test_events_derive_instead_of_rebuilding(monkeypatch):
    """Once the base validator's interval index exists, no ROA event
    builds a full index, and no policy or link event constructs a
    propagation engine: each derives its successor."""
    world = delta_world()
    world.rov.interval_index()
    events = synthesize_events(
        world,
        kinds=["RoaIssued", "RoaExpired", "PolicyFlipped", "LinkAdded"] * 2,
        seed=21,
    ) + _hand_built_links(world)
    live = LiveWorld(world)
    built = []
    for cls in (PropagationEngine, RouteIntervalIndex):
        original = cls.__init__

        def spy(self, *args, original=original, **kwargs):
            built.append(type(self).__name__)
            original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", spy)
    for event in events:
        live.apply(event)
        assert built == [], type(event).__name__
    assert dataset_digests(live.world()) == dataset_digests(
        cold_rebuild(world, events)
    )


def test_replay_leaves_the_base_answering_as_before():
    """After events of every kind and both hand-built links, the base
    world's engine, validator and digest answer as before."""
    world = build_world(scale=0.05, seed=4)
    keys = list(
        zip(world.rib.arrays["rib_origin"].tolist(), world.rib.route_classes())
    )
    routes = route_table(world.originations)
    events = synthesize_events(
        world, kinds=list(EVENT_KINDS) * 2, seed=17
    ) + _hand_built_links(world)
    digest = world_digest(world)
    paths = _group_paths(world.engine, keys, world.vantage_points)
    verdicts = dict(world.rov.validate_many(routes))
    engine, rov, topology = world.engine, world.rov, world.topology
    policies = dict(world.policies)
    live = LiveWorld(world)
    for event in events:
        live.apply(event)
    assert live.world().engine is not engine
    assert world.engine is engine and world.rov is rov
    assert world.topology is topology and world.policies == policies
    assert engine.topology is topology
    assert all(engine.policy_of(asn) == policy for asn, policy in policies.items())
    assert _group_paths(engine, keys, world.vantage_points) == paths
    assert ROVValidator(rov.all_vrps()).validate_many(routes) == verdicts
    assert dict(rov.validate_many(routes)) == verdicts
    assert world_digest(world) == digest


def test_a_returned_world_never_changes(tmp_path):
    """A checkpoint world digests as the cold rebuild of the events
    before it, and still does after one more event of every kind: the
    state edits a world's topology, policies, registries and
    membership copy-on-write."""
    world = delta_world()
    events = synthesize_events(world, kinds=list(EVENT_KINDS) * 2, seed=29)
    events += _hand_built_links(world)
    k = len(EVENT_KINDS)
    for base in (world, _reopened(world, tmp_path)):
        live = LiveWorld(base)
        for event in events[:k]:
            live.apply(event)
        checkpoint = live.world()
        expected = dataset_digests(cold_rebuild(base, events[:k]))
        assert dataset_digests(checkpoint) == expected
        policies = dict(checkpoint.policies)
        for event in events[k:]:
            live.apply(event)
        assert dataset_digests(checkpoint) == expected
        assert checkpoint.policies == policies
        assert dataset_digests(live.world()) == dataset_digests(
            cold_rebuild(base, events)
        )


def test_stub_peer_link_rederives_only_the_stubs_groups(small_world):
    """After a peer link between two customerless, non-vantage-point
    stubs, a checkpoint re-propagates only the stubs' own route groups
    and re-scores no group (no vantage-point path changed)."""
    a, b = _unlinked_stubs(small_world)
    live = LiveWorld(small_world)
    live.apply(LinkAdded(a, b, Relationship.PEER))
    before = obs.counters()
    live.world()
    after = obs.counters()

    def moved(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    stub_groups = sum(
        origin in (a, b)
        for origin in small_world.rib.arrays["rib_origin"].tolist()
    )
    assert stub_groups > 0
    assert moved("delta.transit_misses") == 0
    assert moved("delta.transit_hits") > 0
    assert moved("propagation.cache_misses") == stub_groups


def test_live_world_reads_base_verdicts_from_the_ihr(small_world, tmp_path):
    """The visible routes' verdicts come from the base IHR and only the
    routes no vantage point saw are validated; the maps equal full
    validation key for key, in route-table order, for the built base
    and for it reopened from a checkpoint."""
    routes = route_table(small_world.originations)
    unseen = len(small_world.rib.routes(~small_world.rib.visible_rows()))
    assert 0 < unseen < len(routes)
    store = CheckpointStore(tmp_path)
    store.save(small_world)
    reopened = store.load(
        small_world.config, small_world.scale, small_world.seed
    )
    for base in (small_world, reopened):
        before = obs.counters().get("rov.memo_misses", 0)
        rpki, irr = live_module._base_verdicts(base, routes)
        if base is reopened:
            # A reopened validator starts with an empty memo, and the
            # unseen routes' IRR verdicts come from one pass over the
            # interval index built from the stored route columns.
            assert obs.counters()["rov.memo_misses"] - before == unseen
            assert reopened.irr._interval_index[0] == reopened.irr.version
        assert list(rpki) == list(irr) == routes
        assert rpki == dict(base.rov.validate_many(routes))
        assert irr == dict(validate_irr_many(base.irr, routes))
    live = LiveWorld(reopened)
    assert not live._rov_seeded


def test_reopened_base_seeds_the_engine_memo(small_world, tmp_path):
    """A reopened world's engine starts with an empty memo; the live
    world seeds it and the transit cache with views over the stored RIB
    columns, so a checkpoint after an event that moves no path
    re-propagates and re-scores nothing."""
    store = CheckpointStore(tmp_path)
    store.save(small_world)
    reopened = store.load(
        small_world.config, small_world.scale, small_world.seed
    )
    [event] = synthesize_events(reopened, kinds=["MemberJoined"], seed=1)
    before = obs.counters()
    live = LiveWorld(reopened)
    live.apply(event)
    live.world()
    after = obs.counters()

    def moved(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    # Classes with equal filter signatures share one memo entry.
    keys = {
        (origin, reopened.engine.signature_id(route_class))
        for origin, route_class in zip(
            small_world.rib.arrays["rib_origin"].tolist(),
            small_world.rib.route_classes(),
        )
    }
    assert moved("propagation.cache_seeded") == len(keys)
    assert moved("propagation.cache_misses") == 0
    assert moved("delta.transit_misses") == 0
    assert moved("delta.transit_hits") == small_world.rib.visible().sum()


def test_untouched_groups_copy_the_base_rib_columns(
    small_world, tmp_path, monkeypatch
):
    """No path of a reopened base is decoded, and after an event that
    moves no route every group's columns are copied: the checkpoint's
    RIB is the base's, byte for byte."""
    reopened = _reopened(small_world, tmp_path)
    [event] = synthesize_events(reopened, kinds=["MemberJoined"], seed=1)

    def decode(self):
        raise AssertionError("a RIB path was decoded")

    monkeypatch.setattr(RibSnapshot, "groups", decode)
    monkeypatch.setattr(GroupPaths, "_decoded", decode)
    before = obs.counters()
    live = LiveWorld(reopened)
    live.apply(event)
    rib = live.world().rib
    after = obs.counters()

    def moved(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    assert moved("delta.groups_copied") == len(reopened.rib.arrays["rib_origin"])
    assert moved("delta.groups_encoded") == 0
    assert rib.meta == reopened.rib.meta
    assert list(rib.arrays) == list(reopened.rib.arrays)
    for name, column in reopened.rib.arrays.items():
        assert rib.arrays[name].dtype == column.dtype, name
        assert rib.arrays[name].tobytes() == column.tobytes(), name


def test_route_classes_sharing_a_memo_entry_equal_cold_rebuild():
    """With no AS filtering on IRR verdicts, an origin's IRR-invalid
    routes propagate like its others, so the two groups share one memo
    entry and its view.  A checkpoint copies such a group's paths from
    the view's group and its prefix rows from its own; every checkpoint
    must equal the cold rebuild."""
    world = delta_world()
    policies = {
        asn: replace(policy, filter_peers_irr=False, filter_customers_irr=False)
        for asn, policy in world.policies.items()
    }
    base = cold_rebuild(replace(world, policies=policies), [])
    keys = list(
        zip(base.rib.arrays["rib_origin"].tolist(), base.rib.route_classes())
    )
    shared = {
        (origin, base.engine.signature_id(route_class))
        for origin, route_class in keys
    }
    assert len(shared) < len(keys)
    events = synthesize_events(
        base, kinds=["MemberJoined", *EVENT_KINDS], seed=5
    )
    live = LiveWorld(base)
    for applied, event in enumerate(events, start=1):
        before = obs.counters().get("delta.groups_copied", 0)
        live.apply(event)
        current = live.world()
        if applied == 1:
            copied = obs.counters()["delta.groups_copied"] - before
            assert copied == len(keys)
        assert dataset_digests(current) == dataset_digests(
            cold_rebuild(base, events[:applied])
        ), f"diverged after {applied} events ({type(event).__name__})"


def test_misaligned_base_ihr_falls_back_to_full_validation(small_world):
    origins = small_world.ihr.arrays["po_origin"].copy()
    origins[0] += 1
    ihr = IHRDataset(
        small_world.ihr.meta, {**small_world.ihr.arrays, "po_origin": origins}
    )
    base = replace(small_world, ihr=ihr)
    routes = route_table(small_world.originations)
    assert live_module._base_verdicts(base, routes) is None
    live = LiveWorld(base)
    assert live._rov_seeded
    assert live._rpki_status == dict(small_world.rov.validate_many(routes))
    assert live._irr_status == dict(validate_irr_many(small_world.irr, routes))


def test_cloned_irr_holds_the_source_route_objects_in_order(
    small_world, tmp_path
):
    """Each cloned database shares the source's stored route columns and
    strings, so it lists equal route objects in the same order, with
    the mutation counter at the route count; edits to the clone replace
    its columns and leave the source alone."""
    for world in (small_world, _reopened(small_world, tmp_path)):
        clone = DeltaState.from_world(world).irr
        pairs = list(zip(world.irr.databases, clone.databases))
        assert [copy.name for _, copy in pairs] == [
            source.name for source in world.irr.databases
        ]
        for source, copy in pairs:
            columns, strings = source.stored_rows()
            cloned_columns, cloned_strings = copy.stored_rows()
            assert cloned_strings is strings
            assert all(
                cloned_columns[name] is column
                for name, column in columns.items()
            )
            assert copy.version == len(strings)
            assert copy.all_routes() == source.all_routes()
        source, copy = max(pairs, key=lambda pair: pair[0].route_count)
        routes = source.all_routes()
        assert copy.remove_route(routes[0])
        assert source.all_routes() == routes
        assert copy.all_routes() == routes[1:]


def test_route_object_events_leave_a_built_base_irr(small_world):
    """Route-object events on a live world over a built base edit the
    cloned registry copy-on-write: the base's IRR digest and rows stay
    as they were."""
    before = dataset_digests(small_world)["irr"]
    rows = {
        database.name: database.stored_rows()[1][:]
        for database in small_world.irr.databases
    }
    events = synthesize_events(
        small_world,
        kinds=["RouteObjectAdded", "RouteObjectRemoved"] * 3,
        seed=4,
    )
    live = LiveWorld(small_world)
    for event in events:
        live.apply(event)
    after = live.world()
    assert dataset_digests(after)["irr"] != before
    assert dataset_digests(small_world)["irr"] == before
    assert {
        database.name: database.stored_rows()[1]
        for database in small_world.irr.databases
    } == rows


def test_route_object_removals_draw_like_a_list(small_world):
    """A removal draws one integer over every route object, database by
    database in address order, as indexing the concatenated
    ``all_routes()`` lists would; only the drawn row is decoded."""
    events = synthesize_events(
        small_world, kinds=["RouteObjectRemoved"] * 8, seed=9
    )
    rng = np.random.default_rng(9)
    state = DeltaState.from_world(small_world)
    for event in events:
        registered = [
            route
            for database in state.irr.databases
            for route in database.all_routes()
        ]
        assert isinstance(event, RouteObjectRemoved)
        assert event.route == registered[int(rng.integers(len(registered)))]
        apply_raw(state, event)

def test_live_world_at_instant_zero_is_the_base():
    world = delta_world()
    live = LiveWorld(world)
    assert live.world() is world
    assert live.events_applied == 0


def test_live_world_caches_between_events():
    world = delta_world()
    events = synthesize_events(world, kinds=["RoaIssued"], seed=1)
    live = LiveWorld(world)
    live.apply(events[0])
    first = live.world()
    assert live.world() is first
    assert live.events_applied == 1


def test_inapplicable_event_raises_delta_error():
    world = delta_world()
    stranger = ROA(
        prefix=Prefix.parse("203.0.113.0/24"),
        asn=64_500,
        max_length=24,
        certificate_id="TA-RIPE",
        not_before=world.snapshot_date,
        not_after=world.snapshot_date,
    )
    with pytest.raises(DeltaError):
        LiveWorld(world).apply(RoaExpired(roa=stranger))


def test_member_joined_outside_the_topology_raises_delta_error():
    world = delta_world()
    topology = world.topology
    isp_orgs = {
        participant.org_id
        for participant in world.manrs.participants_in(Program.ISP)
    }
    asn = next(
        asn
        for asn in topology.asns
        if topology.get_as(asn).org_id not in isp_orgs
    )
    org_id = topology.get_as(asn).org_id
    unknown_org = Participant(
        org_id="ORG-NOWHERE",
        program=Program.ISP,
        asns=(asn,),
        joined=world.snapshot_date,
    )
    unknown_asn = replace(
        unknown_org, org_id=org_id, asns=(max(topology.asns) + 1,)
    )
    for participant in (unknown_org, unknown_asn):
        with pytest.raises(DeltaError):
            LiveWorld(world).apply(MemberJoined(participant=participant))


def test_synthesized_member_joined_renders_like_cold_rebuild(small_world):
    """The joining org is a real one, so the artefacts that look members
    up in as2org render on the live world, equal to the cold rebuild."""
    events = synthesize_events(small_world, kinds=["MemberJoined"], seed=5)
    (event,) = events
    topology = small_world.topology
    asn = event.participant.asns[0]
    assert event.participant.org_id == topology.get_as(asn).org_id
    live = LiveWorld(small_world)
    live.apply(event)
    rebuilt = cold_rebuild(small_world, events)
    for name in ("f70", "f83", "tab2"):
        spec = REGISTRY[name]
        assert spec.render(spec.run(live.world())) == spec.render(
            spec.run(rebuilt)
        ), name


def test_replay_cli_names_the_differing_artifact(monkeypatch, capsys):
    import repro.delta
    from repro.cli import main

    real_cold_rebuild = repro.delta.cold_rebuild

    def perturbed_cold_rebuild(world, events):
        rebuilt = real_cold_rebuild(world, events)
        # The first stored path value is the first path's vantage point.
        values = rebuilt.rib.arrays["rib_path_values"].copy()
        values[0] += 1
        rib = RibSnapshot(
            rebuilt.rib.meta, {**rebuilt.rib.arrays, "rib_path_values": values}
        )
        return replace(rebuilt, rib=rib)

    monkeypatch.setattr(repro.delta, "cold_rebuild", perturbed_cold_rebuild)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    code = main(
        [
            "--scale", "0.05", "--seed", "3",
            "replay", "--events", "2", "--checkpoints", "1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "MISMATCH" in out and "differs: rib)" in out


def test_synthesize_events_is_deterministic():
    world = delta_world()
    first = synthesize_events(world, n=8, seed=5)
    second = synthesize_events(world, n=8, seed=5)
    assert first == second
    assert synthesize_events(world, n=8, seed=6) != first
    with pytest.raises(ValueError):
        synthesize_events(world, n=3, kinds=["RoaIssued"])


# -- replayed-instant golden (rides with the digest goldens) -----------------


def test_replay_golden_matches(small_world):
    golden = json.loads(GOLDEN_PATH.read_text())["entry"]
    assert (golden["scale"], golden["seed"]) == (
        small_world.scale,
        small_world.seed,
    )
    events = synthesize_events(
        small_world, n=golden["events"], seed=golden["event_seed"]
    )
    live = LiveWorld(small_world)
    checkpoints = {
        point["applied"]: point["world_digest"]
        for point in golden["checkpoints"]
    }
    for applied, event in enumerate(events, start=1):
        live.apply(event)
        expected = checkpoints.get(applied)
        if expected is None:
            continue
        assert world_digest(live.world()) == expected, (
            f"replayed digest drifted after {applied} events; if intended, "
            "regenerate with scripts/update_goldens.py and justify it"
        )


#: After each event of the replay golden stream, with a checkpoint
#: after each: the live engine's ``cache_info()`` (hits, misses,
#: evictions, size, max size) and the ``propagation.cache_*`` counters
#: (hits, misses, evictions, seeded) moved since the live world started.
#: Recorded when the memo keys held the whole vantage-point tuple.
GOLDEN_STREAM_MEMO = [
    ((1153 + 1152 * k, 1151, 0, 1151, 8192), (1152 * (k + 1), 0, 0, 1151))
    for k in range(6)
]


def _three_ints(key) -> bool:
    return (
        type(key) is tuple
        and len(key) == 3
        and all(type(part) is int for part in key)
    )


def test_replay_golden_stream_memo_counts_and_keys():
    """Interning the vantage tuple changes no memo outcome: on the
    replay golden stream the live engine's ``cache_info()`` and the
    ``propagation.cache_*`` counters are those recorded when keys held
    the tuple, and every memo key is ``(origin, signature id, vantage
    id)``, three ints, also in engines derived after a policy flip and
    a new link, which inherit the vantage ids."""
    golden = json.loads(GOLDEN_PATH.read_text())["entry"]
    world = build_world(golden["scale"], golden["seed"])
    events = synthesize_events(
        world, n=golden["events"], seed=golden["event_seed"]
    )
    assert len(events) == len(GOLDEN_STREAM_MEMO)
    names = (
        "propagation.cache_hits",
        "propagation.cache_misses",
        "propagation.cache_evictions",
        "propagation.cache_seeded",
    )
    before = obs.counters()
    live = LiveWorld(world)
    for event, (info, moved) in zip(events, GOLDEN_STREAM_MEMO):
        live.apply(event)
        live.world()
        engine = live._engine
        after = obs.counters()
        assert tuple(engine.cache_info().values()) == info
        assert (
            tuple(after.get(name, 0) - before.get(name, 0) for name in names)
            == moved
        )
        assert all(map(_three_ints, engine._paths_cache))
    engine = live._engine
    asn = next(iter(world.policies))
    a, b = _unlinked_stubs(world)
    grown = world.topology.copy()
    grown.add_link(a, b, Relationship.PEER)
    derived = engine.derive(
        policies={asn: replace(world.policies[asn], rov=True)}
    ).derive(link=(a, b), topology=grown)
    assert derived._vantage_ids == engine._vantage_ids
    assert derived._paths_cache
    assert all(map(_three_ints, derived._paths_cache))


def test_replay_golden_file_shape():
    golden = json.loads(GOLDEN_PATH.read_text())["entry"]
    assert set(golden) == {
        "scale",
        "seed",
        "event_seed",
        "events",
        "checkpoints",
    }
    assert golden["checkpoints"], "golden pins at least one instant"
    for point in golden["checkpoints"]:
        assert set(point) == {"applied", "world_digest"}
        assert 1 <= point["applied"] <= golden["events"]
        assert len(point["world_digest"]) == 64


# -- repro.perf is gone (removal window closed) ------------------------------


def test_perf_shim_is_removed():
    assert not (SRC / "repro" / "perf.py").exists()
    result = subprocess.run(
        [sys.executable, "-c", "import repro.perf"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode != 0
    assert "ModuleNotFoundError" in result.stderr


def test_year_validators_carry_nothing_under_numpy(small_world):
    # The saturation sweep answers coverage from each year's interval
    # index and leaves the verdict memo empty, so no year has verdicts
    # to carry to its neighbour; each year is validated exactly once.
    from repro.scenario.timeline import Timeline

    validated = obs.counters().get("timeline.rov_years_validated", 0)
    timeline = Timeline(small_world)
    timeline.saturation_series()
    assert obs.counters().get("timeline.rov_years_validated", 0) == (
        validated + len(timeline.years)
    )
    assert all(
        not timeline.rov_at(year)._memo for year in timeline.years
    ), "the sweep must not fill the verdict memo"


# -- serving a live world at an instant (tentpole surface) -------------------


class RecordingAtBuilder:
    """Injectable ``build_at_fn``: records (job_id, at) per call."""

    def __init__(self):
        self.calls = []
        self._lock = threading.Lock()

    def __call__(self, job, at):
        with self._lock:
            self.calls.append((job.job_id, at))
        name = job.experiments[0]
        return {
            name: {"text": f"{name} at={at}", "sha256": "0" * 64}
        }


class TestServeAt:
    @pytest.fixture(autouse=True)
    def clean_obs(self):
        obs.reset()
        yield
        obs.reset()

    def test_result_key_changes_only_when_at_is_set(self):
        from repro.serve import result_key

        plain = result_key("fig2", 0.1, 3, {})
        assert result_key("fig2", 0.1, 3, {}, at=None) == plain
        dated = result_key("fig2", 0.1, 3, {}, at="2023-01-01")
        assert dated != plain
        assert result_key("fig2", 0.1, 3, {}, at="2023-06-01") != dated

    def test_at_routes_to_live_world_builder(self, tmp_path):
        from repro.serve import ReproService, http_get

        from tests.test_serve import CountingBuilder

        plain_builder = CountingBuilder()
        at_builder = RecordingAtBuilder()

        async def scenario():
            service = ReproService(
                store=CheckpointStore(tmp_path),
                build_fn=plain_builder,
                build_at_fn=at_builder,
                executor=ThreadPoolExecutor(max_workers=2),
            )
            await service.start(port=0)
            try:
                target = "/experiments/fig2?scale=0.1&seed=3&at=2023-01-01"
                status, headers, body = await http_get(
                    "127.0.0.1", service.port, target
                )
                assert status == 200
                payload = json.loads(body)
                # Same instant again: served from cache, no second build.
                status2, headers2, _body2 = await http_get(
                    "127.0.0.1", service.port, target
                )
                assert status2 == 200
                assert headers2["x-repro-key"] == headers["x-repro-key"]
                # A dateless request is a different key and a different
                # builder (the plain run_job path).
                status3, headers3, _body3 = await http_get(
                    "127.0.0.1",
                    service.port,
                    "/experiments/fig2?scale=0.1&seed=3",
                )
                assert status3 == 200
                assert headers3["x-repro-key"] != headers["x-repro-key"]
                status4, _headers4, body4 = await http_get(
                    "127.0.0.1",
                    service.port,
                    "/experiments/fig2?scale=0.1&seed=3&at=yesterday",
                )
                return payload, status4, body4
            finally:
                await service.stop()

        payload, bad_status, bad_body = asyncio.run(scenario())
        assert payload["at"] == "2023-01-01"
        assert payload["result"]["text"] == "fig2 at=2023-01-01"
        assert [at for _, at in at_builder.calls] == ["2023-01-01"]
        assert len(plain_builder.calls) == 1
        assert bad_status == 400
        assert b"bad at date" in bad_body
