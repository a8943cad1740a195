"""Property-based equivalence: columnar kernels vs pure-Python references.

Every kernel in ``repro.kernels`` is the only production path behind
its API, and must be byte-identical to the pure-Python loop it replaced.
Those loops stay in the source as oracles, and these tests call both
sides directly: on *generated* inputs, where Hypothesis explores corner
cases (empty inputs, duplicate prefixes, AS0 entries, shared covering
sets) a fixed world may never hit, and on the built ``small_world``.
The golden-digest suite pins the kernels end to end.

The oracles: the radix-trie classifier behind ``ROVValidator.validate``,
the bulk trie walk IRR validation falls back to for registries without
a mutation counter, ``_transit_groups_python``, scalar
``PropagationEngine.paths_to``, the per-prefix saturation loop
``_rpki_saturation_python`` and the bisect cover scan
``RouteCoverIndex._affected_python`` (tested in ``tests/test_delta.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bgp import propagation
from repro.bgp.collector import RouteGroup
from repro.bgp.policy import RouteClass
from repro.bgp.propagation import PropagationEngine
from repro.config import KERNEL_MODES, RuntimeConfig
from repro.core.impact import _rpki_saturation_python, rpki_saturation
from repro.ihr import pipeline
from repro.ihr.pipeline import (
    _transit_groups_numpy,
    _transit_groups_python,
    transit_groups_indexed,
)
from repro.irr.database import IRRDatabase
from repro.irr.objects import RouteObject
from repro.irr.validation import _classify_pending, validate_irr_many
from repro.kernels.intervals import union_address_count
from repro.net.prefix import Prefix, aggregate_address_count
from repro.registry.rir import RIR
from repro.rpki.roa import VRP
from repro.rpki.rov import ROVValidator
from repro.scenario.build import build_world
from repro.scenario.timeline import Timeline
from repro.topology.model import (
    ASCategory,
    ASTopology,
    AutonomousSystem,
    Organization,
    Relationship,
)

GOLDENS = Path(__file__).parent / "goldens" / "world_digests.json"


class Unversioned:
    """A registry without a mutation counter.

    IRR validation cannot memoise or index such a registry, so it walks
    the radix trie: the reference path the interval kernel must match.
    """

    def __init__(self, database: IRRDatabase):
        self._database = database

    def routes_covering(self, prefix: Prefix) -> list[RouteObject]:
        return self._database.routes_covering(prefix)

    def routes_covering_many(self, prefixes):
        return self._database.routes_covering_many(prefixes)


# -- strategies -------------------------------------------------------------

ASNS = st.integers(min_value=1, max_value=64)


@st.composite
def v4_prefixes(draw) -> Prefix:
    length = draw(st.integers(min_value=8, max_value=32))
    key = draw(st.integers(min_value=0, max_value=(1 << length) - 1))
    return Prefix(key << (32 - length), length, 4)


@st.composite
def v6_prefixes(draw) -> Prefix:
    length = draw(st.integers(min_value=16, max_value=64))
    key = draw(st.integers(min_value=0, max_value=(1 << length) - 1))
    return Prefix(key << (128 - length), length, 6)


PREFIXES = st.one_of(v4_prefixes(), v6_prefixes())


@st.composite
def vrps(draw) -> VRP:
    prefix = draw(PREFIXES)
    # AS0 entries exercise the "covers but never origin-matches" rule.
    asn = draw(st.one_of(st.just(0), ASNS))
    max_length = draw(st.integers(min_value=prefix.length, max_value=prefix.bits))
    return VRP(
        prefix=prefix, asn=asn, max_length=max_length, trust_anchor=RIR.RIPE
    )


ROUTES = st.lists(st.tuples(PREFIXES, ASNS), max_size=40)


# -- route classification ---------------------------------------------------


class TestClassificationEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(vrp_list=st.lists(vrps(), max_size=30), routes=ROUTES)
    def test_rov_interval_classify_matches_trie(self, vrp_list, routes):
        columnar = ROVValidator(vrp_list).validate_many(routes)
        trie = ROVValidator(vrp_list)
        assert columnar == {route: trie.validate(*route) for route in routes}
        # The covering-VRP bit behind saturation, both ways.
        prefixes = [prefix for prefix, _ in routes]
        assert ROVValidator(vrp_list).covered_space(prefixes) == [
            prefix for prefix in prefixes if trie.covering_vrps(prefix)
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        objects=st.lists(st.tuples(PREFIXES, ASNS), max_size=30),
        routes=ROUTES,
    )
    def test_irr_interval_classify_matches_trie(self, objects, routes):
        database = IRRDatabase("TEST")
        for prefix, origin in objects:
            database.add_route(
                RouteObject(prefix=prefix, origin=origin, source="TEST")
            )
        columnar = validate_irr_many(database, routes)
        reference = Unversioned(database)
        pending = list(dict.fromkeys(routes))
        assert columnar == dict(
            zip(pending, _classify_pending(reference, pending))
        )
        assert columnar == validate_irr_many(reference, routes)


# -- address-space accounting ----------------------------------------------


class TestUnionAddressCount:
    @settings(max_examples=80, deadline=None)
    @given(prefixes=st.lists(v4_prefixes(), max_size=40))
    def test_matches_aggregate_address_count(self, prefixes):
        ordered = sorted(prefixes, key=lambda p: (p.first, p.length))
        firsts = np.array([p.first for p in ordered], dtype=np.int64)
        lasts = np.array([p.last for p in ordered], dtype=np.int64)
        assert union_address_count(firsts, lasts) == aggregate_address_count(
            prefixes
        )


# -- hegemony transit groups ------------------------------------------------


@st.composite
def transit_scenarios(draw):
    """A tiny topology plus route groups whose paths stay inside it."""
    asns = draw(
        st.lists(
            st.integers(min_value=10, max_value=40),
            min_size=2,
            max_size=10,
            unique=True,
        )
    )
    topology = ASTopology()
    topology.add_org(Organization("ORG-T", "Test Org", "ZZ"))
    for asn in asns:
        topology.add_as(
            AutonomousSystem(
                asn=asn,
                org_id="ORG-T",
                country="ZZ",
                rir=RIR.RIPE,
                category=ASCategory.STUB,
            )
        )
    # Random provider→customer edges (drives the from-customer flags).
    pairs = [(a, b) for a in asns for b in asns if a != b]
    for a, b in draw(
        st.lists(st.sampled_from(pairs), max_size=6, unique=True)
    ):
        if b not in topology.neighbors(a):
            topology.add_link(a, b, Relationship.PROVIDER_CUSTOMER)
    member = st.sampled_from(asns)
    paths = st.lists(
        st.lists(member, min_size=2, max_size=6).map(tuple),
        min_size=1,
        max_size=8,
    )
    groups = []
    statuses = []
    for gi in range(draw(st.integers(min_value=1, max_value=4))):
        group_paths = {path[0]: path for path in draw(paths)}
        prefix = Prefix((10 << 24) + (gi << 8), 24, 4)
        groups.append(
            RouteGroup(
                origin=draw(member),
                route_class=RouteClass(),
                prefixes=(prefix,),
                paths=group_paths,
            )
        )
        statuses.append((("valid", "valid"),))
    return topology, groups, statuses


class TestTransitGroups:
    @settings(max_examples=50, deadline=None)
    @given(scenario=transit_scenarios())
    def test_numpy_matches_python(self, scenario):
        topology, groups, statuses = scenario
        reference = _transit_groups_python(groups, statuses, topology, 0.1)
        columnar = _transit_groups_numpy(groups, statuses, topology, 0.1)
        assert columnar == reference
        # Insertion order of each transits dict is part of the contract
        # (it feeds serialisation, hence the golden digests).
        for left, right in zip(columnar, reference):
            assert list(left.transits) == list(right.transits)

    @settings(max_examples=50, deadline=None)
    @given(scenario=transit_scenarios())
    def test_indexed_matches_python(self, scenario):
        topology, groups, statuses = scenario
        # Scoring each group alone tags the reference with its index.
        reference = [
            (index, transit_group)
            for index, (group, group_statuses) in enumerate(
                zip(groups, statuses)
            )
            for transit_group in _transit_groups_python(
                [group], [group_statuses], topology, 0.1
            )
        ]
        indexed = transit_groups_indexed(groups, statuses, topology, 0.1)
        assert indexed == reference
        for (_, left), (_, right) in zip(indexed, reference):
            assert list(left.transits) == list(right.transits)

    def test_partition_bound_is_an_identity(self, small_world, monkeypatch):
        """One group per partition scores what one partition scores."""
        visible = [group for group in small_world.rib.groups if group.paths]
        statuses = [(("valid", "valid"),) * len(g.prefixes) for g in visible]

        def scored(bound: int):
            monkeypatch.setattr(pipeline, "HEGEMONY_PARTITION_BYTES", bound)
            before = obs.counters().get("hegemony.partitions", 0)
            groups = _transit_groups_numpy(
                visible, statuses, small_world.topology, 0.1
            )
            return groups, obs.counters()["hegemony.partitions"] - before

        whole, one = scored(1 << 62)
        split, many = scored(1)
        assert (one, many) == (1, len(visible))
        assert split == whole
        for left, right in zip(split, whole):
            assert list(left.transits) == list(right.transits)


# -- batched propagation ----------------------------------------------------


class TestBatchPaths:
    def test_paths_to_many_matches_scalar(self, small_world):
        engine = PropagationEngine(
            small_world.topology, small_world.policies, paths_cache_size=0
        )
        keys = [
            (group.origin, group.route_class)
            for group in small_world.rib.groups
        ]
        batched = engine.paths_to_many(keys, small_world.vantage_points)
        for (origin, route_class), paths in zip(keys, batched):
            reference = engine.paths_to(
                origin, small_world.vantage_points, route_class
            )
            assert paths == reference
            assert list(paths) == list(reference)

    def test_one_origin_batches_match_scalar(self, small_world, monkeypatch):
        """The batch bound is an identity: one origin per ``batch_paths``
        call resolves what scalar ``paths_to`` does, key by key."""
        monkeypatch.setattr(propagation, "BATCH_ORIGINS", 1)
        batched_engine = PropagationEngine(
            small_world.topology, small_world.policies, paths_cache_size=0
        )
        scalar_engine = PropagationEngine(
            small_world.topology, small_world.policies, paths_cache_size=0
        )
        keys = [
            (group.origin, group.route_class)
            for group in small_world.rib.groups
        ]
        before = obs.counters().get("propagation.batches", 0)
        batched = batched_engine.paths_to_many(keys, small_world.vantage_points)
        assert obs.counters()["propagation.batches"] - before == len(
            {(origin, batched_engine.signature_id(rc)) for origin, rc in keys}
        )
        for (origin, route_class), paths in zip(keys, batched):
            reference = scalar_engine.paths_to(
                origin, small_world.vantage_points, route_class
            )
            assert paths == reference
            assert list(paths) == list(reference)

    def test_cached_replay_matches_scalar(self, small_world):
        cached = PropagationEngine(small_world.topology, small_world.policies)
        scalar = PropagationEngine(small_world.topology, small_world.policies)
        keys = [
            (group.origin, group.route_class)
            for group in small_world.rib.groups[:64]
        ]
        keys = keys + keys  # replay: second half must come from the cache
        batched = cached.paths_to_many(keys, small_world.vantage_points)
        # At least the duplicated half hits (distinct RouteClass values
        # may share a filter signature, so there can be a few more).
        assert cached.cache_info()["hits"] >= len(keys) // 2
        for (origin, route_class), paths in zip(keys, batched):
            assert paths == scalar.paths_to(
                origin, small_world.vantage_points, route_class
            )


# -- timeline ---------------------------------------------------------------


class TestEndToEndEquivalence:
    def test_saturation_series_matches(self, small_world):
        timeline = Timeline(small_world)
        series = timeline.saturation_series()
        assert [point.year for point in series] == timeline.years
        for point in series:
            members = small_world.manrs.member_asns(
                as_of=timeline._year_end(point.year)
            )
            rov = timeline.rov_at(point.year)
            reference = _rpki_saturation_python(
                small_world.prefix2as, rov, members
            )
            assert (
                rpki_saturation(small_world.prefix2as, rov, members)
                == reference
            )
            assert point.manrs_saturation == reference[0].saturation
            assert point.other_saturation == reference[1].saturation

    @pytest.mark.parametrize("mode", KERNEL_MODES)
    def test_golden_digest_per_mode(self, mode):
        from repro.datasets.checkpoint import world_digest

        entry = next(
            e
            for e in json.loads(GOLDENS.read_text())["entries"]
            if e["scale"] == 0.05
        )
        world = build_world(
            entry["scale"], entry["seed"], runtime=RuntimeConfig(kernels=mode)
        )
        assert world_digest(world) == entry["world_digest"]
