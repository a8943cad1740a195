"""Property-based equivalence: columnar kernels vs pure-Python references.

Every kernel in ``repro.kernels`` is the only production path behind
its API, and must be byte-identical to the pure-Python loop it replaced.
Those loops stay as oracles, and these tests call both sides directly:
on *generated* inputs, where Hypothesis explores corner cases (empty
inputs, duplicate prefixes, AS0 entries, shared covering sets) a fixed
world may never hit, and on the built ``small_world``.
The golden-digest suite pins the kernels end to end.

The oracles: the radix-trie classifier behind ``ROVValidator.validate``,
the per-route classification IRR validation falls back to for
registries without a mutation counter, scalar ``PropagationEngine.paths_to`` and the bisect
cover scan ``RouteCoverIndex._affected_python`` (tested in
``tests/test_delta.py``) stay in the source; the per-group transit
scoring loop ``_transit_groups_python``, the per-prefix saturation
and routed-share loops ``_rpki_saturation_python`` and
``_routed_space_share_python``, and the object-path prefix2as v4
columns ``_v4_columns_python`` are test code, defined here.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bgp import propagation
from repro.bgp.collector import (
    Group,
    GroupPaths,
    RibSnapshot,
    RouteRows,
    assemble_rib,
    collect_rib,
)
from repro.bgp.policy import ROUTE_CLASSES, RouteClass
from repro.bgp.propagation import PropagationEngine
from repro.bgp.table import Prefix2AS, parse_prefix2as, serialize_prefix2as
from repro.config import KERNEL_MODES, RuntimeConfig
from repro.core.impact import SaturationReport, rpki_saturation
from repro.datasets.checkpoint import CheckpointStore
from repro.delta import live
from repro.experiments.registry import REGISTRY
from repro.hegemony.scores import DEFAULT_TRIM, hegemony_scores
from repro.ihr import pipeline
from repro.ihr.pipeline import assemble_ihr
from repro.irr.database import IRRDatabase
from repro.irr.objects import RouteObject
from repro.irr.validation import (
    _STATUS_BY_CODE as IRR_BY_CODE,
    IRRStatus,
    _classify,
    validate_irr_many,
    validate_irr_rows,
)
from repro.kernels.intervals import (
    INVALID_LENGTH,
    INVALID_ORIGIN,
    route_key_columns,
    union_address_count,
)
from repro.net.asn import strip_prepending
from repro.net.prefix import Prefix, aggregate_address_count, prefixes_from_columns
from repro.registry.rir import RIR
from repro.rpki.roa import VRP
from repro.rpki.rov import _STATUS_BY_CODE as RPKI_BY_CODE
from repro.rpki.rov import ROVValidator, RPKIStatus
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

    IRR validation cannot memoise or index such a registry, so it
    classifies each route from the column lookup's covering objects
    (``_classify`` over ``routes_covering``): the reference path the
    interval kernel must match.
    """

    def __init__(self, database: IRRDatabase):
        self._database = database

    def routes_covering(self, prefix: Prefix) -> list[RouteObject]:
        return self._database.routes_covering(prefix)


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
        assert columnar == {
            route: _classify(reference.routes_covering(route[0]), *route)
            for route in routes
        }
        assert columnar == validate_irr_many(reference, routes)


@st.composite
def registries_and_routes(draw):
    """VRPs and route objects, and routes that probe their edges: each
    entry's own prefix and one bit more specific, under its own ASN
    and another, besides random routes."""
    vrp_list = draw(st.lists(vrps(), max_size=20))
    objects = draw(st.lists(st.tuples(PREFIXES, ASNS), max_size=20))
    routes = list(draw(ROUTES))
    entries = [(vrp.prefix, vrp.asn, vrp.max_length) for vrp in vrp_list]
    entries += [(prefix, origin, prefix.length) for prefix, origin in objects]
    for prefix, asn, max_length in entries:
        for length in {prefix.length, max_length, max_length + 1}:
            if length > prefix.bits:
                continue
            probe = Prefix(prefix.value, length, prefix.version)
            routes += [(probe, asn), (probe, draw(ASNS))]
    return vrp_list, objects, routes


class TestRowClassifier:
    """``validate_rows``/``validate_irr_rows`` over a route table's
    integer columns against the per-route references: the radix-trie
    ``ROVValidator.validate`` and the IRR ``_classify`` over the
    covering objects.  The route-class flags are column reductions of
    the codes, and an IRR INVALID_LENGTH is not IRR-invalid."""

    @settings(max_examples=80, deadline=None)
    @given(case=registries_and_routes())
    def test_rows_match_per_route_references(self, case):
        vrp_list, objects, routes = case
        database = IRRDatabase("TEST")
        for prefix, origin in objects:
            database.add_route(
                RouteObject(prefix=prefix, origin=origin, source="TEST")
            )
        columns = route_key_columns(routes)
        trie = ROVValidator(vrp_list)
        rov = ROVValidator(vrp_list)
        rpki = rov.validate_rows(routes, columns)
        irr = validate_irr_rows(database, routes, columns)
        reference = Unversioned(database)
        rpki_reference = [trie.validate(*route) for route in routes]
        irr_reference = [
            _classify(reference.routes_covering(route[0]), *route)
            for route in routes
        ]
        assert [RPKI_BY_CODE[code] for code in rpki.tolist()] == rpki_reference
        assert [IRR_BY_CODE[code] for code in irr.tolist()] == irr_reference
        assert (rpki >= INVALID_LENGTH).tolist() == [
            status.is_invalid for status in rpki_reference
        ]
        assert (irr == INVALID_ORIGIN).tolist() == [
            status is IRRStatus.INVALID_ORIGIN for status in irr_reference
        ]
        # Every route is memoised with its verdict.
        assert rov._memo == dict(zip(routes, rpki_reference))
        assert validate_irr_many(database, routes) == dict(
            zip(routes, irr_reference)
        )

    def test_edges_are_covered(self):
        """The strategy's edge probes reach every verdict the flags
        tell apart, AS0 and both address families included."""
        as0 = VRP(Prefix.parse("10.0.0.0/16"), 0, 24, RIR.RIPE)
        vrp = VRP(Prefix.parse("2001:db8::/32"), 5, 48, RIR.RIPE)
        routes = [
            (Prefix.parse("10.0.1.0/24"), 0),
            (Prefix.parse("2001:db8::/48"), 5),
            (Prefix.parse("2001:db8::/49"), 5),
            (Prefix.parse("2001:db8::/48"), 6),
            (Prefix.parse("11.0.0.0/8"), 5),
        ]
        codes = ROVValidator([as0, vrp]).validate_rows(
            routes, route_key_columns(routes)
        )
        assert [RPKI_BY_CODE[code] for code in codes.tolist()] == [
            RPKIStatus.INVALID_ASN,
            RPKIStatus.VALID,
            RPKIStatus.INVALID_LENGTH,
            RPKIStatus.INVALID_ASN,
            RPKIStatus.NOT_FOUND,
        ]
        database = IRRDatabase("TEST")
        database.add_route(
            RouteObject(prefix=Prefix.parse("10.0.0.0/16"), origin=5, source="TEST")
        )
        routes = [
            (Prefix.parse("10.0.0.0/16"), 5),
            (Prefix.parse("10.0.0.0/17"), 5),
            (Prefix.parse("10.0.0.0/17"), 6),
        ]
        codes = validate_irr_rows(database, routes, route_key_columns(routes))
        assert [IRR_BY_CODE[code] for code in codes.tolist()] == [
            IRRStatus.VALID,
            IRRStatus.INVALID_LENGTH,
            IRRStatus.INVALID_ORIGIN,
        ]
        assert (codes == INVALID_ORIGIN).tolist() == [False, False, True]


# -- route grouping ---------------------------------------------------------


def _collector_topology() -> ASTopology:
    """1 provides transit to 2 and 3, 2 to 4; 3 peers with 4."""
    topology = ASTopology()
    topology.add_org(Organization("ORG-T", "Test Org", "ZZ"))
    for asn in (1, 2, 3, 4):
        topology.add_as(
            AutonomousSystem(
                asn=asn,
                org_id="ORG-T",
                country="ZZ",
                rir=RIR.RIPE,
                category=ASCategory.STUB,
            )
        )
    topology.add_link(1, 2, Relationship.PROVIDER_CUSTOMER)
    topology.add_link(1, 3, Relationship.PROVIDER_CUSTOMER)
    topology.add_link(2, 4, Relationship.PROVIDER_CUSTOMER)
    topology.add_link(3, 4, Relationship.PEER)
    return topology


#: A few prefixes of both families, so draws repeat and interleave them.
POOL = (
    Prefix.parse("10.0.0.0/8"),
    Prefix.parse("10.0.0.0/16"),
    Prefix.parse("10.1.0.0/16"),
    Prefix.parse("2001:db8::/32"),
    Prefix.parse("2001:db8::/48"),
    Prefix.parse("192.0.2.0/24"),
)


def _dict_grouping(routes) -> list:
    """The grouping ``collect_rib`` did before it sorted rows: a dict
    of each (origin, route class)'s prefixes, keys sorted by origin
    then class flags, each group's distinct prefixes sorted."""
    grouped: dict = {}
    for prefix, origin, route_class in routes:
        grouped.setdefault((origin, route_class), []).append(prefix)
    keys = sorted(
        grouped, key=lambda key: (key[0], key[1].rpki_invalid, key[1].irr_invalid)
    )
    return [(key, sorted(set(grouped[key]))) for key in keys]


class TestRowGrouping:
    @settings(max_examples=80, deadline=None)
    @given(
        routes=st.lists(
            st.tuples(
                # A fresh, equal object per draw: duplicates keep the
                # first one, as a set did.
                st.sampled_from(POOL).map(
                    lambda p: Prefix(p.value, p.length, p.version)
                ),
                st.sampled_from([2, 3, 4]),
                st.sampled_from(sorted(ROUTE_CLASSES.values())),
            ),
            max_size=30,
        )
    )
    def test_lexsort_groups_like_the_dict_grouping(self, routes):
        engine = PropagationEngine(_collector_topology())
        rib = collect_rib(engine, RouteRows.of(routes), [1, 3])
        reference = _dict_grouping(routes)
        groups = rib.groups()
        assert [
            ((group.origin, group.route_class), list(group.prefixes))
            for group in groups
        ] == reference
        for group, (_, prefixes) in zip(groups, reference):
            assert all(a is b for a, b in zip(group.prefixes, prefixes))
        expected = assemble_rib(
            (1, 3),
            [
                Group(
                    origin,
                    route_class,
                    prefixes,
                    engine.paths_to(origin, (1, 3), route_class),
                )
                for (origin, route_class), prefixes in reference
            ],
        )
        for name, column in expected.arrays.items():
            assert rib.arrays[name].dtype == column.dtype, name
            assert rib.arrays[name].tobytes() == column.tobytes(), name


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
    for gi in range(draw(st.integers(min_value=1, max_value=4))):
        group_paths = {path[0]: path for path in draw(paths)}
        prefix = Prefix((10 << 24) + (gi << 8), 24, 4)
        groups.append(Group(draw(member), RouteClass(), (prefix,), group_paths))
    return topology, groups


def _rib(groups: list[Group]) -> RibSnapshot:
    """The snapshot of ``groups``, through the production builder."""
    return assemble_rib(
        sorted({vp for *_, paths in groups for vp in paths}), groups
    )


def _transit_groups_python(
    visible: list[Group], topology: ASTopology, trim: float
) -> list[tuple[tuple[Prefix, ...], int, list[tuple[int, float, bool]]]]:
    """The reference per-group transit scoring loop.

    For each group with transit scores, in order: its prefixes, its
    origin and its ``(asn, hegemony, from_customer)`` rows in the
    insertion order of ``hegemony_scores``.  The columnar reduction
    behind both the build (``_partitioned_rows``) and the live world's
    re-scoring (``live._transit_rows``) must match it exactly.
    """
    # Materialise customer sets once: ASTopology.customers_of copies a
    # frozenset per call, far too slow for millions of path positions.
    customers_of = {asn: topology.customers_of(asn) for asn in topology.asns}
    groups = []
    for origin, _, prefixes, paths in visible:
        stripped = [strip_prepending(path) for path in paths.values()]
        scores = hegemony_scores(stripped, trim=trim, prestripped=True)
        if not scores:
            continue
        learned = _customer_learning(stripped, customers_of)
        groups.append(
            (
                prefixes,
                origin,
                [
                    (asn, score, learned.get(asn, False))
                    for asn, score in scores.items()
                ],
            )
        )
    return groups


def _customer_learning(
    stripped_paths: list[tuple[int, ...]],
    customers_of: dict[int, frozenset[int]],
) -> dict[int, bool]:
    """For each on-path AS, did it learn the route from a direct customer?

    Paths arrive prepending-stripped.  On a path ``(vp, ..., t, next, ...,
    origin)`` the AS after ``t`` (toward the origin) is the neighbour ``t``
    accepted the route from; the flag is set when that neighbour is
    ``t``'s customer.  The propagation engine gives every AS a single
    selected route, so the flag is consistent across paths.
    """
    learned: dict[int, bool] = {}
    for stripped in stripped_paths:
        for position in range(1, len(stripped) - 1):
            transit = stripped[position]
            if transit in learned:
                continue
            toward_origin = stripped[position + 1]
            learned[transit] = toward_origin in customers_of[transit]
    return learned


def _assembled(rib: RibSnapshot, rows) -> list:
    """The transit groups of the tables assembled from hegemony
    ``rows``, in the form :func:`_transit_groups_python` returns."""
    statuses = defaultdict(lambda: RPKIStatus.VALID)
    columns = assemble_ihr(rib, statuses, statuses, rows).arrays
    prefix_offsets = columns["tg_offsets"].tolist()
    transit_offsets = columns["tr_offsets"].tolist()
    transits = list(
        zip(
            columns["tr_asn"].tolist(),
            columns["tr_hegemony"].tolist(),
            columns["tr_from_customer"].tolist(),
        )
    )
    return [
        (
            tuple(
                prefixes_from_columns(
                    columns,
                    "tg_prefix",
                    slice(prefix_offsets[g], prefix_offsets[g + 1]),
                )
            ),
            origin,
            transits[transit_offsets[g]:transit_offsets[g + 1]],
        )
        for g, origin in enumerate(columns["tg_origin"].tolist())
    ]


class TestTransitGroups:
    @settings(max_examples=50, deadline=None)
    @given(scenario=transit_scenarios())
    def test_numpy_matches_python(self, scenario):
        """The build path, whole and one group per partition."""
        topology, groups = scenario
        rib = _rib(groups)
        reference = _transit_groups_python(groups, topology, 0.1)
        for bound in (pipeline.HEGEMONY_PARTITION_BYTES, 1):
            with patch.object(pipeline, "HEGEMONY_PARTITION_BYTES", bound):
                rows = pipeline._partitioned_rows(rib, topology, 0.1)
            assert _assembled(rib, rows) == reference

    @settings(max_examples=50, deadline=None)
    @given(scenario=transit_scenarios(), data=st.data())
    def test_indexed_matches_python(self, scenario, data):
        """The live world's miss path: a subset of groups scored in one
        reduction, split per group, and joined back in group order."""
        topology, groups = scenario
        misses = sorted(
            data.draw(
                st.lists(
                    st.sampled_from(range(len(groups))), unique=True, min_size=1
                )
            )
        )
        missed = [groups[index] for index in misses]
        reference = _transit_groups_python(missed, topology, DEFAULT_TRIM)
        per_group = live._transit_rows(_rib(groups), misses, topology)
        assert [
            (prefixes, origin, list(zip(*(c.tolist() for c in rows))))
            for (origin, _, prefixes, _), rows in zip(missed, per_group)
            if len(rows[0])
        ] == reference
        assert (
            _assembled(_rib(missed), live._joined_rows(per_group)) == reference
        )

    def test_partition_bound_is_an_identity(self, small_world, monkeypatch):
        """One group per partition scores what one partition scores."""
        visible = int(small_world.rib.visible().sum())

        def scored(bound: int):
            monkeypatch.setattr(pipeline, "HEGEMONY_PARTITION_BYTES", bound)
            before = obs.counters().get("hegemony.partitions", 0)
            rows = pipeline._partitioned_rows(
                small_world.rib, small_world.topology, 0.1
            )
            return (
                [column.tolist() for column in rows],
                obs.counters()["hegemony.partitions"] - before,
            )

        whole, one = scored(1 << 62)
        split, many = scored(1)
        assert (one, many) == (1, visible)
        assert split == whole


# -- batched propagation ----------------------------------------------------


def _group_keys(rib: RibSnapshot) -> list[tuple[int, RouteClass]]:
    """Each route group's ``(origin, route class)`` key, in order."""
    return list(zip(rib.arrays["rib_origin"].tolist(), rib.route_classes()))


class TestBatchPaths:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_views_read_like_scalar_paths(self, small_world, data):
        """``paths_to_many``'s results are views over its batches'
        columns that read as scalar ``paths_to`` does (equal, same
        order, same length), with one origin per batch and with the
        default bound, memo on and off."""
        origins = sorted(set(small_world.rib.arrays["rib_origin"].tolist()))
        keys = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(origins),
                    st.sampled_from(sorted(ROUTE_CLASSES.values())),
                ),
                min_size=1,
                max_size=40,
            )
        )
        vantage_points = small_world.vantage_points
        scalar = PropagationEngine(
            small_world.topology, small_world.policies, paths_cache_size=0
        )
        expected = [
            scalar.paths_to(origin, vantage_points, route_class)
            for origin, route_class in keys
        ]
        for bound in (1, propagation.BATCH_ORIGINS):
            for size in (0, None):
                engine = PropagationEngine(
                    small_world.topology,
                    small_world.policies,
                    paths_cache_size=size,
                )
                with patch.object(propagation, "BATCH_ORIGINS", bound):
                    views = engine.paths_to_many(keys, vantage_points)
                for view, reference in zip(views, expected):
                    assert isinstance(view, GroupPaths)
                    assert view == reference
                    assert list(view) == list(reference)
                    assert list(view.items()) == list(reference.items())
                    assert len(view) == len(reference)


    def test_paths_to_many_matches_scalar(self, small_world):
        engine = PropagationEngine(
            small_world.topology, small_world.policies, paths_cache_size=0
        )
        keys = _group_keys(small_world.rib)
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
        keys = _group_keys(small_world.rib)
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
        keys = _group_keys(small_world.rib)[:64]
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


def _rpki_saturation_python(
    prefix2as, rov: ROVValidator, member_asns: frozenset[int]
) -> tuple[SaturationReport, SaturationReport]:
    """The per-prefix reference for ``rpki_saturation``.

    Buckets each origin's IPv4 prefixes by population, asks the radix
    trie whether any VRP covers each one, and aggregates the address
    counts.  The columnar path must match it exactly.
    """
    member_prefixes: list[Prefix] = []
    other_prefixes: list[Prefix] = []
    for asn in prefix2as.origin_asns:
        bucket = member_prefixes if asn in member_asns else other_prefixes
        bucket.extend(p for p in prefix2as.prefixes_of(asn) if p.version == 4)
    return (
        _saturation_of(member_prefixes, rov),
        _saturation_of(other_prefixes, rov),
    )


def _saturation_of(prefixes: list[Prefix], rov: ROVValidator) -> SaturationReport:
    covered = [prefix for prefix in prefixes if rov.covering_vrps(prefix)]
    return SaturationReport(
        routed_space=aggregate_address_count(prefixes),
        covered_space=aggregate_address_count(covered),
    )


def _routed_space_share_python(
    topology, manrs, prefix2as, as_of
) -> dict[RIR, float]:
    """The per-prefix reference for ``routed_space_share_by_rir``.

    Buckets each member's IPv4 prefixes by the member's RIR and
    aggregates each bucket's address count against the whole table's.
    The columnar path must match it exactly.
    """
    total = aggregate_address_count(
        prefix for prefix in prefix2as.prefixes if prefix.version == 4
    )
    if total == 0:
        return {rir: 0.0 for rir in RIR}
    by_rir: dict[RIR, list[Prefix]] = {rir: [] for rir in RIR}
    for asn in manrs.member_asns(as_of=as_of):
        if asn in topology:
            by_rir[topology.get_as(asn).rir].extend(
                prefix for prefix in prefix2as.prefixes_of(asn) if prefix.version == 4
            )
    return {
        rir: 100.0 * aggregate_address_count(prefixes) / total
        for rir, prefixes in by_rir.items()
    }


def _v4_columns_python(prefix2as) -> dict[str, np.ndarray]:
    """The object-path reference for ``Prefix2AS.v4_columns``.

    Each origin's v4 prefixes in the origin index's (ASN, prefix) order,
    then a stable sort by (first address, length), so the origins of a
    shared prefix stay in ASN order.  The columns gathered from the
    RIB's integer rows must match it field for field.
    """
    index = prefix2as._origin_index()
    rows = [
        (asn, prefix)
        for asn in sorted(index)
        for prefix in index[asn]
        if prefix.version == 4
    ]
    origins = np.array([asn for asn, _ in rows], dtype=np.int64)
    prefixes = [prefix for _, prefix in rows]
    firsts = np.array([p.first for p in prefixes], dtype=np.int64)
    lasts = np.array([p.last for p in prefixes], dtype=np.int64)
    values = np.array([p.value for p in prefixes], dtype=np.uint64)
    lengths = np.array([p.length for p in prefixes], dtype=np.int64)
    order = np.lexsort((lengths, firsts))
    packed = firsts[order] * np.int64(64) + lengths[order]
    _, first_at, inverse = np.unique(packed, return_index=True, return_inverse=True)
    return {
        "origins": origins[order],
        "firsts": firsts[order],
        "lasts": lasts[order],
        "unique_values": values[order][first_at],
        "unique_lengths": lengths[order][first_at],
        "unique_inverse": inverse,
    }


class TestPrefix2ASColumns:
    @pytest.fixture(scope="class")
    def reopened(self, small_world, tmp_path_factory):
        store = CheckpointStore(tmp_path_factory.mktemp("store"))
        store.save(small_world)
        return store.load(small_world.config, small_world.scale, small_world.seed)

    def test_v4_columns_match_the_object_path(self, small_world, reopened):
        parsed = parse_prefix2as(serialize_prefix2as(small_world.prefix2as))
        for mapping in (
            Prefix2AS.from_rib(small_world.rib),
            Prefix2AS.from_rib(reopened.rib),
            parsed,
        ):
            columns = mapping.v4_columns()
            reference = _v4_columns_python(mapping)
            assert len(reference["origins"]) > 0
            for name, expected in reference.items():
                actual = getattr(columns, name)
                assert actual.dtype == expected.dtype, name
                assert np.array_equal(actual, expected), name

    def test_fig4_and_f70_never_build_the_origin_map(self, small_world, reopened):
        expected = {
            name: REGISTRY[name].render(REGISTRY[name].run(small_world))
            for name in ("fig4", "f70")
        }

        def origin_map(self):
            raise AssertionError("the prefix2as origin map was built")

        with patch.object(Prefix2AS, "_origin_map", origin_map):
            for name, text in expected.items():
                spec = REGISTRY[name]
                assert spec.render(spec.run(reopened)) == text, name


class TestEndToEndEquivalence:
    def test_routed_share_series_matches(self, small_world):
        timeline = Timeline(small_world)
        series = timeline.routed_share_series()
        for index, year in enumerate(timeline.years):
            reference = _routed_space_share_python(
                small_world.topology,
                small_world.manrs,
                small_world.prefix2as,
                timeline._year_end(year),
            )
            assert {rir: points[index] for rir, points in series.items()} == {
                rir: (year, share) for rir, share in reference.items()
            }
        assert any(share for points in series.values() for _, share in points)

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
