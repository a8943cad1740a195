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
twice: paths adopted across a peer link against an uncached engine,
and the re-propagation and re-scoring counts after a stub–stub link.

The satellites ride along: the ``repro.perf`` removal-window guards, the
tampered year-snapshot counter, and the serving layer's ``at=``
live-world hook.
"""

from __future__ import annotations

import asyncio
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

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.bgp.collector import RibSnapshot
from repro.bgp.propagation import PropagationEngine
from repro.datasets.checkpoint import (
    CheckpointStore,
    checkpoint_key,
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
from repro.errors import DeltaError
from repro.experiments.registry import REGISTRY
from repro.irr.validation import _classify as classify_irr
from repro.irr.validation import validate_irr
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


def test_every_event_kind_checkpoints_equal_cold_rebuild():
    """One event of each kind, digest-checked at every instant."""
    world = delta_world()
    events = synthesize_events(world, kinds=list(EVENT_KINDS), seed=13)
    live = LiveWorld(world)
    for applied, event in enumerate(events, start=1):
        live.apply(event)
        assert dataset_digests(live.world()) == dataset_digests(
            cold_rebuild(world, events[:applied])
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
        for asn in sorted({group.origin for group in world.rib.groups})
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
    """Paths adopted across a new peer link, skipping both endpoints'
    customer cones, are what an uncached engine computes; adopting every
    path is not (the control that shows this test can fail)."""
    topology, policies = small_world.topology, small_world.policies
    vantage_points = small_world.vantage_points
    keys = [(group.origin, group.route_class) for group in small_world.rib.groups]
    previous = PropagationEngine(topology, policies)
    previous.paths_to_many(keys, vantage_points)
    large = _largest_unlinked_pair(topology)
    stubs = _unlinked_stubs(small_world)
    for a, b in (large, stubs):
        grown = topology.copy()
        grown.add_link(a, b, Relationship.PEER)
        cones = grown.customer_cone(a) | grown.customer_cone(b)
        expected = _paths_in_order(
            PropagationEngine(grown, policies, paths_cache_size=0),
            keys,
            vantage_points,
        )
        adopting = PropagationEngine(grown, policies)
        assert adopting.adopt_cache(previous, cones) > 0
        assert _paths_in_order(adopting, keys, vantage_points) == expected, (a, b)
        if (a, b) == large:
            careless = PropagationEngine(grown, policies)
            careless.adopt_cache(previous)
            assert _paths_in_order(careless, keys, vantage_points) != expected


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
        group.origin in (a, b) for group in small_world.rib.groups
    )
    assert stub_groups > 0
    assert moved("delta.transit_misses") == 0
    assert moved("delta.transit_hits") > 0
    assert moved("propagation.cache_misses") == stub_groups


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
        groups = list(rebuilt.rib.groups)
        i = next(i for i, group in enumerate(groups) if group.paths)
        vp, path = next(iter(groups[i].paths.items()))
        groups[i] = replace(
            groups[i], paths={**groups[i].paths, vp: (path[0] + 1, *path[1:])}
        )
        rib = RibSnapshot(rebuilt.rib.vantage_points, groups)
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


# -- tampered year snapshots are counted (satellite 4) -----------------------


def test_tampered_year_sidecar_counts_as_corrupt(tmp_path, small_world):
    from repro.scenario.timeline import Timeline

    store = CheckpointStore(tmp_path)
    first = Timeline(small_world, store=store)
    year = first.years[0]
    fresh = first.rov_at(year)
    key = checkpoint_key(
        small_world.config, small_world.scale, small_world.seed
    )
    path = store.year_path(key, year)
    assert path.is_file()
    path.write_text(path.read_text() + "# tampered\n")

    before = obs.counters().get("timeline.rov_years_corrupt", 0)
    second = Timeline(small_world, store=store)
    recovered = second.rov_at(year)
    after = obs.counters().get("timeline.rov_years_corrupt", 0)
    assert after == before + 1, "tampered snapshot must be counted"
    vrp_key = lambda v: (v.prefix, v.asn, v.max_length)  # noqa: E731
    assert sorted(recovered.all_vrps(), key=vrp_key) == sorted(
        fresh.all_vrps(), key=vrp_key
    )
    # The corrupt file is unlinked, then re-validation re-saves a clean
    # snapshot at the same path: it must verify on the next load.
    assert path.is_file()
    assert "# tampered" not in path.read_text()
    assert store.load_year_vrps(key, year, strict=True) is not None


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
