"""The live world: incremental recomputation under an event stream.

:class:`LiveWorld` wraps a built :class:`~repro.scenario.world.World`
and applies :mod:`repro.delta.events` one at a time, re-deriving only
what each event can affect:

* **RPKI events** take their VRP delta from the event: the relying
  party evaluates that one ROA at the live instant
  (:meth:`~repro.rpki.validator.IncrementalRelyingParty.vrp_at`), the
  successor :class:`~repro.rpki.rov.ROVValidator` is the current VRP
  list with that VRP appended or one equal copy removed, and only the
  routes its prefix covers (:class:`~repro.delta.cover.RouteCoverIndex`)
  are re-validated.  :meth:`LiveWorld.advance_to` reaches the same step
  through one full (plan-cached) relying-party run and one multiset
  diff (:func:`~repro.delta.cover.vrp_delta`).
* **IRR events** re-validate the cover set of the edited object's
  prefix route by route through the registry's memoised trie path; no
  registry-wide index is rebuilt.
* **Membership events** touch nothing derived (the participants dataset
  serialises straight from the registry).
* **Topology events** rebuild the propagation engine and mark size
  classes stale.  After a new *peer* link the engine adopts every cached
  path whose origin lies outside both endpoints' customer cones: only
  ASes holding a customer or origin route export over a peer link, and
  for an origin those are the origin and its transitive providers, so
  no route toward an origin outside both cones can cross the link.  A
  new provider–customer link invalidates every cached path.
* **Policy flips** rebuild the engine against the new policy table but
  adopt every cached path whose effective-filter signature is unchanged
  (:meth:`~repro.bgp.propagation.PropagationEngine.adopt_cache`).

No event copies a table-sized memo: :meth:`LiveWorld.world` seeds the
materialised world's ROV and IRR memos once per state, from the live
verdict maps that hold every table route's current verdict.

Verdict changes *regroup* routes among (origin, route class) buckets;
:meth:`LiveWorld.world` then materialises a full ``World`` by replaying
exactly the builder's collection and IHR derivation over the current
buckets — propagation comes from the engine memo and transit scoring
from a per-group cache that re-scores a group only when its paths
changed — and assembles it through
:meth:`~repro.delta.events.DeltaState.world`, as the cold rebuild does.
Both caches start warm: the constructor seeds the engine memo from the
base world's RIB and the transit cache from its RIB and IHR tables, so
a checkpoint re-derives only the groups the events reached.
The result must digest-equal :func:`~repro.delta.rebuild.cold_rebuild`
of the same events, which runs the builder's own
:func:`~repro.scenario.build.derive_measurements` — the replay==rebuild
invariant pinned by ``tests/test_delta.py`` and by the ``replay`` axis
of ``tests/test_parity.py``.
"""

from __future__ import annotations

from datetime import date
from typing import Collection

from repro import obs
from repro.bgp.collector import RibSnapshot, RouteGroup
from repro.bgp.policy import ROUTE_CLASSES, RouteClass
from repro.bgp.propagation import PropagationEngine
from repro.bgp.table import Prefix2AS
from repro.delta.cover import RouteCoverIndex, vrp_delta
from repro.delta.events import (
    DeltaState,
    Event,
    LinkAdded,
    RoaExpired,
    RoaIssued,
    apply_raw,
)
from repro.ihr.pipeline import transit_groups_indexed
from repro.ihr.records import (
    IHRDataset,
    PrefixOriginRecord,
    TransitGroup,
    TransitInfo,
)
from repro.irr.validation import (
    IRRStatus,
    seed_memo,
    validate_irr,
    validate_irr_many,
)
from repro.net.prefix import Prefix
from repro.rpki.roa import VRP
from repro.rpki.rov import ROVValidator
from repro.rpki.validator import IncrementalRelyingParty
from repro.scenario.build import Measurements, route_table
from repro.scenario.world import World
from repro.topology.model import ASTopology, Relationship

__all__ = ["LiveWorld", "run_job_at"]

#: A group's vantage-point paths and their transit scores (None when no
#: path has a transit AS).
_TransitEntry = tuple[dict[int, tuple[int, ...]], dict[int, TransitInfo] | None]


class LiveWorld:
    """A world plus an event cursor, materialisable at any instant."""

    def __init__(self, base: World):
        self._base = base
        self._state = DeltaState.from_world(base)
        self._date: date = base.config.snapshot_date
        self._rp = IncrementalRelyingParty(self._state.repository)
        # The base validator is reused as-is until the first VRP change:
        # its VRP set is exactly what the relying party emits for the
        # unmutated repository.  Successors are always new validators,
        # so neither it nor one an earlier world() handed out ever
        # changes its VRP set.
        self._rov: ROVValidator = base.rov
        self._routes = route_table(base.originations)
        self._cover = RouteCoverIndex(self._routes)
        with obs.span("delta.init", routes=len(self._routes)):
            self._rpki_status = dict(base.rov.validate_many(self._routes))
            self._irr_status = dict(validate_irr_many(base.irr, self._routes))
        # Set while the current validator's (the cloned registry's) memo
        # holds every table verdict.  The base validator's is warm from
        # the line above; the clone's starts empty.
        self._rov_seeded = True
        self._irr_seeded = False
        self._groups: dict[tuple[int, RouteClass], set[Prefix]] = {}
        for prefix, asn in self._routes:
            self._groups.setdefault(
                (asn, self._route_class(prefix, asn)), set()
            ).add(prefix)
        self._engine: PropagationEngine = base.engine
        # Both caches start from the base world, whose RIB holds exactly
        # the paths its engine computes per group and whose IHR tables
        # hold their transit scores.
        self._engine.seed_cache(base.rib)
        self._transit_cache = _transit_entries(base.rib, base.ihr)
        self._events_applied = 0
        self._cached_world: World | None = base

    # -- bookkeeping ---------------------------------------------------------

    @property
    def base(self) -> World:
        """The world this live view started from."""
        return self._base

    @property
    def events_applied(self) -> int:
        """Number of events applied so far."""
        return self._events_applied

    @property
    def current_date(self) -> date:
        """The instant the live world currently answers for."""
        return self._date

    def _route_class(self, prefix: Prefix, asn: int) -> RouteClass:
        return ROUTE_CLASSES[
            (
                self._rpki_status[(prefix, asn)].is_invalid,
                self._irr_status[(prefix, asn)] is IRRStatus.INVALID_ORIGIN,
            )
        ]

    # -- event application ---------------------------------------------------

    def apply(self, event: Event) -> str:
        """Apply one event and incrementally update derived state.

        Returns the domain tag (``rpki``/``irr``/``manrs``/``topology``/
        ``policy``) the event landed in, so callers can attribute cost.
        """
        with obs.span("delta.apply", event=type(event).__name__):
            domain = apply_raw(self._state, event)
            if domain == "rpki":
                self._follow_roa(event)
            elif domain == "irr":
                self._reclassify_irr(event.route.prefix)
            elif domain == "topology":
                self._follow_link(event)
            elif domain == "policy":
                self._rebuild_engine()
            # "manrs" events only touch the participants dataset, which
            # serialises straight from the (already mutated) registry.
            self._events_applied += 1
            self._cached_world = None
            obs.add("delta.events_applied")
            obs.add(f"delta.events.{domain}")
            return domain

    def advance_to(self, as_of: date) -> None:
        """Move the observation instant (ROA validity windows shift).

        A shift can move any ROA across its window, so this runs the
        full (plan-cached) relying party and diffs its VRP multiset
        against the current validator's.
        """
        if as_of == self._date:
            return
        with obs.span("delta.advance", to=as_of.isoformat()):
            self._date = as_of
            report = self._rp.validate(as_of)
            old_vrps = self._rov._vrps  # noqa: SLF001 - read-only diff
            added, removed = vrp_delta(old_vrps, report.vrps)
            if added or removed:
                self._swap_rov(ROVValidator(report.vrps), added, removed)
            self._cached_world = None

    def _follow_roa(self, event: RoaIssued | RoaExpired) -> None:
        """Take a ROA event's VRP delta from the event itself.

        A relying party's output is one independent verdict per ROA, so
        publishing or withdrawing one ROA adds or removes at most that
        ROA's VRP — none when the ROA does not validate at the current
        instant — and every other verdict stands (cf. RRDP deltas,
        RFC 8182).
        """
        vrp = self._rp.vrp_at(event.roa, self._date)
        if vrp is None:
            return
        if isinstance(event, RoaIssued):
            self._swap_rov(self._rov.with_vrp(vrp), [vrp], [])
        else:
            self._swap_rov(self._rov.without_vrp(vrp), [], [vrp])

    def _swap_rov(
        self, rov: ROVValidator, added: list[VRP], removed: list[VRP]
    ) -> None:
        """Install the successor validator ``rov``.

        ``added`` and ``removed`` are the VRPs it differs by.  A route's
        RFC 6811 verdict depends only on its covering VRPs, so only the
        routes inside a changed VRP's prefix are re-validated, and only
        verdict flips regroup.
        """
        obs.add("delta.vrps_added", len(added))
        obs.add("delta.vrps_removed", len(removed))
        cover = self._cover.affected({vrp.prefix for vrp in added + removed})
        obs.add("delta.rpki_cover_routes", len(cover))
        cover_routes = [self._routes[i] for i in cover]
        new_status = rov.validate_many(cover_routes)
        for key in cover_routes:
            old = self._rpki_status[key]
            new = new_status[key]
            if new is old:
                continue
            if new.is_invalid != old.is_invalid:
                self._regroup(key, rpki_flipped=True)
            self._rpki_status[key] = new
        self._rov = rov
        self._rov_seeded = False

    def _reclassify_irr(self, changed_prefix: Prefix) -> None:
        """Re-validate the cover set of an edited route object's prefix.

        The edit bumped the registry's mutation counter, so its memo
        starts empty; each covered route walks the registry trie once
        (``validate_irr``), and no registry-wide index is rebuilt.
        """
        cover = self._cover.affected([changed_prefix])
        obs.add("delta.irr_cover_routes", len(cover))
        registry = self._state.irr
        for index in cover:
            key = self._routes[index]
            old = self._irr_status[key]
            new = validate_irr(registry, *key)
            if new is old:
                continue
            if (new is IRRStatus.INVALID_ORIGIN) != (
                old is IRRStatus.INVALID_ORIGIN
            ):
                self._regroup(key, rpki_flipped=False)
            self._irr_status[key] = new
        self._irr_seeded = False

    def _regroup(self, key: tuple[Prefix, int], rpki_flipped: bool) -> None:
        """Move one route between (origin, class) buckets after a flip."""
        prefix, asn = key
        old_class = self._route_class(prefix, asn)
        rpki, irr = old_class.rpki_invalid, old_class.irr_invalid
        if rpki_flipped:
            new_class = ROUTE_CLASSES[(not rpki, irr)]
        else:
            new_class = ROUTE_CLASSES[(rpki, not irr)]
        old_bucket = self._groups[(asn, old_class)]
        old_bucket.discard(prefix)
        if not old_bucket:
            del self._groups[(asn, old_class)]
        self._groups.setdefault((asn, new_class), set()).add(prefix)
        obs.add("delta.routes_regrouped")

    def _follow_link(self, event: LinkAdded) -> None:
        """Rebuild the engine over the grown topology.

        A new peer link only carries routes toward origins inside either
        endpoint's customer cone (see the module docstring), so every
        other origin's cached paths stay sound.  A new provider–customer
        link changes customer routes themselves; nothing is carried.
        """
        if event.relationship is Relationship.PEER:
            self._rebuild_engine(
                skip_origins=_customer_cones(
                    self._state.topology, event.a, event.b
                )
            )
        else:
            self._rebuild_engine(adopt=False)

    def _rebuild_engine(
        self, adopt: bool = True, skip_origins: Collection[int] = ()
    ) -> None:
        previous = self._engine
        self._engine = PropagationEngine(
            self._state.topology, self._state.policies
        )
        obs.add("delta.engine_rebuilds")
        if adopt:
            carried = self._engine.adopt_cache(previous, skip_origins)
            obs.add("delta.paths_carried", carried)

    # -- materialisation -----------------------------------------------------

    def world(self) -> World:
        """The full ``World`` at the current instant (cached until the
        next event); digest-equal to a cold rebuild of the same events."""
        if self._cached_world is not None:
            return self._cached_world
        with obs.span(
            "delta.materialise", events_applied=self._events_applied
        ):
            world = self._materialise()
        self._cached_world = world
        return world

    def _materialise(self) -> World:
        base = self._base
        engine = self._engine
        self._seed_memos()
        keys = sorted(
            self._groups,
            key=lambda key: (key[0], key[1].rpki_invalid, key[1].irr_invalid),
        )
        vantage_points = base.vantage_points
        engine.ensure_cache_capacity(len(keys))
        with obs.span("delta.materialise.paths", groups=len(keys)):
            paths_by_key = engine.paths_to_many(keys, vantage_points)
        groups = [
            RouteGroup(
                origin=origin,
                route_class=route_class,
                prefixes=tuple(sorted(self._groups[(origin, route_class)])),
                paths=paths,
            )
            for (origin, route_class), paths in zip(keys, paths_by_key)
        ]
        rib = RibSnapshot(vantage_points=vantage_points, groups=groups)
        with obs.span("delta.materialise.ihr"):
            ihr = self._derive_ihr(rib)
        measured = Measurements(
            engine=engine,
            rov=self._rov,
            rib=rib,
            ihr=ihr,
            prefix2as=Prefix2AS.from_rib(rib),
        )
        return self._state.world(base, self._date, measured)

    def _seed_memos(self) -> None:
        """Give the world's validators the verdict of every table route.

        ``_rpki_status`` and ``_irr_status`` are the current verdicts of
        the whole route table, so analyses of the materialised world hit
        the memos instead of re-walking a trie or re-indexing a registry.
        Each memo is seeded once per state, never per event.
        """
        if not self._rov_seeded:
            self._rov.seed_memo(self._rpki_status)
            self._rov_seeded = True
        if not self._irr_seeded:
            seed_memo(self._state.irr, self._irr_status)
            self._irr_seeded = True

    def _derive_ihr(self, rib: RibSnapshot) -> IHRDataset:
        """The IHR tables, re-scoring only groups whose paths changed.

        Record order mirrors :func:`repro.ihr.pipeline.build_ihr_dataset`
        exactly: prefix origins in visible-group order, transit groups in
        visible order restricted to groups with scores.  Hegemony scores
        read only a group's paths and the type of each link on them, and
        a link's type never changes (links are only added, and
        ``add_link`` refuses an existing pair), so a group whose paths
        are unchanged keeps its cached scores.  Paths compare in
        vantage-point order, which the scoring kernel's per-group
        emission order follows.  Each :class:`TransitGroup` is built from
        the group's current prefixes and statuses, so a verdict flip
        that moves a prefix between groups forces no re-score.  The
        cache keeps one entry per visible group.
        """
        visible = [group for group in rib.groups if group.paths]
        prefix_origins: list[PrefixOriginRecord] = []
        group_statuses: list[tuple] = []
        previous = self._transit_cache
        cache: dict[tuple[int, RouteClass], _TransitEntry] = {}
        misses: list[int] = []
        for index, group in enumerate(visible):
            statuses = tuple(
                (
                    self._rpki_status[(prefix, group.origin)],
                    self._irr_status[(prefix, group.origin)],
                )
                for prefix in group.prefixes
            )
            group_statuses.append(statuses)
            visibility = len(group.paths)
            for prefix, (rpki_status, irr_status) in zip(
                group.prefixes, statuses
            ):
                prefix_origins.append(
                    PrefixOriginRecord(
                        prefix=prefix,
                        origin=group.origin,
                        rpki=rpki_status,
                        irr=irr_status,
                        visibility=visibility,
                    )
                )
            key = (group.origin, group.route_class)
            entry = previous.get(key)
            if entry is not None and _same_paths(entry[0], group.paths):
                cache[key] = entry
            else:
                misses.append(index)
        obs.add("delta.transit_hits", len(visible) - len(misses))
        obs.add("delta.transit_misses", len(misses))
        if misses:
            scored = dict(
                transit_groups_indexed(
                    [visible[i] for i in misses],
                    [group_statuses[i] for i in misses],
                    self._state.topology,
                )
            )
            for local, index in enumerate(misses):
                group = visible[index]
                transit_group = scored.get(local)
                cache[(group.origin, group.route_class)] = (
                    group.paths,
                    None if transit_group is None else transit_group.transits,
                )
        self._transit_cache = cache
        transit_groups = [
            TransitGroup(
                origin=group.origin,
                prefixes=group.prefixes,
                statuses=statuses,
                transits=transits,
                visibility=len(group.paths),
            )
            for group, statuses in zip(visible, group_statuses)
            for transits in (cache[(group.origin, group.route_class)][1],)
            if transits is not None
        ]
        obs.add("ihr.prefix_origins", len(prefix_origins))
        obs.add("ihr.transit_groups", len(transit_groups))
        return IHRDataset(
            prefix_origins=prefix_origins, transit_groups=transit_groups
        )


def _same_paths(
    cached: dict[int, tuple[int, ...]], current: dict[int, tuple[int, ...]]
) -> bool:
    """Equal paths in the same vantage-point order (dict ``==`` alone
    ignores order)."""
    return cached == current and list(cached) == list(current)


def _transit_entries(
    rib: RibSnapshot, ihr: IHRDataset
) -> dict[tuple[int, RouteClass], _TransitEntry]:
    """The transit cache of a built world: one entry per visible group.

    ``ihr.transit_groups`` is the visible groups in order, restricted to
    those with scores; a transit group belongs to the visible group with
    its origin and prefixes (one origin's groups hold disjoint prefixes).
    Should the tables not line up, the cache starts empty instead.
    """
    cache: dict[tuple[int, RouteClass], _TransitEntry] = {}
    transit_groups = iter(ihr.transit_groups)
    pending = next(transit_groups, None)
    for group in rib.groups:
        if not group.paths:
            continue
        transits = None
        if (
            pending is not None
            and pending.origin == group.origin
            and pending.prefixes == group.prefixes
        ):
            transits = pending.transits
            pending = next(transit_groups, None)
        cache[(group.origin, group.route_class)] = (group.paths, transits)
    return cache if pending is None else {}


def _customer_cones(topology: ASTopology, *roots: int) -> set[int]:
    """``roots`` and every AS below them along customer links."""
    cone = set(roots)
    stack = list(cone)
    while stack:
        for customer in topology.customers_of(stack.pop()):
            if customer not in cone:
                cone.add(customer)
                stack.append(customer)
    return cone


def run_job_at(job, at: str) -> dict[str, dict[str, str]]:
    """Run a sweep/serve job against a live world advanced to ``at``.

    Module-level (not a closure) so the serve layer can dispatch it into
    a spawn-context process pool.  Mirrors
    :func:`repro.sweep.worker.run_job` but wraps the cached world in a
    :class:`LiveWorld` and moves the observation instant first — the
    serving layer's "answer as of this date" hook.
    """
    import hashlib

    from repro.experiments.common import world_cache
    from repro.experiments.registry import select

    as_of = date.fromisoformat(at)
    with obs.span(
        "serve.job_at",
        job=job.job_id[:12],
        at=at,
        scale=job.scale,
        seed=job.seed,
    ):
        base = world_cache(job.scale, job.seed, config=job.config())
        live = LiveWorld(base)
        live.advance_to(as_of)
        world = live.world()
        payload: dict[str, dict[str, str]] = {}
        for spec in select(job.experiments or None):
            with obs.span(f"sweep.experiment.{spec.name}"):
                text = spec.render(spec.run(world))
            payload[spec.name] = {
                "text": text,
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
            }
    return payload
