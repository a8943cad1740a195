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
* **Topology events** rebuild the propagation engine (structure
  changed; no cached path is sound) and mark size classes stale.
* **Policy flips** rebuild the engine against the new policy table but
  adopt every cached path whose effective-filter signature is unchanged
  (:meth:`~repro.bgp.propagation.PropagationEngine.adopt_cache`).

No event copies a table-sized memo: :meth:`LiveWorld.world` seeds the
materialised world's ROV and IRR memos once per state, from the live
verdict maps that hold every table route's current verdict.

Verdict changes *regroup* routes among (origin, route class) buckets;
:meth:`LiveWorld.world` then materialises a full ``World`` by replaying
exactly the builder's collection and IHR derivation over the current
buckets — propagation comes from the (mostly warm) engine memo and
transit scoring from a per-group cache keyed on everything a group's
hegemony depends on — and assembles it through
:meth:`~repro.delta.events.DeltaState.world`, as the cold rebuild does.
The result must digest-equal :func:`~repro.delta.rebuild.cold_rebuild`
of the same events, which runs the builder's own
:func:`~repro.scenario.build.derive_measurements` — the replay==rebuild
invariant pinned by ``tests/test_delta.py`` and by the ``replay`` axis
of ``tests/test_parity.py``.
"""

from __future__ import annotations

from datetime import date

from repro import obs
from repro.bgp.collector import RibSnapshot, RouteGroup
from repro.bgp.policy import ROUTE_CLASSES, RouteClass
from repro.bgp.propagation import PropagationEngine
from repro.bgp.table import Prefix2AS
from repro.delta.cover import RouteCoverIndex, vrp_delta
from repro.delta.events import (
    DeltaState,
    Event,
    RoaExpired,
    RoaIssued,
    apply_raw,
)
from repro.ihr.pipeline import transit_groups_indexed
from repro.ihr.records import IHRDataset, PrefixOriginRecord, TransitGroup
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

__all__ = ["LiveWorld", "run_job_at"]


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
        self._topo_version = 0
        # Interned effective-filter signatures, surviving engine
        # rebuilds: the transit cache keys on them so a policy flip only
        # invalidates the route classes whose filters actually changed.
        self._signature_ids: dict[tuple, int] = {}
        self._transit_cache: dict[tuple, TransitGroup | None] = {}
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

    def _signature_id(self, engine: PropagationEngine, rc: RouteClass) -> int:
        signature = engine.class_filters(rc).signature
        sig_id = self._signature_ids.get(signature)
        if sig_id is None:
            sig_id = len(self._signature_ids)
            self._signature_ids[signature] = sig_id
        return sig_id

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
                self._rebuild_engine(adopt=False)
                self._topo_version += 1
            elif domain == "policy":
                self._rebuild_engine(adopt=True)
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

    def _rebuild_engine(self, adopt: bool) -> None:
        previous = self._engine
        self._engine = PropagationEngine(
            self._state.topology, self._state.policies
        )
        obs.add("delta.engine_rebuilds")
        if adopt:
            carried = self._engine.adopt_cache(previous)
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
        measured = Measurements(
            engine=engine,
            rov=self._rov,
            rib=rib,
            ihr=self._derive_ihr(rib, engine),
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

    def _derive_ihr(
        self, rib: RibSnapshot, engine: PropagationEngine
    ) -> IHRDataset:
        """The IHR tables, with per-group transit results cached.

        Record order mirrors :func:`repro.ihr.pipeline.build_ihr_dataset`
        exactly: prefix origins in visible-group order, transit groups in
        visible order restricted to groups with scores.  A group's transit
        result is a pure function of (origin, effective-filter signature,
        topology state, prefixes, statuses) — everything in the cache key
        — so cached entries splice in byte-identically.
        """
        visible = [group for group in rib.groups if group.paths]
        prefix_origins: list[PrefixOriginRecord] = []
        group_statuses: list[tuple] = []
        cache_keys: list[tuple] = []
        for group in visible:
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
            cache_keys.append(
                (
                    group.origin,
                    self._signature_id(engine, group.route_class),
                    self._topo_version,
                    group.prefixes,
                    statuses,
                )
            )
        miss_indices = [
            index
            for index, cache_key in enumerate(cache_keys)
            if cache_key not in self._transit_cache
        ]
        obs.add("delta.transit_hits", len(visible) - len(miss_indices))
        obs.add("delta.transit_misses", len(miss_indices))
        if miss_indices:
            scored = dict(
                transit_groups_indexed(
                    [visible[i] for i in miss_indices],
                    [group_statuses[i] for i in miss_indices],
                    self._state.topology,
                )
            )
            for local, index in enumerate(miss_indices):
                self._transit_cache[cache_keys[index]] = scored.get(local)
        transit_groups = [
            transit_group
            for cache_key in cache_keys
            for transit_group in (self._transit_cache[cache_key],)
            if transit_group is not None
        ]
        obs.add("ihr.prefix_origins", len(prefix_origins))
        obs.add("ihr.transit_groups", len(transit_groups))
        return IHRDataset(
            prefix_origins=prefix_origins, transit_groups=transit_groups
        )


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
