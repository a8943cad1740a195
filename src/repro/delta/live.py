"""The live world: incremental recomputation under an event stream.

:class:`LiveWorld` wraps a built :class:`~repro.scenario.world.World`
and applies :mod:`repro.delta.events` one at a time, re-deriving only
what each event can affect:

* **RPKI events** take their VRP delta from the event: the relying
  party evaluates that one ROA at the live instant
  (:meth:`~repro.rpki.validator.IncrementalRelyingParty.vrp_at`), the
  successor :class:`~repro.rpki.rov.ROVValidator` is derived from the
  current one with that VRP appended or its first equal copy removed —
  its VRP columns by one row and its interval index by the one
  prefix-length bucket the VRP falls in — and only the routes its
  prefix covers (:class:`~repro.delta.cover.RouteCoverIndex`) are
  re-validated.  :meth:`LiveWorld.advance_to` reaches the same step
  through one full (plan-cached) relying-party run and one multiset
  diff (:func:`~repro.delta.cover.vrp_delta`).
* **IRR events** re-validate the cover set of the edited object's
  prefix through one covering lookup over the registry's stored
  columns (:func:`~repro.irr.validation.validate_irr_covering`); no
  registry-wide index is rebuilt.
* **Membership events** touch nothing derived (the participants dataset
  serialises straight from the registry).
* **Topology and policy events** derive the successor engine
  (:meth:`~repro.bgp.propagation.PropagationEngine.derive`), and a
  topology event marks size classes stale.  A policy flip re-resolves
  only the route classes whose filter tables the flipped AS's rule
  changes and carries every cached path whose effective-filter
  signature is unchanged.  A new link re-freezes its two endpoints'
  adjacency; after a *peer* link every cached path whose origin lies
  outside both endpoints' customer cones is carried, since only ASes
  holding a customer or origin route export over a peer link, and for
  an origin those are the origin and its transitive providers.  A new
  provider–customer link carries no cached path.

No event modifies an engine, a validator or a registry a world holds:
successors are derived, and the state's components are edited
copy-on-write once a world holds them
(:meth:`~repro.delta.events.DeltaState.edit`).  No event copies a
table-sized memo: :meth:`LiveWorld.world` seeds the materialised
world's ROV and IRR memos once per state, from the live verdict maps
that hold every table route's current verdict.

Verdict changes *regroup* routes among (origin, route class) buckets;
:meth:`LiveWorld.world` then materialises a full ``World`` by replaying
exactly the builder's collection and IHR derivation over the current
buckets — propagation comes from the engine memo and transit scoring
from a per-group cache that re-scores a group only when its paths
changed — and assembles it through
:meth:`~repro.delta.events.DeltaState.world`, as the cold rebuild does.
Both caches start warm without decoding a path: the constructor seeds
the engine memo with read-only views over the base RIB's columns
(:class:`~repro.bgp.collector.GroupPaths`), and the transit cache with
the same views and the IHR tables, so a checkpoint re-derives only the
groups the events reached.  A memo hit returns the seeded view itself
and a re-propagated group a view over its batch's path columns, so
:func:`~repro.bgp.collector.assemble_rib` builds a checkpoint's RIB
from column slices: every group's paths, and the prefix rows of every
group whose prefix set is still the base's.  Only regrouped prefix sets
and the scalar fallback's plain path mappings are encoded.
The verdict maps start from the base IHR's ``po_rpki``/``po_irr`` rows
where they line up with the visible RIB rows, so only the routes no
vantage point saw are validated, in one bulk pass per registry.
The result must digest-equal :func:`~repro.delta.rebuild.cold_rebuild`
of the same events, which runs the builder's own
:func:`~repro.scenario.build.derive_measurements` — the replay==rebuild
invariant pinned by ``tests/test_delta.py`` and by the ``replay`` axis
of ``tests/test_parity.py``.
"""

from __future__ import annotations

from datetime import date
from typing import Mapping, Sequence

import numpy as np

from repro import obs
from repro.bgp.collector import (
    Group,
    GroupPaths,
    PrefixRows,
    RibSnapshot,
    assemble_rib,
)
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
from repro.hegemony.scores import DEFAULT_TRIM
from repro.ihr.pipeline import HegemonyRows, assemble_ihr, hegemony_rows
from repro.ihr.records import IRR_STATUSES, RPKI_STATUSES, IHRDataset
from repro.irr.validation import (
    IRRStatus,
    seed_memo,
    validate_irr_covering,
    validate_irr_many,
)
from repro.net.prefix import Prefix, address_key, prefix_keys
from repro.rpki.roa import VRP
from repro.rpki.rov import ROVValidator
from repro.rpki.validator import IncrementalRelyingParty
from repro.scenario.build import Measurements, route_table
from repro.scenario.world import World
from repro.topology.model import ASTopology

__all__ = ["LiveWorld", "run_job_at"]

#: One group's transit rows (ASN, hegemony, from customer) in scoring
#: order; empty when no path has a transit AS.
_TransitRows = tuple[np.ndarray, np.ndarray, np.ndarray]
#: A group's vantage-point paths and their transit rows.
_TransitEntry = tuple[Mapping[int, tuple[int, ...]], _TransitRows]
#: No transit rows, in the scoring kernel's dtypes.
_NO_ROWS: _TransitRows = (
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.float64),
    np.empty(0, dtype=bool),
)


class LiveWorld:
    """A world plus an event cursor, materialisable at any instant."""

    def __init__(self, base: World):
        # What the live world builds here lives as long as it does and
        # holds no reference cycle (the registry clone, the route
        # table, the verdict maps and groups), so it is built with the
        # cyclic GC paused and frozen, like a built or reopened world:
        # no later collection re-scans it.
        with obs.gc_paused(freeze=True):
            self._start(base)

    def _start(self, base: World) -> None:
        self._base = base
        self._state = DeltaState.from_world(base)
        self._date: date = base.config.snapshot_date
        self._rp = IncrementalRelyingParty(self._state.repository)
        # The base validator is reused as-is until the first VRP change:
        # its VRP set is exactly what the relying party emits for the
        # unmutated repository.  Successors are always derived, new
        # validators, so neither it nor one an earlier world() handed
        # out ever changes its VRP set.
        self._rov: ROVValidator = base.rov
        self._routes = route_table(base.originations)
        self._cover = RouteCoverIndex(self._routes)
        with obs.span("delta.init", routes=len(self._routes)):
            verdicts = _base_verdicts(base, self._routes)
            # Set while the current validator's (the cloned registry's)
            # memo holds every table verdict.  Full validation warms the
            # base validator's; verdicts read from the IHR leave it to
            # the first world(); the clone's starts empty.
            self._rov_seeded = verdicts is None
            if verdicts is None:
                verdicts = (
                    dict(base.rov.validate_many(self._routes)),
                    dict(validate_irr_many(base.irr, self._routes)),
                )
            self._rpki_status, self._irr_status = verdicts
        self._irr_seeded = False
        self._groups: dict[tuple[int, RouteClass], set[Prefix]] = {}
        for prefix, asn in self._routes:
            self._groups.setdefault(
                (asn, self._route_class(prefix, asn)), set()
            ).add(prefix)
        self._engine: PropagationEngine = base.engine
        # Both caches start from the base world, whose RIB holds exactly
        # the paths its engine computes per group and whose IHR tables
        # hold their transit scores.  They hold read-only views over the
        # RIB's columns, so no path is decoded here, and a checkpoint
        # copies the columns of every group whose view and prefix set
        # are still the base's.
        rib = base.rib
        keys = list(
            zip(rib.arrays["rib_origin"].tolist(), rib.route_classes())
        )
        views = self._engine.seed_cache(
            rib.vantage_points, keys, rib.group_paths()
        )
        self._transit_cache = _transit_entries(rib, keys, views, base.ihr)
        #: (origin, route class) → its base group, while the live groups
        #: are the base RIB's (empty when they do not line up).
        self._base_groups = _base_group_index(rib, keys, self._groups)
        self._base_offsets = rib.arrays["rib_prefix_offsets"].tolist()
        #: Keys whose prefix set an event has changed since the base.
        self._regrouped: set[tuple[int, RouteClass]] = set()
        #: Key → its prefixes in address order, while its set stands.
        self._sorted: dict[tuple[int, RouteClass], list[Prefix]] = {}
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
                self._engine = self._engine.derive(
                    link=(event.a, event.b), topology=self._state.topology
                )
            elif domain == "policy":
                self._engine = self._engine.derive(
                    policies={event.asn: self._state.policies[event.asn]}
                )
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
        # The event may have cloned the repository (a world held it),
        # and it invalidated the relying party's plans either way.
        self._rp = IncrementalRelyingParty(self._state.repository)
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
        starts empty; the covered routes take one covering lookup
        (``validate_irr_covering``), and no registry-wide index is
        rebuilt.
        """
        cover = [self._routes[i] for i in self._cover.affected([changed_prefix])]
        obs.add("delta.irr_cover_routes", len(cover))
        new_status = validate_irr_covering(self._state.irr, cover)
        for key in cover:
            old = self._irr_status[key]
            new = new_status[key]
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
        for key in ((asn, old_class), (asn, new_class)):
            self._regrouped.add(key)
            self._sorted.pop(key, None)
        obs.add("delta.routes_regrouped")

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
            Group(*key, self._prefix_rows(key), paths)
            for key, paths in zip(keys, paths_by_key)
        ]
        copied = sum(
            isinstance(group.prefixes, PrefixRows)
            and isinstance(group.paths, GroupPaths)
            for group in groups
        )
        obs.add("delta.groups_copied", copied)
        obs.add("delta.groups_encoded", len(keys) - copied)
        rib = assemble_rib(vantage_points, groups)
        with obs.span("delta.materialise.ihr"):
            ihr = self._derive_ihr(rib, groups)
        measured = Measurements(
            engine=engine,
            rov=self._rov,
            rib=rib,
            ihr=ihr,
            prefix2as=Prefix2AS.from_rib(rib),
        )
        return self._state.world(base, self._date, measured)

    def _prefix_rows(self, key: tuple[int, RouteClass]) -> Sequence[Prefix]:
        """``key``'s prefixes in address order, sorted once per set.

        While no event has changed the set since the base, they are the
        prefix rows of ``key``'s base group, which
        :func:`~repro.bgp.collector.assemble_rib` copies.
        """
        prefixes = self._sorted.get(key)
        if prefixes is None:
            prefixes = sorted(self._groups[key], key=address_key)
            self._sorted[key] = prefixes
        group = self._base_groups.get(key)
        if group is None or key in self._regrouped:
            return prefixes
        offsets = self._base_offsets
        return PrefixRows(
            self._base.rib.arrays, offsets[group], offsets[group + 1], prefixes
        )

    def _seed_memos(self) -> None:
        """Give the world's validators the verdict of every table route.

        ``_rpki_status`` and ``_irr_status`` are the current verdicts of
        the whole route table, so analyses of the materialised world hit
        the memos instead of re-validating routes or re-indexing a registry.
        Each memo is seeded once per state, never per event.
        """
        if not self._rov_seeded:
            self._rov.seed_memo(self._rpki_status)
            self._rov_seeded = True
        if not self._irr_seeded:
            seed_memo(self._state.irr, self._irr_status)
            self._irr_seeded = True

    def _derive_ihr(self, rib: RibSnapshot, groups: list[Group]) -> IHRDataset:
        """The IHR tables, re-scoring only groups whose paths changed.

        The tables are assembled as
        :func:`repro.ihr.pipeline.build_ihr_dataset` assembles them, from
        ``rib`` (the snapshot of ``groups``), the current verdicts and the
        groups' transit rows.  Hegemony scores read only a group's paths
        and the type of each link on them, and a link's type never
        changes (links are only added, and ``add_link`` refuses an
        existing pair), so a group whose paths are unchanged keeps its
        cached rows.  An entry holding the very view the memo returned
        is a hit without a compare; other paths compare in vantage-point
        order, which the scoring kernel's per-group emission order
        follows.  The rows carry no prefix or status, so a verdict flip
        that moves a prefix between groups forces no re-score.  The
        cache keeps one entry per visible group.
        """
        visible = np.flatnonzero(rib.visible()).tolist()
        previous = self._transit_cache
        cache: dict[tuple[int, RouteClass], _TransitEntry] = {}
        per_group: list[_TransitRows] = []
        misses: list[int] = []
        for position, index in enumerate(visible):
            origin, route_class, _, paths = groups[index]
            entry = previous.get((origin, route_class))
            if entry is not None and (
                entry[0] is paths or _same_paths(entry[0], paths)
            ):
                cache[(origin, route_class)] = entry
                per_group.append(entry[1])
            else:
                misses.append(position)
                per_group.append(_NO_ROWS)
        obs.add("delta.transit_hits", len(visible) - len(misses))
        obs.add("delta.transit_misses", len(misses))
        if misses:
            scored = _transit_rows(
                rib,
                [visible[position] for position in misses],
                self._state.topology,
            )
            for position, rows in zip(misses, scored):
                origin, route_class, _, paths = groups[visible[position]]
                cache[(origin, route_class)] = (paths, rows)
                per_group[position] = rows
        self._transit_cache = cache
        return assemble_ihr(
            rib, self._rpki_status, self._irr_status, _joined_rows(per_group)
        )


def _same_paths(
    cached: Mapping[int, tuple[int, ...]],
    current: Mapping[int, tuple[int, ...]],
) -> bool:
    """Equal paths in the same vantage-point order (dict ``==`` alone
    ignores order)."""
    return cached == current and list(cached) == list(current)


def _transit_rows(
    rib: RibSnapshot, groups: Sequence[int], topology: ASTopology
) -> list[_TransitRows]:
    """Score the groups ``groups`` of ``rib`` in one reduction and split
    the rows per group."""
    group_ids, asns, scores, flags = hegemony_rows(
        rib, groups, topology, DEFAULT_TRIM
    )
    bounds = np.searchsorted(group_ids, np.arange(len(groups) + 1)).tolist()
    return [
        (asns[begin:end], scores[begin:end], flags[begin:end])
        for begin, end in zip(bounds, bounds[1:])
    ]


def _joined_rows(per_group: list[_TransitRows]) -> HegemonyRows:
    """The hegemony rows of the groups ``per_group`` lists, in order."""
    group_ids = np.repeat(
        np.arange(len(per_group), dtype=np.int64),
        [len(rows[0]) for rows in per_group],
    )
    # The empty rows seed each concatenation: no groups, no rows.
    asns, scores, flags = (
        np.concatenate([seed, *(rows[k] for rows in per_group)])
        for k, seed in enumerate(_NO_ROWS)
    )
    return group_ids, asns, scores, flags


def _lines_up(rib: RibSnapshot, ihr: IHRDataset) -> bool:
    """Are the IHR's prefix-origin rows the visible RIB rows, in order?"""
    po = ihr.arrays
    rows = rib.visible_rows()
    return np.array_equal(po["po_origin"], rib.row_origins()[rows]) and all(
        np.array_equal(po[name], column)
        for name, column in rib.prefix_rows("po_prefix", rows).items()
    )


def _base_verdicts(
    base: World, routes: list[tuple[Prefix, int]]
) -> tuple[dict, dict] | None:
    """The RPKI and IRR verdict of every route of ``routes``, keyed in
    that order.

    The base IHR holds the verdict of every visible route, and its
    ``po_*`` rows are the visible RIB rows, so only the routes of groups
    no vantage point saw are validated.  None when the rows do not line
    up or a route is not in the RIB.
    """
    rib = base.rib
    if not _lines_up(rib, base.ihr):
        return None
    visible = rib.visible_rows()
    seen = rib.routes(visible)
    unseen = rib.routes(~visible)
    columns = base.ihr.arrays
    rpki = dict(
        zip(seen, map(RPKI_STATUSES.__getitem__, columns["po_rpki"].tolist()))
    )
    rpki.update(base.rov.validate_many(unseen))
    irr = dict(
        zip(seen, map(IRR_STATUSES.__getitem__, columns["po_irr"].tolist()))
    )
    # One interval-index pass over the registry's stored columns: a
    # covering lookup per unseen route and database cost more than the
    # index build.
    irr.update(validate_irr_many(base.irr, unseen))
    try:
        return (
            {route: rpki[route] for route in routes},
            {route: irr[route] for route in routes},
        )
    except KeyError:
        return None


def _transit_entries(
    rib: RibSnapshot,
    keys: list[tuple[int, RouteClass]],
    views: list[Mapping[int, tuple[int, ...]]],
    ihr: IHRDataset,
) -> dict[tuple[int, RouteClass], _TransitEntry]:
    """The transit cache of a built world: one entry per visible group.

    ``keys`` are the groups of ``rib`` and ``views`` the views of their
    paths that the engine memo holds for them.  The transit groups are
    the visible groups in order, restricted to those with transit rows;
    a transit group belongs to the visible group with its origin and
    prefix rows (one origin's groups hold disjoint prefixes), compared
    on the integer prefix columns.  Should the tables not line up, the
    cache starts empty instead.
    """
    columns = ihr.arrays
    origins = columns["tg_origin"].tolist()
    prefix_offsets = columns["tg_offsets"].tolist()
    transit_offsets = columns["tr_offsets"].tolist()
    prefixes = prefix_keys(columns, "tg_prefix")
    rib_prefixes = prefix_keys(rib.arrays, "rib_prefix")
    rib_offsets = rib.arrays["rib_prefix_offsets"].tolist()
    transit_columns = (
        columns["tr_asn"],
        columns["tr_hegemony"],
        columns["tr_from_customer"],
    )
    cache: dict[tuple[int, RouteClass], _TransitEntry] = {}
    pending = 0
    for index in np.flatnonzero(rib.visible()).tolist():
        origin = keys[index][0]
        rows = _NO_ROWS
        if (
            pending < len(origins)
            and origins[pending] == origin
            and prefixes[prefix_offsets[pending]:prefix_offsets[pending + 1]]
            == rib_prefixes[rib_offsets[index]:rib_offsets[index + 1]]
        ):
            begin, end = transit_offsets[pending], transit_offsets[pending + 1]
            rows = tuple(column[begin:end] for column in transit_columns)
            pending += 1
        cache[keys[index]] = (views[index], rows)
    return cache if pending == len(origins) else {}


def _base_group_index(
    rib: RibSnapshot,
    keys: list[tuple[int, RouteClass]],
    groups: dict[tuple[int, RouteClass], set[Prefix]],
) -> dict[tuple[int, RouteClass], int]:
    """Each key of ``keys`` (the groups of ``rib``) → its group index.

    The live world copies a group's prefix rows from the base while its
    prefix set is unchanged, which holds when the live groups start as
    the base RIB's: the same keys, each with as many prefixes.  Both
    group the route table by the same verdicts, so anything else means
    ``rib`` was not derived from these inputs, and the index is empty:
    every group is then encoded.
    """
    counts = np.diff(rib.arrays["rib_prefix_offsets"]).tolist()
    index = {key: group for group, key in enumerate(keys)}
    if len(index) != len(groups) or any(
        len(groups.get(key, ())) != count for key, count in zip(keys, counts)
    ):
        return {}
    return index


def run_job_at(job, at: str) -> dict[str, dict]:
    """Run a sweep/serve job against a live world advanced to ``at``.

    Module-level (not a closure) so the serve layer can dispatch it into
    a spawn-context process pool.  Mirrors
    :func:`repro.sweep.worker.run_job` but wraps the cached world in a
    :class:`LiveWorld` and moves the observation instant first — the
    serving layer's "answer as of this date" hook.
    """
    from repro.experiments.common import world_cache
    from repro.sweep.worker import experiment_payloads

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
        return experiment_payloads(live.world(), job.experiments)
