"""Valley-free (Gao–Rexford) BGP route propagation.

Given an origin AS, the engine computes the route every other AS selects,
honouring the standard export rules:

* an AS exports routes learned from customers (and its own) to everyone;
* routes learned from peers or providers are exported only to customers.

and the standard selection preference: customer-learned > peer-learned >
provider-learned, then shortest AS path, then lowest next-hop ASN.

That policy structure admits the classic three-phase computation:

1. **Customer routes** propagate "up" from the origin along
   customer→provider edges (breadth-first, so paths are shortest).
2. **Peer routes** appear at peers of ASes holding customer routes.
3. **Provider routes** propagate "down"; we compute them *lazily* per
   queried AS as a memoised best-over-providers recursion, because the
   measurement pipeline only ever needs routes at collector vantage
   points — this is what makes whole-Internet propagation tractable in
   pure Python.

Import filtering (ROV, MANRS Action 1) is applied at each acceptance step
using the per-AS :class:`~repro.bgp.policy.ASPolicy`.

Two fast paths keep full-table collection affordable:

* **Effective-filter signatures.**  Before propagating a
  :class:`~repro.bgp.policy.RouteClass`, the engine resolves the class
  against every policy into three small tables (ASes dropping the class
  everywhere, at peer sessions, or on some customer sessions).  Route
  classes that resolve to *identical* tables provably propagate
  identically — see DESIGN.md §"Memoisation soundness" — so they share
  one signature id, and the hot loops test set membership instead of
  calling :meth:`~repro.bgp.policy.ASPolicy.accepts` per neighbour.
* **Result memoisation.**  ``paths_to`` results are cached in a bounded
  LRU keyed by ``(origin, signature id, vantage id)``, the vantage id
  being a small interned id of the vantage-point tuple; repeated
  snapshots (timelines, counterfactual reruns, benchmarks) hit the cache
  instead of re-propagating.  Batched collection
  (:meth:`PropagationEngine.paths_to_many`) memoises read-only views
  over the path columns each batch writes.

An engine never changes its inputs.  :meth:`PropagationEngine.derive`
gives the engine of changed policies or one new link, sharing every
frozen table and memo entry the change provably leaves alone.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Mapping, Sequence

from repro import obs
from repro.bgp.policy import ASPolicy, RouteClass, covers_session
from repro.errors import TopologyError
from repro.kernels.csr import CollectionPlan, GroupPaths, Tree, batch_paths
from repro.topology.model import ASTopology

__all__ = ["RouteKind", "Route", "PropagationEngine"]

_DEFAULT_POLICY = ASPolicy()

#: Default bound on the per-engine ``paths_to`` memo (entries, not bytes;
#: each entry holds one path tuple per vantage point).  The default is a
#: floor, not a ceiling: collection grows it to the observed route-group
#: count (see :meth:`PropagationEngine.ensure_cache_capacity`) so one
#: snapshot's working set never thrashes the memo.  An explicit
#: ``paths_cache_size`` argument pins the bound instead (the uncached
#: reference oracles pass 0).
DEFAULT_PATHS_CACHE_SIZE = 8192

#: Origins resolved per :func:`~repro.kernels.csr.batch_paths` call.  The
#: kernel's working set is a few (origins × closure) matrices plus each
#: origin's phase-1 routes, so the bound caps a build's peak memory.  An
#: origin's paths do not depend on the batch it is resolved in, so the
#: bound is an identity transform (DESIGN §18).
BATCH_ORIGINS = 512

#: The engine's dict-valued caches besides the ``paths_to`` memo: filter
#: tables and signature ids (which read only policies), vantage ids,
#: and per-vantage closures, orders and collection plans (which read
#: only adjacency).
_TABLE_CACHES = (
    "_class_filters",
    "_signature_ids",
    "_class_sig_ids",
    "_vantage_ids",
    "_target_closures",
    "_target_orders",
    "_batch_plans",
)


#: What one AS does with one route class: drop it from every neighbour,
#: drop it at peer sessions, and its customer-session filter
#: ``(coverage, unfiltered customers)`` or None.
_Rule = tuple[bool, bool, tuple[float, frozenset[int]] | None]


def _filter_rule(policy: ASPolicy, route_class: RouteClass) -> _Rule:
    """How ``policy`` treats ``route_class``: the one per-AS rule behind
    every :class:`_ClassFilters` table."""
    rpki, irr = route_class
    if rpki and policy.rov:
        return True, True, None
    customers = None
    if (rpki and policy.filter_customers_rpki) or (
        irr and policy.filter_customers_irr
    ):
        customers = (
            policy.customer_filter_coverage,
            policy.unfiltered_customers,
        )
    return (
        False,
        bool(
            (rpki and policy.filter_peers_rpki)
            or (irr and policy.filter_peers_irr)
        ),
        customers,
    )


class _ClassFilters:
    """One route class resolved against every AS policy.

    ``drops_everywhere`` — ASes that refuse the class from any neighbour
    (ROV deployments when the class is RPKI Invalid).
    ``drops_peers`` — ASes refusing the class over peer sessions
    (superset of ``drops_everywhere``).
    ``customer_filters`` — importer AS → ``(coverage, unfiltered
    customers)`` for ASes whose customer sessions filter the class.
    """

    __slots__ = ("drops_everywhere", "drops_peers", "customer_filters", "signature")

    def __init__(
        self,
        drops_everywhere: frozenset[int],
        drops_peers: frozenset[int],
        customer_filters: dict[int, tuple[float, frozenset[int]]],
    ):
        self.drops_everywhere = drops_everywhere
        self.drops_peers = drops_peers
        self.customer_filters = customer_filters
        #: Canonical hashable form: equal signatures ⇒ identical propagation.
        self.signature = (
            drops_everywhere,
            drops_peers,
            frozenset(customer_filters.items()),
        )

    def with_rules(self, rules: Mapping[int, _Rule]) -> "_ClassFilters":
        """These tables with the rule of each AS in ``rules`` replaced."""
        drops_everywhere = set(self.drops_everywhere)
        drops_peers = set(self.drops_peers)
        customer_filters = dict(self.customer_filters)
        for asn, (everywhere, peers, customers) in rules.items():
            (drops_everywhere.add if everywhere else drops_everywhere.discard)(asn)
            (drops_peers.add if peers else drops_peers.discard)(asn)
            if customers is None:
                customer_filters.pop(asn, None)
            else:
                customer_filters[asn] = customers
        return _ClassFilters(
            frozenset(drops_everywhere), frozenset(drops_peers), customer_filters
        )


#: The rule of an AS that filters nothing.
_NO_RULE: _Rule = (False, False, None)

#: The tables of a class no AS filters (the conformant class always).
_UNFILTERED = _ClassFilters(frozenset(), frozenset(), {})


class RouteKind(IntEnum):
    """How an AS learned its best route (lower is more preferred)."""

    ORIGIN = 0
    CUSTOMER = 1
    PEER = 2
    PROVIDER = 3


@dataclass(frozen=True, slots=True)
class Route:
    """The best route one AS holds toward an origin.

    ``path`` runs from the holding AS (first element) to the origin (last
    element).
    """

    kind: RouteKind
    path: tuple[int, ...]

    @property
    def length(self) -> int:
        """AS-path length in hops (edges, not nodes)."""
        return len(self.path) - 1


class PropagationEngine:
    """Computes per-origin routing outcomes over a fixed topology.

    The engine is immutable with respect to the topology and policies it
    was built with; :meth:`propagate` calls are independent, so one engine
    can serve many origins (and many filter classes per origin).
    """

    def __init__(
        self,
        topology: ASTopology,
        policies: Mapping[int, ASPolicy] | None = None,
        paths_cache_size: int | None = None,
    ):
        self._topology = topology
        policies = policies or {}
        # Freeze adjacency into plain dict/tuple structures: propagation is
        # the hot loop and must not pay frozenset-copy costs per call.
        self._providers: dict[int, tuple[int, ...]] = {}
        self._customers: dict[int, tuple[int, ...]] = {}
        self._peers: dict[int, tuple[int, ...]] = {}
        self._policies: dict[int, ASPolicy] = {}
        for asn in topology.asns:
            self._providers[asn] = tuple(sorted(topology.providers_of(asn)))
            self._customers[asn] = tuple(sorted(topology.customers_of(asn)))
            self._peers[asn] = tuple(sorted(topology.peers_of(asn)))
            self._policies[asn] = policies.get(asn, _DEFAULT_POLICY)
        # An explicit size is pinned; otherwise the default acts as a
        # floor that collection may grow.
        if paths_cache_size is None:
            self._paths_cache_size = DEFAULT_PATHS_CACHE_SIZE
            self._cache_pinned = False
        else:
            self._paths_cache_size = paths_cache_size
            self._cache_pinned = True
        self._init_caches()

    def _init_caches(self) -> None:
        # route class (as a bit pair) → resolved filter tables
        self._class_filters: dict[tuple[bool, bool], _ClassFilters] = {}
        # canonical signature → small interned id shared by equal classes
        self._signature_ids: dict[tuple, int] = {}
        # route class (as a bit pair) → interned id; avoids rehashing the
        # (potentially huge) signature tuple on every paths_to call
        self._class_sig_ids: dict[tuple[bool, bool], int] = {}
        # vantage tuple → small interned id, so memo keys hash three ints
        self._vantage_ids: dict[tuple[int, ...], int] = {}
        # (origin, signature id, vantage id) → paths mapping: a dict the
        # scalar path computed, or a read-only view over path columns
        # (a batch's, or a RIB's that seed_cache installed)
        self._paths_cache: OrderedDict[
            tuple[int, int, int], Mapping[int, tuple[int, ...]]
        ] = OrderedDict()
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_evictions = 0
        # target tuple → its transitive provider closure (see _closure_of)
        self._target_closures: dict[tuple[int, ...], frozenset[int]] = {}
        # target tuple → provider-first ordering of the closure, or None
        # when the closure has a provider cycle (see _closure_order_of)
        self._target_orders: dict[
            tuple[int, ...], tuple[int, ...] | None
        ] = {}
        # vantage tuple → frozen batch-collection slot arrays
        self._batch_plans: dict[tuple[int, ...], CollectionPlan] = {}

    def __getstate__(self) -> dict:
        # Workers rebuild caches locally; shipping a warm memo would bloat
        # the pickle without changing any result.
        state = self.__dict__.copy()
        for transient in (
            *_TABLE_CACHES,
            "_paths_cache",
            "_cache_hits",
            "_cache_misses",
            "_cache_evictions",
        ):
            state.pop(transient, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._init_caches()

    @property
    def topology(self) -> ASTopology:
        """The topology this engine propagates over."""
        return self._topology

    def policy_of(self, asn: int) -> ASPolicy:
        """The import policy the engine applies at ``asn``."""
        return self._policies[asn]

    # -- route-class resolution and memoisation ------------------------------

    def class_filters(self, route_class: RouteClass) -> _ClassFilters:
        """Resolve ``route_class`` against every policy (cached).

        The tables capture *everything* :meth:`ASPolicy.accepts` can do
        with this class, so propagation needs no policy calls afterwards.
        """
        filters = self._class_filters.get(route_class)
        if filters is None:
            filters = _UNFILTERED
            if any(route_class):
                filters = filters.with_rules(
                    {
                        asn: rule
                        for asn, policy in self._policies.items()
                        if (rule := _filter_rule(policy, route_class))
                        != _NO_RULE
                    }
                )
            self._class_filters[route_class] = filters
        return filters

    def signature_id(self, route_class: RouteClass) -> int:
        """Interned id of the class's effective-filter signature.

        Two route classes with the same id propagate identically from
        every origin (e.g. RPKI-Valid and NotFound announcements, or any
        two classes when no AS filters at all), so they share memoised
        results.  Derived engines inherit the ids: a signature keeps its
        id while some class of the lineage has it.
        """
        sig_id = self._class_sig_ids.get(route_class)
        if sig_id is None:
            sig_id = self._intern(self.class_filters(route_class).signature)
            self._class_sig_ids[route_class] = sig_id
        return sig_id

    def _vantage_id(self, vantage_points: tuple[int, ...]) -> int:
        """Interned id of a vantage-point tuple.  Ids are never reused,
        and derived engines inherit them as they inherit signature ids."""
        vantage_id = self._vantage_ids.get(vantage_points)
        if vantage_id is None:
            vantage_id = self._vantage_ids[vantage_points] = len(
                self._vantage_ids
            )
        return vantage_id

    def _intern(self, signature: tuple) -> int:
        sig_id = self._signature_ids.get(signature)
        if sig_id is None:
            # Past every id in use, which may not be contiguous after a
            # derivation dropped signatures.
            sig_id = max(self._signature_ids.values(), default=-1) + 1
            self._signature_ids[signature] = sig_id
        return sig_id

    def cache_info(self) -> dict[str, int]:
        """Hit/miss/eviction/size counters of the ``paths_to`` memo."""
        return {
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "evictions": self._cache_evictions,
            "size": len(self._paths_cache),
            "max_size": self._paths_cache_size,
        }

    def ensure_cache_capacity(self, entries: int) -> None:
        """Grow the ``paths_to`` memo bound to at least ``entries``.

        Collection calls this with the route-group count of the snapshot
        it is about to build, so one snapshot's keys never evict each
        other.  No-op when the constructor argument pinned the bound or
        it is already large enough.
        """
        if self._cache_pinned or entries <= self._paths_cache_size:
            return
        self._paths_cache_size = entries

    def seed_cache(
        self,
        vantage_points: Iterable[int],
        keys: Sequence[tuple[int, RouteClass]],
        paths: Sequence[Mapping[int, tuple[int, ...]]],
    ) -> list[Mapping[int, tuple[int, ...]]]:
        """Memoise the paths of route groups this engine's inputs produced.

        ``paths[i]`` holds the paths of the ``(origin, route class)``
        group ``keys[i]``; the caller vouches that they are what
        :meth:`paths_to` returns for it at ``vantage_points`` — as a
        world's RIB is for the engine of the same world.  A reopened
        world's engine starts with an empty memo while its RIB holds
        exactly those paths, so seeding spares the first collection
        over it a full re-propagation.  Where keys share a filter
        signature the first one's paths are memoised.  A seeded entry
        replaces an existing one, which the caller's vouching makes
        equal, so a built world's memo holds the seeded mappings too.
        Returns, per key, the mapping its entry holds (its own
        ``paths[i]`` when the memo is disabled, ``paths_cache_size=0``).
        """
        if self._paths_cache_size <= 0:
            return list(paths)
        vantage_id = self._vantage_id(tuple(vantage_points))
        seeded: dict[tuple, Mapping[int, tuple[int, ...]]] = {}
        held = [
            seeded.setdefault(
                (origin, self.signature_id(route_class), vantage_id),
                group_paths,
            )
            for (origin, route_class), group_paths in zip(keys, paths)
        ]
        self.ensure_cache_capacity(len(seeded))
        cache = self._paths_cache
        cache.update(seeded)
        while len(cache) > self._paths_cache_size:
            cache.popitem(last=False)
            self._cache_evictions += 1
        obs.add("propagation.cache_seeded", len(seeded))
        return held

    def derive(
        self,
        policies: Mapping[int, ASPolicy] | None = None,
        link: tuple[int, int] | None = None,
        topology: ASTopology | None = None,
    ) -> "PropagationEngine":
        """The engine of this one's inputs after a change.

        ``policies`` maps each AS whose import policy changes to its new
        policy.  ``link`` names the endpoints of one new link, and
        ``topology`` is this engine's topology with that link added.
        The successor shares everything the change leaves alone, and
        this engine is not modified:

        * a policy change keeps the frozen adjacency, closure orders and
          collection plans, re-resolves only the route classes whose
          tables a changed AS's rule alters, and carries every memo
          entry whose filter signature some class still has (equal
          signatures propagate identically, DESIGN §8);
        * a new link re-freezes the adjacency of its two endpoints and
          keeps the filter tables and signature ids.  After a peer link
          it carries every memo entry whose origin lies outside both
          endpoints' customer cones: only holders of a customer or
          origin route export over a peer link, and toward an origin
          those are the origin and its transitive providers, so no
          route toward an origin outside both cones can cross it.  A
          provider–customer link changes customer routes themselves,
          and nothing is carried (DESIGN §16).
        """
        if (link is None) != (topology is None):
            raise ValueError("a new link needs the topology that holds it")
        engine = PropagationEngine.__new__(PropagationEngine)
        engine.__dict__.update(self.__dict__)
        for name in _TABLE_CACHES:
            setattr(engine, name, dict(getattr(self, name)))
        engine._paths_cache = self._paths_cache.copy()
        engine._cache_hits = engine._cache_misses = engine._cache_evictions = 0
        if policies:
            engine._change_policies(policies)
        if link is not None:
            engine._add_link(topology, *link)
        obs.add("propagation.cache_carried", len(engine._paths_cache))
        return engine

    def _change_policies(self, changed: Mapping[int, ASPolicy]) -> None:
        previous = self._policies
        for asn in changed:
            if asn not in previous:
                raise TopologyError(f"policy for unknown AS{asn}")
        self._policies = {**previous, **changed}
        old_ids = set(self._class_sig_ids.values())
        for route_class, filters in list(self._class_filters.items()):
            moved = {}
            for asn, policy in changed.items():
                rule = _filter_rule(policy, route_class)
                if rule != _filter_rule(previous[asn], route_class):
                    moved[asn] = rule
            if not moved:
                continue
            filters = filters.with_rules(moved)
            self._class_filters[route_class] = filters
            if route_class in self._class_sig_ids:
                self._class_sig_ids[route_class] = self._intern(
                    filters.signature
                )
            obs.add("propagation.classes_reresolved")
        dropped = old_ids - set(self._class_sig_ids.values())
        if dropped:
            self._forget([key for key in self._paths_cache if key[1] in dropped])
            # No class has a dropped signature, so the lineage keeps
            # none of them: its interned signatures stay one per class.
            self._signature_ids = {
                signature: sig_id
                for signature, sig_id in self._signature_ids.items()
                if sig_id not in dropped
            }

    def _add_link(self, topology: ASTopology, a: int, b: int) -> None:
        for asn in (a, b):
            if asn not in self._policies:
                raise TopologyError(f"link references unknown AS{asn}")
        self._topology = topology
        self._providers, self._customers, self._peers = (
            dict(self._providers),
            dict(self._customers),
            dict(self._peers),
        )
        for asn in (a, b):
            self._providers[asn] = tuple(sorted(topology.providers_of(asn)))
            self._customers[asn] = tuple(sorted(topology.customers_of(asn)))
            self._peers[asn] = tuple(sorted(topology.peers_of(asn)))
        # A vantage tuple's closure, order and plan read only the
        # providers and peers of closure members.
        for targets, closure in list(self._target_closures.items()):
            if a in closure or b in closure:
                del self._target_closures[targets]
                self._target_orders.pop(targets, None)
                self._batch_plans.pop(targets, None)
        if b in self._peers[a]:
            cones = self._customer_cones(a, b)
            self._forget([key for key in self._paths_cache if key[0] in cones])
        else:
            self._paths_cache = OrderedDict()

    def _forget(self, keys: list[tuple]) -> None:
        cache = self._paths_cache
        for key in keys:
            del cache[key]

    def _customer_cones(self, *roots: int) -> set[int]:
        """``roots`` and every AS below them along customer links."""
        cone = set(roots)
        stack = list(cone)
        customers = self._customers
        while stack:
            for customer in customers[stack.pop()]:
                if customer not in cone:
                    cone.add(customer)
                    stack.append(customer)
        return cone

    # -- public API ---------------------------------------------------------

    def propagate(
        self,
        origin: int,
        route_class: RouteClass = RouteClass(),
        targets: Iterable[int] | None = None,
    ) -> dict[int, Route]:
        """Compute selected routes toward ``origin``.

        With ``targets`` given, routes at the targets are exactly those of
        a full propagation, but work off the targets' influence zone is
        skipped: peer routes (phase 2) are only materialised inside the
        targets' transitive provider closure — the only ASes whose routes
        can feed a target's provider route — and provider routes (phase 3)
        are resolved only for the targets.  Entries for ASes outside the
        targets are a by-product and callers must not rely on them.
        With ``targets=None``, every phase runs globally and the mapping
        holds the selected route of every AS that accepts one.
        """
        if origin not in self._providers:
            raise TopologyError(f"unknown origin AS{origin}")
        filters = self.class_filters(route_class)
        relevant: frozenset[int] | None = None
        if targets is not None:
            targets = tuple(targets)
            relevant = self._closure_of(targets)
        routes = self._customer_routes(origin, filters)
        self._peer_routes(routes, filters, relevant)
        if targets is not None:
            order = self._closure_order_of(targets)
            if order is not None:
                # Provider-first order: every provider of `asn` inside the
                # closure is finalised before `asn`, so one linear pass
                # replaces the recursion below with identical selections.
                providers = self._providers
                drops = filters.drops_everywhere
                routes_get = routes.get
                for asn in order:
                    if asn in routes or asn in drops:
                        continue
                    best_len = 0
                    best_route = None
                    for provider in providers[asn]:
                        route = routes_get(provider)
                        if route is None:
                            continue
                        path_len = len(route.path)
                        # providers iterate in ascending ASN order, so a
                        # strict < keeps the lowest-ASN provider on ties.
                        if best_route is None or path_len < best_len:
                            best_len = path_len
                            best_route = route
                    if best_route is not None:
                        routes[asn] = Route(
                            RouteKind.PROVIDER, (asn,) + best_route.path
                        )
                return routes
        memo: dict[int, Route | None] = {}
        if targets is None:
            pending = [asn for asn in self._providers if asn not in routes]
        else:
            pending = [asn for asn in targets if asn not in routes]
        for asn in pending:
            route = self._provider_route(asn, routes, filters, memo)
            if route is not None:
                routes[asn] = route
        return routes

    def _closure_of(self, targets: tuple[int, ...]) -> frozenset[int]:
        """Targets plus every transitive provider of a target (cached).

        Provider-route resolution at a target only ever consults routes at
        ASes in this set, so phases 2 and 3 need not look outside it.
        Collection reuses one vantage-point tuple across thousands of
        origins, so the closure is computed once per engine.
        """
        closure = self._target_closures.get(targets)
        if closure is None:
            providers = self._providers
            seen: set[int] = set()
            stack: list[int] = []
            for asn in targets:
                if asn not in providers:
                    raise TopologyError(f"unknown target AS{asn}")
                if asn not in seen:
                    seen.add(asn)
                    stack.append(asn)
            while stack:
                for provider in providers[stack.pop()]:
                    if provider not in seen:
                        seen.add(provider)
                        stack.append(provider)
            closure = frozenset(seen)
            self._target_closures[targets] = closure
        return closure

    def _closure_order_of(
        self, targets: tuple[int, ...]
    ) -> tuple[int, ...] | None:
        """Provider-first ordering of the targets' closure (cached).

        Kahn's algorithm over the provider edges inside the closure; an AS
        is emitted only after all its (in-closure) providers.  Returns
        ``None`` when the closure contains a provider cycle (pathological
        hand-built topologies) — callers then fall back to the recursive
        resolution, which handles cycles.
        """
        order = self._target_orders.get(targets, False)
        if order is False:
            closure = self._closure_of(targets)
            providers = self._providers
            remaining = {
                asn: len(providers[asn]) for asn in closure
            }
            dependents: dict[int, list[int]] = {asn: [] for asn in closure}
            for asn in closure:
                for provider in providers[asn]:
                    dependents[provider].append(asn)
            ready = sorted(
                asn for asn, count in remaining.items() if count == 0
            )
            emitted: list[int] = []
            while ready:
                next_ready: list[int] = []
                for asn in ready:
                    emitted.append(asn)
                    for customer in dependents[asn]:
                        remaining[customer] -= 1
                        if remaining[customer] == 0:
                            next_ready.append(customer)
                ready = sorted(next_ready)
            order = tuple(emitted) if len(emitted) == len(closure) else None
            self._target_orders[targets] = order
        return order

    def paths_to(
        self,
        origin: int,
        vantage_points: Iterable[int],
        route_class: RouteClass = RouteClass(),
    ) -> dict[int, tuple[int, ...]]:
        """AS paths from each vantage point toward ``origin``.

        Vantage points with no route (e.g. the announcement was filtered on
        every valley-free path to them) are absent from the result.

        Results are memoised per ``(origin, filter signature, vantage
        points)`` — see the module docstring — so repeated collection over
        the same engine is close to free.
        """
        vantage_points = tuple(vantage_points)
        cache = self._paths_cache
        key = None
        if self._paths_cache_size > 0:
            key = (
                origin,
                self.signature_id(route_class),
                self._vantage_id(vantage_points),
            )
            cached = cache.get(key)
            if cached is not None:
                cache.move_to_end(key)
                self._cache_hits += 1
                obs.add("propagation.cache_hits")
                return dict(cached)
            self._cache_misses += 1
            obs.add("propagation.cache_misses")
        paths = self._compute_paths(origin, route_class, vantage_points)
        if key is not None:
            cache[key] = paths
            if len(cache) > self._paths_cache_size:
                cache.popitem(last=False)
                self._cache_evictions += 1
                obs.add("propagation.cache_evictions")
            return dict(paths)
        return paths

    def _compute_paths(
        self,
        origin: int,
        route_class: RouteClass,
        vantage_points: tuple[int, ...],
    ) -> dict[int, tuple[int, ...]]:
        """One uncached ``paths_to`` resolution (shared with the batch path)."""
        if origin not in self._providers:
            raise TopologyError(f"unknown origin AS{origin}")
        filters = self.class_filters(route_class)
        order = self._closure_order_of(vantage_points)
        if order is not None:
            return self._fast_paths(origin, filters, vantage_points, order)
        routes = self.propagate(origin, route_class, targets=vantage_points)
        return {vp: routes[vp].path for vp in vantage_points if vp in routes}

    def paths_to_many(
        self,
        keys: Iterable[tuple[int, RouteClass]],
        vantage_points: Iterable[int],
    ) -> list[Mapping[int, tuple[int, ...]]]:
        """Batched :meth:`paths_to` over many (origin, route class) pairs.

        Phases 2–3 of every uncached key resolve together as columnar
        sweeps (:func:`repro.kernels.csr.batch_paths`), which write
        each batch's paths as RIB-shaped columns; phase 1 and the memo
        bookkeeping stay scalar, replayed key by key so the cache
        contents, LRU order and hit/miss/eviction counters end up
        exactly as a ``paths_to`` loop would leave them.  A computed
        key's result is a read-only :class:`~repro.kernels.csr.GroupPaths`
        view over its batch's columns, and the memo holds that view; a
        hit returns the memoised view, or a copy of a memoised dict.
        """
        keys = list(keys)
        vantage_points = tuple(vantage_points)
        order = self._closure_order_of(vantage_points)
        if order is None:
            # Provider cycle in the closure: no batch plan exists; the
            # scalar path handles it via the recursive resolution.
            return [
                self.paths_to(origin, vantage_points, route_class)
                for origin, route_class in keys
            ]
        vantage_id = self._vantage_id(vantage_points)
        resolved = [
            ((origin, self.signature_id(route_class), vantage_id), route_class)
            for origin, route_class in keys
        ]
        cache = self._paths_cache
        if self._paths_cache_size <= 0:
            # Caching disabled: every call computes (and counts nothing),
            # so just batch the distinct keys; duplicates share a view.
            need = {}
            for cache_key, route_class in resolved:
                need.setdefault(cache_key, (cache_key[0], route_class))
            computed = self._batch_compute(need, vantage_points, order)
            return [computed[cache_key] for cache_key, _ in resolved]
        need = {}
        for cache_key, route_class in resolved:
            if cache_key not in cache and cache_key not in need:
                need[cache_key] = (cache_key[0], route_class)
        computed = self._batch_compute(need, vantage_points, order)
        results: list[Mapping[int, tuple[int, ...]]] = []
        for cache_key, route_class in resolved:
            cached = cache.get(cache_key)
            if cached is not None:
                cache.move_to_end(cache_key)
                self._cache_hits += 1
                obs.add("propagation.cache_hits")
                # A memoised dict is copied, so a caller's edit cannot
                # reach the memo; a read-only view is returned as it is.
                results.append(
                    dict(cached) if isinstance(cached, dict) else cached
                )
                continue
            self._cache_misses += 1
            obs.add("propagation.cache_misses")
            paths = computed.pop(cache_key, None)
            if paths is None:
                # Pre-computed entry was evicted from the memo between
                # its insertion and this reuse: recompute like the
                # scalar loop would.
                paths = self._compute_paths(
                    cache_key[0], route_class, vantage_points
                )
            cache[cache_key] = paths
            if len(cache) > self._paths_cache_size:
                cache.popitem(last=False)
                self._cache_evictions += 1
                obs.add("propagation.cache_evictions")
            results.append(dict(paths) if isinstance(paths, dict) else paths)
        return results

    def _batch_compute(
        self,
        need: dict,
        vantage_points: tuple[int, ...],
        order: tuple[int, ...],
    ) -> dict[tuple[int, int, int], GroupPaths]:
        """Compute a view ``{key: paths}`` for every ``key: (origin,
        class)`` in ``need`` via the columnar phase-2/3 kernel, grouped
        by signature and fed to it :data:`BATCH_ORIGINS` origins at a
        time: each batch's keys view one block of path columns."""
        if not need:
            return {}
        plan = self._batch_plans.get(vantage_points)
        if plan is None:
            plan = CollectionPlan(
                order, vantage_points, self._peers, self._providers
            )
            self._batch_plans[vantage_points] = plan
        by_signature: dict[int, list] = defaultdict(list)
        for key, (origin, route_class) in need.items():
            if origin not in self._providers:
                raise TopologyError(f"unknown origin AS{origin}")
            # key[1] is the interned signature id, resolved by the caller.
            by_signature[key[1]].append((key, origin, route_class))
        computed = {}
        for entries in by_signature.values():
            filters = self.class_filters(entries[0][2])
            p2_keep, level_keeps = plan.filter_masks(
                filters.drops_peers, filters.drops_everywhere
            )
            for start in range(0, len(entries), BATCH_ORIGINS):
                batch = entries[start : start + BATCH_ORIGINS]
                trees = [
                    self._customer_tree(origin, filters)
                    for _, origin, _ in batch
                ]
                obs.add("propagation.batches")
                block = batch_paths(plan, trees, p2_keep, level_keeps)
                for group, (key, _, _) in enumerate(batch):
                    computed[key] = GroupPaths(block, group)
        return computed

    def _fast_paths(
        self,
        origin: int,
        filters: _ClassFilters,
        targets: tuple[int, ...],
        order: tuple[int, ...],
    ) -> dict[int, tuple[int, ...]]:
        """Collection fast path: selected AS paths at ``targets`` only.

        Mirrors :meth:`propagate` with ``targets`` phase for phase but
        works on bare path tuples — route kinds are implicit in the phase
        structure (phase 1 yields customer/origin routes, closure peers
        are added from phase-1 holders only, the provider pass consumes
        anything) — so the hot loops skip :class:`Route` construction.
        """
        relevant = self._closure_of(targets)
        base = {
            asn: route.path
            for asn, route in self._customer_routes(origin, filters).items()
        }
        merged = dict(base)
        # Phase 2, restricted: closure peers of customer-route holders.
        drops_peers = filters.drops_peers
        peers_of = self._peers
        base_get = base.get
        for asn in relevant:
            if asn in base or asn in drops_peers:
                continue
            best_len = 0
            best_path = None
            for peer in peers_of[asn]:
                path = base_get(peer)
                if path is None:
                    continue
                if best_path is None or len(path) < best_len:
                    best_len = len(path)
                    best_path = path
            if best_path is not None:
                merged[asn] = (asn,) + best_path
        # Phase 3: one provider-first pass over the closure ordering.
        drops = filters.drops_everywhere
        providers = self._providers
        merged_get = merged.get
        for asn in order:
            if asn in merged or asn in drops:
                continue
            best_len = 0
            best_path = None
            for provider in providers[asn]:
                path = merged_get(provider)
                if path is None:
                    continue
                if best_path is None or len(path) < best_len:
                    best_len = len(path)
                    best_path = path
            if best_path is not None:
                merged[asn] = (asn,) + best_path
        return {vp: merged[vp] for vp in targets if vp in merged}

    # -- phase 1: customer routes -------------------------------------------

    def _customer_routes(
        self, origin: int, filters: _ClassFilters
    ) -> dict[int, Route]:
        asns, hops, _ = self._customer_tree(origin, filters)
        routes: dict[int, Route] = {}
        paths: list[tuple[int, ...]] = []
        for asn, hop in zip(asns, hops):
            if hop < 0:
                path, kind = (asn,), RouteKind.ORIGIN
            else:
                path, kind = (asn,) + paths[hop], RouteKind.CUSTOMER
            paths.append(path)
            routes[asn] = Route(kind, path)
        return routes

    def _customer_tree(self, origin: int, filters: _ClassFilters) -> Tree:
        """Phase 1 as a tree (see :data:`repro.kernels.csr.Tree`): the
        origin, then every AS holding a customer route in breadth-first
        order, each pointing at the route it extends."""
        asns = [origin]
        hops = [-1]
        lengths = [1]
        position = {origin: 0}
        frontier = [origin]
        drops = filters.drops_everywhere
        customer_filters = filters.customer_filters
        filtered = bool(drops) or bool(customer_filters)
        providers_of = self._providers
        while frontier:
            # children proposing a route to each not-yet-routed provider
            candidates: defaultdict[int, list[int]] = defaultdict(list)
            for child in frontier:
                for provider in providers_of[child]:
                    if provider in position:
                        continue
                    candidates[provider].append(child)
            frontier = []
            for provider, children in candidates.items():
                if filtered:
                    if provider in drops:
                        continue
                    session_filter = customer_filters.get(provider)
                    if session_filter is not None:
                        # A provider may filter some customer sessions but
                        # not others (partial Action 1 coverage): take the
                        # lowest-ASN child whose session passes.
                        coverage, unfiltered = session_filter
                        children = [
                            child
                            for child in children
                            if child in unfiltered
                            or not covers_session(provider, child, coverage)
                        ]
                        if not children:
                            continue
                hop = position[min(children)]
                position[provider] = len(asns)
                asns.append(provider)
                hops.append(hop)
                lengths.append(lengths[hop] + 1)
                frontier.append(provider)
        return asns, hops, lengths

    # -- phase 2: peer routes -------------------------------------------------

    def _peer_routes(
        self,
        routes: dict[int, Route],
        filters: _ClassFilters,
        relevant: frozenset[int] | None = None,
    ) -> None:
        # Only ASes holding customer/origin routes export over peer links.
        # With ``relevant`` given, peer routes are materialised only there
        # (the selection per importer is unchanged — every exporter still
        # competes — so relevant ASes get exactly their global-run route).
        drops_peers = filters.drops_peers
        peers_of = self._peers
        if relevant is not None:
            routes_get = routes.get
            additions: list[tuple[int, int]] = []
            for asn in relevant:
                if asn in routes or asn in drops_peers:
                    continue
                best_len = 0
                best_holder = -1
                for peer in peers_of[asn]:
                    route = routes_get(peer)
                    if route is None or route.kind > RouteKind.CUSTOMER:
                        continue
                    path_len = len(route.path)
                    # peers iterate in ascending ASN order, so a strict <
                    # keeps the lowest-ASN exporter on equal-length ties.
                    if best_holder < 0 or path_len < best_len:
                        best_len = path_len
                        best_holder = peer
                if best_holder >= 0:
                    additions.append((asn, best_holder))
            for asn, holder in additions:
                routes[asn] = Route(RouteKind.PEER, (asn,) + routes[holder].path)
            return
        candidates: dict[int, tuple[int, int]] = {}
        for holder, route in routes.items():
            if route.kind not in (RouteKind.ORIGIN, RouteKind.CUSTOMER):
                continue
            key = (len(route.path) - 1, holder)
            for peer in peers_of[holder]:
                if peer in routes or peer in drops_peers:
                    continue
                best = candidates.get(peer)
                if best is None or key < best:
                    candidates[peer] = key
        for peer, (_, holder) in candidates.items():
            routes[peer] = Route(RouteKind.PEER, (peer,) + routes[holder].path)

    # -- phase 3: provider routes (lazy) --------------------------------------

    def _provider_route(
        self,
        asn: int,
        routes: dict[int, Route],
        filters: _ClassFilters,
        memo: dict[int, Route | None],
    ) -> Route | None:
        if asn in memo:
            return memo[asn]
        # Guard against provider cycles in pathological topologies: mark
        # in-progress as unreachable; a cyclic chain cannot yield a route.
        memo[asn] = None
        if asn in filters.drops_everywhere:
            return None
        best: tuple[int, int] | None = None
        best_route: Route | None = None
        for provider in self._providers[asn]:
            provider_route = routes.get(provider)
            if provider_route is None:
                provider_route = self._provider_route(
                    provider, routes, filters, memo
                )
            if provider_route is None:
                continue
            key = (len(provider_route.path) - 1, provider)
            if best is None or key < best:
                best = key
                best_route = provider_route
        if best_route is None:
            return None
        result = Route(RouteKind.PROVIDER, (asn,) + best_route.path)
        memo[asn] = result
        return result
