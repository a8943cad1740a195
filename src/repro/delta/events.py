"""The delta event vocabulary and the mutable state events apply to.

A built :class:`~repro.scenario.world.World` is immutable in practice:
every derived artifact (VRPs, RIB, IHR tables) was computed from the
registries as they stood at build time.  The delta layer models *change*
as a stream of small events — ROA churn, IRR edits, MANRS membership
moves, topology growth, policy flips — applied to a
:class:`DeltaState`: independent clones of the world's mutable inputs
(registries, topology, policies) that events edit, each in place until
a world holds it and on a fresh copy from then on.

Two consumers share :func:`apply_raw` and :meth:`DeltaState.world`:

* :func:`repro.delta.rebuild.cold_rebuild` applies a whole event stream
  and re-runs the builder's measurement pipeline — the reference
  semantics;
* :class:`repro.delta.live.LiveWorld` applies events one at a time and
  recomputes only what each event can affect.

Both paths mutate state through the same function and assemble their
world through the same method, which is what makes "replay
digest-equals rebuild" a meaningful invariant rather than two
independent interpretations of the same event.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import date
from typing import TYPE_CHECKING, Union

from repro.bgp.policy import ASPolicy
from repro.errors import DatasetError, DeltaError, RPSLError, TopologyError
from repro.irr.database import IRRCollection
from repro.irr.objects import RouteObject
from repro.manrs.actions import Program
from repro.manrs.registry import MANRSRegistry, Participant
from repro.rpki.ca import RPKIRepository
from repro.rpki.roa import ROA
from repro.scenario.world import World
from repro.topology.classify import classify_all
from repro.topology.model import ASTopology, Relationship

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenario.build import Measurements

__all__ = [
    "RoaIssued",
    "RoaExpired",
    "RouteObjectAdded",
    "RouteObjectRemoved",
    "MemberJoined",
    "MemberLeft",
    "LinkAdded",
    "PolicyFlipped",
    "Event",
    "DeltaState",
    "apply_raw",
]


@dataclass(frozen=True)
class RoaIssued:
    """A new ROA is published to the repository."""

    roa: ROA


@dataclass(frozen=True)
class RoaExpired:
    """A published ROA is withdrawn (or ages out of the repository)."""

    roa: ROA


@dataclass(frozen=True)
class RouteObjectAdded:
    """A route object is registered in the IRR database it names."""

    route: RouteObject


@dataclass(frozen=True)
class RouteObjectRemoved:
    """A route object is deleted from its IRR database."""

    route: RouteObject


@dataclass(frozen=True)
class MemberJoined:
    """An organisation registers in a MANRS program."""

    participant: Participant


@dataclass(frozen=True)
class MemberLeft:
    """An organisation's membership in one program ends."""

    org_id: str
    program: Program


@dataclass(frozen=True)
class LinkAdded:
    """A new inter-AS link appears (for PROVIDER_CUSTOMER, ``a`` is the
    provider)."""

    a: int
    b: int
    relationship: Relationship = Relationship.PEER


@dataclass(frozen=True)
class PolicyFlipped:
    """One boolean field of an AS's import policy toggles (ROV on/off by
    default)."""

    asn: int
    field: str = "rov"


Event = Union[
    RoaIssued,
    RoaExpired,
    RouteObjectAdded,
    RouteObjectRemoved,
    MemberJoined,
    MemberLeft,
    LinkAdded,
    PolicyFlipped,
]


def _clone_irr(irr: IRRCollection) -> IRRCollection:
    """An independent IRR collection with equal stored form.

    Each database shares the source's route columns and strings, which
    edits replace instead of writing into (copy-on-write), so cloning
    copies no row.  The mutation counter is the route count, as if each
    route had been added once.
    """
    return IRRCollection(database.copy() for database in irr.databases)


def _clone_repository(repository: RPKIRepository) -> RPKIRepository:
    """An independent repository holding the same certificates and ROAs."""
    return RPKIRepository(
        certificates=dict(repository.certificates),
        roas=list(repository.roas),
        _next_cert=repository._next_cert,  # noqa: SLF001
    )


#: How each component of a :class:`DeltaState` is cloned.
_CLONE = {
    "topology": ASTopology.copy,
    "policies": dict,
    "repository": _clone_repository,
    "irr": _clone_irr,
    "manrs": MANRSRegistry.copy,
}


@dataclass
class DeltaState:
    """The mutable inputs of a world, cloned so events never touch the
    base ``World`` (which stays valid as the rebuild/replay baseline).

    :meth:`world` hands the components out as they are, so the next
    event to edit one edits a fresh clone instead (:meth:`edit`): a
    world, once returned, never changes.
    """

    topology: ASTopology
    policies: dict[int, ASPolicy]
    repository: RPKIRepository
    irr: IRRCollection
    manrs: MANRSRegistry
    #: Set once any event mutates the topology; consumers re-derive
    #: topology-dependent artifacts (size classes) only when this is set.
    topology_changed: bool = False
    #: Components a world returned by :meth:`world` holds.
    held: set[str] = field(default_factory=set)

    @classmethod
    def from_world(cls, world: World) -> "DeltaState":
        """Clone a built world's mutable inputs."""
        return cls(
            topology=_CLONE["topology"](world.topology),
            policies=_CLONE["policies"](world.policies),
            repository=_CLONE["repository"](world.rpki_repository),
            irr=_CLONE["irr"](world.irr),
            manrs=_CLONE["manrs"](world.manrs),
        )

    def edit(self, name: str):
        """The component ``name``, ready to edit in place: cloned first
        when a world holds it."""
        component = getattr(self, name)
        if name in self.held:
            component = _CLONE[name](component)
            setattr(self, name, component)
            self.held.discard(name)
        return component

    def world(self, base: World, as_of: date, measured: "Measurements") -> World:
        """The world this state and ``measured`` describe at ``as_of``.

        The cold rebuild and the live world both assemble their result
        here, so they agree on three rules:

        * the config's snapshot date becomes ``as_of``;
        * size classes are re-derived only once a topology event has
          landed;
        * topology, policies, registries and membership come from this
          state; what events cannot change (originations, behaviours,
          address space, as2org, the quiescent set, vantage points)
          comes from ``base``.  Vantage points are never re-selected:
          re-selection depends on size classes, which a topology event
          may shift, and would make every downstream artifact
          incomparable with the base;
        * the world holds this state's components, so later edits clone
          them first.
        """
        config = base.config
        if as_of != config.snapshot_date:
            config = replace(config, snapshot_date=as_of)
        self.held.update(_CLONE)
        size_of = (
            classify_all(self.topology)
            if self.topology_changed
            else dict(base.size_of)
        )
        return World(
            config=config,
            seed=base.seed,
            topology=self.topology,
            quiescent=base.quiescent,
            as2org=base.as2org,
            size_of=size_of,
            manrs=self.manrs,
            address_space=base.address_space,
            originations=base.originations,
            behaviors=base.behaviors,
            policies=self.policies,
            rpki_repository=self.repository,
            irr=self.irr,
            vantage_points=base.vantage_points,
            scale=base.scale,
            **measured._asdict(),
        )


def apply_raw(state: DeltaState, event: Event) -> str:
    """Apply one event to the raw state; returns the affected domain.

    The returned tag (``rpki`` / ``irr`` / ``manrs`` / ``topology`` /
    ``policy``) tells incremental consumers which derived artifacts the
    event can possibly touch.  Raises :class:`DeltaError` when the event
    does not apply to the current state (withdrawing an absent ROA,
    duplicating a membership, a member org or ASN outside the topology,
    linking unknown ASes, ...).
    """
    if isinstance(event, RoaIssued):
        state.edit("repository").add_roa(event.roa)
        return "rpki"
    if isinstance(event, RoaExpired):
        if not state.edit("repository").remove_roa(event.roa):
            raise DeltaError(
                f"cannot expire unpublished ROA for {event.roa.prefix}"
            )
        return "rpki"
    if isinstance(event, RouteObjectAdded):
        try:
            state.edit("irr").database(event.route.source).add_route(
                event.route
            )
        except RPSLError as error:
            raise DeltaError(str(error)) from error
        return "irr"
    if isinstance(event, RouteObjectRemoved):
        try:
            database = state.edit("irr").database(event.route.source)
        except RPSLError as error:
            raise DeltaError(str(error)) from error
        if not database.remove_route(event.route):
            raise DeltaError(
                f"cannot remove unregistered route object for "
                f"{event.route.prefix}"
            )
        return "irr"
    if isinstance(event, MemberJoined):
        participant = event.participant
        try:
            state.topology.get_org(participant.org_id)
            for asn in participant.asns:
                state.topology.get_as(asn)
            state.edit("manrs").add(participant)
        except (DatasetError, TopologyError) as error:
            raise DeltaError(str(error)) from error
        return "manrs"
    if isinstance(event, MemberLeft):
        try:
            state.edit("manrs").remove(event.org_id, event.program)
        except DatasetError as error:
            raise DeltaError(str(error)) from error
        return "manrs"
    if isinstance(event, LinkAdded):
        try:
            state.edit("topology").add_link(
                event.a, event.b, event.relationship
            )
        except TopologyError as error:
            raise DeltaError(str(error)) from error
        state.topology_changed = True
        return "topology"
    if isinstance(event, PolicyFlipped):
        if event.asn not in state.topology:
            raise DeltaError(f"policy flip on unknown AS{event.asn}")
        policy = state.policies.get(event.asn, ASPolicy())
        current = getattr(policy, event.field, None)
        if not isinstance(current, bool):
            raise DeltaError(
                f"policy field {event.field!r} is not a boolean toggle"
            )
        state.edit("policies")[event.asn] = replace(
            policy, **{event.field: not current}
        )
        return "policy"
    raise DeltaError(f"unknown event type {type(event).__name__}")
