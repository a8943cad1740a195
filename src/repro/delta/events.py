"""The delta event vocabulary and the mutable state events apply to.

A built :class:`~repro.scenario.world.World` is immutable in practice:
every derived artifact (VRPs, RIB, IHR tables) was computed from the
registries as they stood at build time.  The delta layer models *change*
as a stream of small events — ROA churn, IRR edits, MANRS membership
moves, topology growth, policy flips — applied to a
:class:`DeltaState`: independent clones of the world's mutable inputs
(registries, topology, policies) that events mutate in place.

Two consumers share :func:`apply_raw`:

* :func:`repro.delta.rebuild.cold_rebuild` applies a whole event stream
  and re-runs the full measurement pipeline — the reference semantics;
* :class:`repro.delta.live.LiveWorld` applies events one at a time and
  recomputes only what each event can affect.

Both paths mutate state through the same function, which is what makes
"replay digest-equals rebuild" a meaningful invariant rather than two
independent interpretations of the same event.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

from repro.bgp.policy import ASPolicy
from repro.errors import DatasetError, DeltaError, RPSLError, TopologyError
from repro.irr.database import IRRCollection, IRRDatabase
from repro.irr.objects import RouteObject
from repro.manrs.actions import Program
from repro.manrs.registry import MANRSRegistry, Participant
from repro.rpki.ca import RPKIRepository
from repro.rpki.roa import ROA
from repro.scenario.world import World
from repro.topology.model import ASTopology, Relationship

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
    """An independent IRR collection with equal serialised form.

    Route objects re-enter each database clone in ``all_routes`` address
    order; the deferred-flush sort is stable, so per-node value order —
    and therefore the database dump — matches the original exactly.
    """
    clone = IRRCollection()
    for database in irr.databases:
        copy = IRRDatabase(
            name=database.name, authoritative_for=database.authoritative_for
        )
        for route in database.all_routes():
            copy.add_route(route)
        copy._aut_nums = dict(database._aut_nums)  # noqa: SLF001
        copy._as_sets = dict(database._as_sets)  # noqa: SLF001
        clone.add_database(copy)
    return clone


@dataclass
class DeltaState:
    """The mutable inputs of a world, cloned so events never touch the
    base ``World`` (which stays valid as the rebuild/replay baseline)."""

    topology: ASTopology
    policies: dict[int, ASPolicy]
    repository: RPKIRepository
    irr: IRRCollection
    manrs: MANRSRegistry
    #: Set once any event mutates the topology; consumers re-derive
    #: topology-dependent artifacts (size classes) only when this is set.
    topology_changed: bool = False

    @classmethod
    def from_world(cls, world: World) -> "DeltaState":
        """Clone a built world's mutable inputs."""
        repository = world.rpki_repository
        return cls(
            topology=world.topology.copy(),
            policies=dict(world.policies),
            repository=RPKIRepository(
                certificates=dict(repository.certificates),
                roas=list(repository.roas),
                _next_cert=repository._next_cert,  # noqa: SLF001
            ),
            irr=_clone_irr(world.irr),
            manrs=world.manrs.copy(),
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
        state.repository.add_roa(event.roa)
        return "rpki"
    if isinstance(event, RoaExpired):
        try:
            state.repository.roas.remove(event.roa)
        except ValueError:
            raise DeltaError(
                f"cannot expire unpublished ROA for {event.roa.prefix}"
            ) from None
        return "rpki"
    if isinstance(event, RouteObjectAdded):
        try:
            state.irr.database(event.route.source).add_route(event.route)
        except RPSLError as error:
            raise DeltaError(str(error)) from error
        return "irr"
    if isinstance(event, RouteObjectRemoved):
        try:
            database = state.irr.database(event.route.source)
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
            state.manrs.add(participant)
        except (DatasetError, TopologyError) as error:
            raise DeltaError(str(error)) from error
        return "manrs"
    if isinstance(event, MemberLeft):
        try:
            state.manrs.remove(event.org_id, event.program)
        except DatasetError as error:
            raise DeltaError(str(error)) from error
        return "manrs"
    if isinstance(event, LinkAdded):
        try:
            state.topology.add_link(event.a, event.b, event.relationship)
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
        state.policies[event.asn] = replace(
            policy, **{event.field: not current}
        )
        return "policy"
    raise DeltaError(f"unknown event type {type(event).__name__}")
