"""Event streams over built worlds, with incremental recomputation.

The delta layer turns a static :class:`~repro.scenario.world.World`
into something with a time axis: :mod:`~repro.delta.events` defines
what can change, :class:`~repro.delta.live.LiveWorld` applies changes
incrementally (cover-set re-validation, targeted re-propagation, cached
transit scoring), and :func:`~repro.delta.rebuild.cold_rebuild` defines
the reference semantics the live path must digest-equal at every
instant.  :func:`~repro.delta.trace.synthesize_events` produces the
deterministic traces that the tests, ``repro replay``, and the delta
benchmark all share.
"""

from repro.delta.cover import RouteCoverIndex, vrp_delta
from repro.delta.events import (
    DeltaState,
    Event,
    LinkAdded,
    MemberJoined,
    MemberLeft,
    PolicyFlipped,
    RoaExpired,
    RoaIssued,
    RouteObjectAdded,
    RouteObjectRemoved,
    apply_raw,
)
from repro.delta.live import LiveWorld, run_job_at
from repro.delta.rebuild import cold_rebuild
from repro.delta.trace import EVENT_KINDS, synthesize_events

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
    "RouteCoverIndex",
    "vrp_delta",
    "cold_rebuild",
    "LiveWorld",
    "run_job_at",
    "EVENT_KINDS",
    "synthesize_events",
]
