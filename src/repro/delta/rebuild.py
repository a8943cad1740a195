"""Cold rebuild: the reference semantics of an event stream.

``cold_rebuild(base, events)`` applies every event to a fresh
:class:`~repro.delta.events.DeltaState` clone of ``base`` and re-runs
the builder's own measurement pipeline,
:func:`~repro.scenario.build.derive_measurements` — relying party,
route classification, propagation, collection, IHR derivation — over
the mutated inputs.  This is what the
live world's incremental apply is checked against: at every
checkpoint, ``world_digest(live.world())`` must equal
``world_digest(cold_rebuild(base, applied_events))``.

Both paths assemble their world through
:meth:`~repro.delta.events.DeltaState.world`, which fixes what comes
from ``base`` and what from the mutated state.
"""

from __future__ import annotations

from datetime import date
from typing import Iterable, Sequence

from repro import obs
from repro.delta.events import DeltaState, Event, apply_raw
from repro.scenario.build import derive_measurements
from repro.scenario.world import World

__all__ = ["cold_rebuild"]


def cold_rebuild(
    base: World, events: Sequence[Event] | Iterable[Event], as_of: date | None = None
) -> World:
    """Apply ``events`` to a clone of ``base`` and rebuild everything.

    With no events and ``as_of=None`` the result digest-equals ``base``.
    """
    state = DeltaState.from_world(base)
    applied = 0
    for event in events:
        apply_raw(state, event)
        applied += 1
    obs.add("delta.rebuild_events", applied)
    snapshot = as_of or base.config.snapshot_date
    with obs.span("delta.rebuild", events=applied):
        measured = derive_measurements(
            topology=state.topology,
            policies=state.policies,
            repository=state.repository,
            irr=state.irr,
            originations=base.originations,
            vantage_points=base.vantage_points,
            snapshot=snapshot,
        )
    return state.world(base, snapshot, measured)
