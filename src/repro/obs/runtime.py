"""Runtime knobs that travel with the instrumentation.

Worker-count resolution and the batch GC pause are not observability per
se, but they are steered by the same environment contract
(``REPRO_JOBS``, ``REPRO_PERF``) and every instrumented call site needs
them.
"""

from __future__ import annotations

import gc
import os
from contextlib import contextmanager
from typing import Iterator

from repro import config as _config

__all__ = ["JOBS_ENV", "gc_paused", "resolve_jobs"]

JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: int | None = None) -> int:
    """Number of worker processes to use.

    The sweep scheduler's default worker count is its one reader; builds
    run in one process.  An explicit ``jobs`` argument wins; otherwise
    the active :class:`repro.config.RuntimeConfig` decides (which falls
    back to ``REPRO_JOBS`` when none is installed).  ``0`` or less
    (either way) means "all cores".  The default with no argument, no
    installed config and no env var is 1.
    """
    if jobs is None:
        jobs = _config.current().jobs
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


@contextmanager
def gc_paused(freeze: bool = False) -> Iterator[None]:
    """Suspend the cyclic garbage collector for a batch construction.

    The world builders allocate millions of long-lived, acyclic objects
    (radix nodes, routes, path tuples); every generation-0 collection
    triggered mid-build re-scans that growing graph for cycles it cannot
    contain, which at full scale costs more than the allocations
    themselves.  Pausing collection around the batch and restoring it on
    exit (collection state is re-enabled even on exceptions) removes that
    overhead without changing any result.  Nested pauses are free: only
    the outermost one toggles the collector.

    With ``freeze=True`` the batch's survivors are moved to the
    permanent generation on success (``gc.freeze()``, a constant-time
    list splice), also when an outer pause is active.  Without it, the
    collections after a large paused batch re-scan the surviving graph
    looking for cycles a builder never creates — measured here at ~0.8s
    per scan at full scale, recurring until the collector's long-lived
    quota catches up.  Frozen objects are exempt from every later scan;
    acyclic ones are still freed by reference counting as usual, so a
    dropped world releases its frozen objects.  Three callers freeze,
    each over objects that live as long as their world:
    ``build_world``, ``CheckpointStore.load`` and the materialisation of
    each lazy-world field.  Everything else alive in the young
    generations at that moment is frozen too, and a reference cycle
    frozen that way is never collected.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
        if freeze:
            gc.freeze()
    finally:
        if was_enabled:
            gc.enable()
