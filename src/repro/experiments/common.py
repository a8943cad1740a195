"""Shared plumbing for the per-figure experiment modules.

Every experiment consumes a built :class:`~repro.scenario.world.World`,
groups per-AS metrics into the paper's six populations (size class ×
MANRS membership), and returns printable rows/series.  ``world_cache``
memoises worlds by (scale, seed) so experiments run back to back on one
(scale, seed) build its world once.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, TypeVar

from repro import config as _config
from repro.core.stats import CDF, make_cdf
from repro.datasets.checkpoint import checkpoint_key, default_store
from repro.scenario.build import build_world
from repro.scenario.config import ScenarioConfig
from repro.scenario.world import World
from repro.topology.classify import SizeClass

__all__ = [
    "POPULATIONS",
    "population_label",
    "group_metric",
    "world_cache",
]

T = TypeVar("T")

#: The six populations of Figures 5/7/8, in the paper's legend order.
POPULATIONS: tuple[tuple[SizeClass, bool], ...] = (
    (SizeClass.SMALL, True),
    (SizeClass.SMALL, False),
    (SizeClass.MEDIUM, True),
    (SizeClass.MEDIUM, False),
    (SizeClass.LARGE, True),
    (SizeClass.LARGE, False),
)


def population_label(size: SizeClass, member: bool) -> str:
    """The paper's legend label, e.g. ``"large non-MANRS"``."""
    return f"{size.value} {'MANRS' if member else 'non-MANRS'}"


def group_metric(
    world: World,
    per_as: dict[int, T],
    metric: Callable[[T], float],
) -> dict[tuple[SizeClass, bool], CDF]:
    """Group a per-AS statistic into per-population CDFs."""
    members = world.members()
    samples: dict[tuple[SizeClass, bool], list[float]] = {
        population: [] for population in POPULATIONS
    }
    for asn, stats in per_as.items():
        if asn not in world.topology:
            continue
        key = (world.size_of[asn], asn in members)
        samples[key].append(metric(stats))
    return {key: make_cdf(values) for key, values in samples.items()}


#: Most worlds kept alive at once (at least one is always kept).
#: Registry sweeps across several scales would otherwise pin every world
#: in memory for the whole run; four comfortably covers the usual
#: small/mid/full working set while bounding the cache at a few GB even
#: at full scale.  Read at call time, so tests can patch it.
WORLD_CACHE_SIZE = 4

#: Keys are ``(scale, seed)`` for the default scenario config and
#: ``(scale, seed, config_key)`` for overridden configs (sweep jobs) —
#: the short key keeps default-config entries introspectable by tests
#: and tooling that predate config-aware caching.
_WORLDS: OrderedDict[tuple, World] = OrderedDict()


def world_cache(
    scale: float = 1.0,
    seed: int = 0,
    config: ScenarioConfig | None = None,
    runtime: "_config.RuntimeConfig | None" = None,
) -> World:
    """Build (once) and return the world for (scale, seed[, config]).

    Two-tier: a small in-memory LRU (:data:`WORLD_CACHE_SIZE` worlds) in
    front of the on-disk checkpoint store named by the runtime config's
    ``cache_dir`` (fallback ``REPRO_CACHE_DIR``; unset disables it).
    A memory miss tries the
    disk store before building cold, and a cold build is saved back so
    the *next process* warm-starts too.  Disk entries that fail
    verification are discarded by the store and rebuilt here — callers
    never see a corrupt world.

    ``config`` selects a scenario override (sweep jobs build variant
    worlds); ``None`` means the default :class:`ScenarioConfig`, cached
    under the historical ``(scale, seed)`` key.  ``runtime`` installs a
    :class:`repro.config.RuntimeConfig` for the duration of the call
    (store location and every build knob underneath).
    """
    with _config.use(runtime):
        if config is None:
            key: tuple = (scale, seed)
        else:
            key = (scale, seed, checkpoint_key(config, scale, seed))
        world = _WORLDS.get(key)
        if world is None:
            store = default_store()
            if store is not None:
                world = store.load(config or ScenarioConfig(), scale, seed)
            if world is None:
                # config is passed through only when overridden, so test
                # doubles with the historical (scale, seed) signature and
                # the default-config build path stay byte-compatible.
                if config is None:
                    world = build_world(scale=scale, seed=seed)
                else:
                    world = build_world(scale=scale, seed=seed, config=config)
                if store is not None:
                    store.save(world)
            _WORLDS[key] = world
        else:
            _WORLDS.move_to_end(key)
        while len(_WORLDS) > max(1, WORLD_CACHE_SIZE):
            _WORLDS.popitem(last=False)
        return world
