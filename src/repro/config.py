"""One front door for every runtime knob: :class:`RuntimeConfig`.

Five fields remain, each with an environment-variable fallback, and
three of them still choose anything: ``REPRO_JOBS`` (the sweep
scheduler's default worker count), ``REPRO_CACHE_DIR`` (the checkpoint
store) and ``REPRO_KERNELS`` (once numpy vs pure-Python kernels; numpy
is now the only mode).  ``REPRO_SHARDS`` and ``REPRO_BUILD_BUDGET_MB``
selected process-pool sharding and spill-to-disk builds, both removed:
a build runs in one process and bounds its own working set (DESIGN
§18).  Like ``kernels``, each keeps one legal value (``shards=1``,
``build_budget_mb=None``) and raises on any other, so a run that asks
for a removed mode fails instead of silently running the one path.  A
knob stays only while a workload sets it (DESIGN §15).  This module
holds them in a single frozen dataclass resolved **once** with a fixed
precedence:

    explicit overrides  >  environment variables  >  defaults

Environment variables remain the documented *fallback* (scripts and CI
keep working unchanged), but the programmatic API is the config object:

    from repro.config import RuntimeConfig

    runtime = RuntimeConfig.resolve(cache_dir="/var/cache/repro")
    world = build_world(scale=1.0, seed=7, runtime=runtime)

Entry points that own a process accept ``runtime=`` (``build_world``,
``world_cache``, ``run_sweep``, the serve layer) and low-level call-time
readers consult :func:`current`, which returns the installed
process-wide config or — when none is installed — re-resolves from the
environment on each call, preserving the historical "read at call time"
semantics tests rely on.

:func:`use` installs a config for a ``with`` block; :func:`set_current`
installs one for the rest of the process (sweep and serve workers do
this at pool init).
"""

from __future__ import annotations

import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Iterator, Mapping

__all__ = [
    "ENV_VARS",
    "KERNEL_MODES",
    "RuntimeConfig",
    "current",
    "set_current",
    "use",
]

log = logging.getLogger(__name__)

#: Recognised kernel implementations (see :mod:`repro.kernels`).  The
#: pure-Python mode was removed; its paths are test oracles now.
KERNEL_MODES = ("numpy",)

#: Field name → environment variable.  The table *is* the documentation
#: of the fallback contract; README's knob table lists exactly these
#: pairs (``tests/test_runtime_config.py`` checks it).
ENV_VARS: Mapping[str, str] = {
    "jobs": "REPRO_JOBS",
    "shards": "REPRO_SHARDS",
    "kernels": "REPRO_KERNELS",
    "cache_dir": "REPRO_CACHE_DIR",
    "build_budget_mb": "REPRO_BUILD_BUDGET_MB",
}


@dataclass(frozen=True)
class RuntimeConfig:
    """Resolved runtime knobs; immutable, comparable, picklable.

    Defaults reproduce the behaviour of an empty environment: one sweep
    worker, numpy kernels, no on-disk store.
    """

    #: Default sweep worker processes (0 = all cores).
    jobs: int = 1
    #: Removed (process-pool sharding); 1 is the one legal value.
    shards: int = 1
    #: Kernel implementation; ``numpy`` is the only one.
    kernels: str = "numpy"
    #: Checkpoint store root; None disables on-disk persistence.
    cache_dir: str | None = None
    #: Removed (spill-to-disk builds); None is the one legal value.
    build_budget_mb: float | None = None

    def __post_init__(self) -> None:
        _check_kernels("kernels", self.kernels)
        _check_removed("shards", self.shards)
        _check_removed("build_budget_mb", self.build_budget_mb)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None) -> "RuntimeConfig":
        """The config an empty-argument run resolves to: env over defaults.

        Parsing is as lenient as the per-site readers it replaced — a
        malformed value falls back to the field default rather than
        breaking an analysis run — with deliberate exceptions for the
        removed modes: ``REPRO_KERNELS`` raises on anything but
        ``numpy``, and a well-formed ``REPRO_SHARDS`` above 1 or
        ``REPRO_BUILD_BUDGET_MB`` raises, so a run that asks for a
        removed mode fails instead of silently running the one path.
        """
        env = os.environ if env is None else env
        values: dict[str, object] = {}

        raw = env.get(ENV_VARS["jobs"], "").strip()
        if raw:
            try:
                values["jobs"] = int(raw)
            except ValueError:
                pass

        raw = env.get(ENV_VARS["shards"], "").strip()
        if raw:
            try:
                shards = int(raw)
            except ValueError:
                log.warning(
                    "%s=%r is non-integer; ignored", ENV_VARS["shards"], raw
                )
            else:
                _check_removed("shards", max(1, shards), ENV_VARS["shards"])

        raw = env.get(ENV_VARS["kernels"], "").strip().lower()
        if raw:
            _check_kernels(ENV_VARS["kernels"], raw)
            values["kernels"] = raw

        raw = env.get(ENV_VARS["cache_dir"], "").strip()
        if raw:
            values["cache_dir"] = raw

        raw = env.get(ENV_VARS["build_budget_mb"], "").strip()
        if raw:
            try:
                budget = float(raw)
            except ValueError:
                log.warning(
                    "%s=%r is non-numeric; ignored",
                    ENV_VARS["build_budget_mb"],
                    raw,
                )
            else:
                if budget >= 0:
                    _check_removed(
                        "build_budget_mb", budget, ENV_VARS["build_budget_mb"]
                    )

        return cls(**values)

    @classmethod
    def resolve(
        cls,
        env: Mapping[str, str] | None = None,
        **overrides: object,
    ) -> "RuntimeConfig":
        """Resolve with the documented precedence: explicit > env > default.

        ``None`` overrides mean "not specified" and defer to the
        environment (every field's ``None`` is either not a valid value
        or already the default), so callers can pass optional CLI
        arguments straight through.
        """
        known = {field.name for field in fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise TypeError(
                f"unknown runtime field(s) {sorted(unknown)}; "
                f"choose from {sorted(known)}"
            )
        base = cls.from_env(env)
        explicit = {
            name: value for name, value in overrides.items() if value is not None
        }
        return replace(base, **explicit) if explicit else base

    def merged(self, **overrides: object) -> "RuntimeConfig":
        """A copy with non-None ``overrides`` applied on top."""
        explicit = {
            name: value for name, value in overrides.items() if value is not None
        }
        return replace(self, **explicit) if explicit else self


#: Removed knob → (its one legal value, the removal an error names).
_REMOVED_KNOBS: Mapping[str, tuple[object, str]] = {
    "shards": (1, "process-pool sharding was removed"),
    "build_budget_mb": (None, "the spill-to-disk build budget was removed"),
}


def _check_removed(field: str, value: object, name: str = "") -> None:
    """Raise unless ``value`` is the removed knob's one legal value;
    ``name`` (default: ``field``) is what the message calls it."""
    legal, removal = _REMOVED_KNOBS[field]
    if value != legal:
        raise ValueError(
            f"{name or field}={value!r}: {removal}; a build runs in one process "
            "and bounds its own working set (DESIGN §18), and "
            f"{field}={legal!r} is the one legal value"
        )


def _check_kernels(name: str, value: str) -> None:
    if value == "python":
        raise ValueError(
            f"{name}={value!r}: the python kernel mode was removed; "
            "numpy is the only kernel mode (the pure-Python paths remain "
            "as test oracles in tests/test_kernels.py)"
        )
    if value not in KERNEL_MODES:
        raise ValueError(
            f"{name}={value!r} is not a kernel mode; "
            f"expected one of {', '.join(KERNEL_MODES)}"
        )


# -- the process-wide active config ------------------------------------------

_active: RuntimeConfig | None = None


def current() -> RuntimeConfig:
    """The active config: the installed one, else a fresh env resolution.

    When nothing is installed this re-reads the environment on every
    call, preserving the historical call-time semantics (tests flip
    ``REPRO_JOBS`` etc. with ``monkeypatch.setenv`` mid-process).
    """
    return _active if _active is not None else RuntimeConfig.from_env()


def set_current(runtime: RuntimeConfig | None) -> None:
    """Install ``runtime`` process-wide (None restores env fallback)."""
    global _active
    _active = runtime


@contextmanager
def use(runtime: RuntimeConfig | None) -> Iterator[None]:
    """Install ``runtime`` for the duration of a ``with`` block.

    ``None`` is a no-op pass-through, so call sites can wrap their body
    unconditionally: ``with config.use(runtime): ...``.
    """
    if runtime is None:
        yield
        return
    global _active
    previous = _active
    _active = runtime
    try:
        yield
    finally:
        _active = previous
