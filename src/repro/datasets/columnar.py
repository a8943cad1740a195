"""The columnar-first world: checkpoint columns as the primary store.

PR 5 put numpy kernels *behind* the object APIs; this module inverts the
relationship for warm starts.  A verified checkpoint entry's integer
columns (``arrays.npz``, memory-mapped via
:mod:`repro.datasets.arraystore`) plus its small JSON metas *are* the
world — the dict-of-dataclass object graph a cold build produces is
materialised lazily, field by field, only where an experiment actually
touches it.  A consumer that reads nothing but the RIB never allocates a
single ROA object; one that only checks membership never decodes the
RIB's half-million paths, and neither does one that reads prefix2as,
which is built from the RIB's origin and prefix columns alone.  Each
field is frozen out of the cyclic GC as it materialises.

Materialisation is exact: every field goes through the checkpoint's
digest-verified ``_rebuild_*`` replay functions, so a fully materialised
:class:`LazyWorld` is byte-identical to a cold build
(``tests/test_columnar.py`` and the parity table's ``reopened-mmap``
axis pin it).  This is the only way a checkpoint opens.

All JSON metas and text files are parsed up front at open time — they
are small, and reading them eagerly (plus holding the column map's file
descriptor open) means a :class:`LazyWorld` survives its entry being
pruned from the store mid-lifetime.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro import obs
from repro.bgp.propagation import PropagationEngine
from repro.bgp.table import Prefix2AS
from repro.datasets.arraystore import ColumnSet, open_columns
from repro.datasets.store import PARTICIPANTS_FILE, RELATIONSHIPS_FILE
from repro.manrs.registry import parse_participants
from repro.registry.allocation import AddressSpace
from repro.rpki.rov import ROVValidator
from repro.scenario.config import ScenarioConfig
from repro.scenario.world import World, derive_policies
from repro.topology.as2org import As2Org
from repro.topology.classify import classify_all

__all__ = ["WorldColumns", "LazyWorld"]


class WorldColumns:
    """One checkpoint entry held in its stored, columnar form.

    ``arrays`` is the (usually memory-mapped) integer column set;
    ``meta`` the parsed JSON payloads and auxiliary texts.  Instances
    are what :class:`LazyWorld` materialises object views from.
    """

    def __init__(self, arrays: ColumnSet, meta: dict[str, object]):
        self.arrays = arrays
        self.meta = meta

    @classmethod
    def open(cls, entry: str | Path) -> "WorldColumns":
        """Open a verified checkpoint entry directory columnar-first.

        The caller is responsible for having verified the entry against
        its manifest (the checkpoint store does this before handing the
        path over); this just maps the columns and parses the metas.
        """
        from repro.datasets.checkpoint import (
            ARRAYS_FILE,
            IHR_FILE,
            RIB_FILE,
            RPKI_FILE,
            SCENARIO_FILE,
            TOPOLOGY_FILE,
        )

        entry = Path(entry)
        arrays = open_columns(entry / ARRAYS_FILE)
        meta: dict[str, object] = {
            name: json.loads((entry / name).read_text())
            for name in (
                TOPOLOGY_FILE,
                SCENARIO_FILE,
                RPKI_FILE,
                RIB_FILE,
                IHR_FILE,
            )
        }
        for name in (RELATIONSHIPS_FILE, PARTICIPANTS_FILE):
            meta[name] = (entry / name).read_text()
        obs.add("columnar.opened")
        return cls(arrays, meta)

    def scenario(self) -> dict:
        from repro.datasets.checkpoint import SCENARIO_FILE

        return self.meta[SCENARIO_FILE]  # type: ignore[return-value]


def _materializers() -> dict:
    """Field name → builder over (columns, world).

    Builders reference other world fields through plain attribute access,
    which re-enters :meth:`LazyWorld.__getattr__` and materialises the
    dependency first — the dependency graph is acyclic (it mirrors the
    cold build's construction order).
    """
    from repro.datasets import checkpoint as ckpt

    scenario = WorldColumns.scenario

    return {
        "seed": lambda c, w: scenario(c)["seed"],
        "quiescent": lambda c, w: frozenset(scenario(c)["quiescent"]),
        "vantage_points": lambda c, w: tuple(scenario(c)["vantage_points"]),
        "topology": lambda c, w: ckpt._rebuild_topology(
            c.meta[ckpt.TOPOLOGY_FILE], c.meta[RELATIONSHIPS_FILE]
        ),
        "as2org": lambda c, w: As2Org.from_topology(w.topology),
        "size_of": lambda c, w: classify_all(w.topology),
        "manrs": lambda c, w: parse_participants(c.meta[PARTICIPANTS_FILE]),
        "behaviors": lambda c, w: {
            int(asn): ckpt._rebuild_behavior(fields)
            for asn, fields in scenario(c)["behaviors"].items()
        },
        "policies": lambda c, w: derive_policies(w.topology, w.behaviors),
        "engine": lambda c, w: PropagationEngine(w.topology, w.policies),
        "address_space": lambda c, w: AddressSpace.restore(
            ckpt._rebuild_delegations(scenario(c), c.arrays)
        ),
        "originations": lambda c, w: ckpt._rebuild_originations(c.arrays),
        "rpki_repository": lambda c, w: ckpt._rebuild_rpki(
            c.meta[ckpt.RPKI_FILE], c.arrays
        ),
        "irr": lambda c, w: ckpt._rebuild_irr(scenario(c), c.arrays),
        "rov": lambda c, w: ROVValidator(
            ckpt._rebuild_vrps(scenario(c), c.arrays)
        ),
        "rib": lambda c, w: ckpt._rebuild_rib(c.meta[ckpt.RIB_FILE], c.arrays),
        "ihr": lambda c, w: ckpt._rebuild_ihr(c.meta[ckpt.IHR_FILE], c.arrays),
        # From the RIB's columns, so a warm round never decodes the RIB.
        # A RIB decoded already (a full materialize()) lends its prefix
        # objects instead: from_rib walks the same groups through the
        # same builder, and stays lazy until first queried.
        "prefix2as": lambda c, w: (
            Prefix2AS.from_rib(w.__dict__["rib"])
            if "rib" in w.__dict__
            else ckpt._rebuild_prefix2as(c.arrays)
        ),
    }


_MATERIALIZERS: dict | None = None


class LazyWorld(World):
    """A :class:`~repro.scenario.world.World` whose fields are columnar views.

    Constructed without running the dataclass ``__init__``: only
    ``config`` and the backing :class:`WorldColumns` are installed up
    front, and every other field materialises on first attribute access
    through the checkpoint's replay functions.  Downstream code
    cannot tell the difference (it is an instance of ``World`` holding
    the exact same objects once touched) — it simply pays only for what
    it reads.
    """

    @classmethod
    def from_columns(
        cls, columns: WorldColumns, config: ScenarioConfig
    ) -> "LazyWorld":
        world = object.__new__(cls)
        world.__dict__["config"] = config
        world.__dict__["_columns"] = columns
        # ``scale`` is the one dataclass field with a default, which
        # lives as a *class* attribute — plain attribute access would
        # find that 1.0 and never reach __getattr__.  Install the real
        # value eagerly (the scenario meta is already parsed).
        world.__dict__["scale"] = columns.scenario()["scale"]
        return world

    def __getattr__(self, name: str):
        # Only dataclass fields materialise; anything else (including the
        # backing _columns when absent) is a genuine miss.  Guarding the
        # underscore space also keeps pickling/copying protocols sane.
        if name.startswith("_"):
            raise AttributeError(name)
        global _MATERIALIZERS
        if _MATERIALIZERS is None:
            _MATERIALIZERS = _materializers()
        build = _MATERIALIZERS.get(name)
        columns = self.__dict__.get("_columns")
        if build is None or columns is None:
            raise AttributeError(name)
        # The replay allocates the same long-lived acyclic objects a cold
        # build does: pause the cyclic GC for the burst and freeze what
        # survives, like the builder, so no later collection re-scans
        # the field.  The freeze also happens under an outer pause (fig6
        # first reads prefix2as inside its saturation sweep's).
        with obs.span(f"columnar.materialize.{name}"), obs.gc_paused(
            freeze=True
        ):
            value = build(columns, self)
        self.__dict__[name] = value
        obs.add(f"columnar.materialized.{name}")
        return value

    def materialized_fields(self) -> frozenset[str]:
        """Fields already decoded into objects (for tests/diagnostics)."""
        return frozenset(
            name for name in self.__dict__ if not name.startswith("_")
        )

    def materialize(self) -> "LazyWorld":
        """Force every field; afterwards the columns are no longer needed."""
        global _MATERIALIZERS
        if _MATERIALIZERS is None:
            _MATERIALIZERS = _materializers()
        for name in _MATERIALIZERS:
            getattr(self, name)
        return self

    def __getstate__(self):
        # A pickled lazy world must not drag the mmap across process
        # boundaries: force full materialisation and ship plain fields.
        self.materialize()
        return {
            name: value
            for name, value in self.__dict__.items()
            if not name.startswith("_")
        }

    def __setstate__(self, state):
        self.__dict__.update(state)
