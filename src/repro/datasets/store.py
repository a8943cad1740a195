"""Dataset export/import: write a built world out as its source datasets.

The paper works from files — prefix2as dumps, as2org, AS relationships,
VRP CSVs, IRR database dumps, the MANRS participant list.  This module
round-trips a :class:`~repro.scenario.world.World` through exactly those
file formats, so downstream users can run the analyses off disk (or feed
in their own real datasets in the same formats).
"""

from __future__ import annotations

from pathlib import Path

from repro.bgp.table import Prefix2AS, parse_prefix2as, serialize_prefix2as
from repro.irr.database import IRRCollection, IRRDatabase
from repro.irr.rpsl import parse_database, serialize_database
from repro.manrs.registry import (
    MANRSRegistry,
    parse_participants,
    serialize_participants,
)
from repro.rpki.archive import parse_vrps, serialize_vrps
from repro.rpki.roa import VRP
from repro.scenario.world import World
from repro.topology.as2org import As2Org, parse_as2org, serialize_as2org
from repro.topology.asrank import build_asrank, parse_asrank, serialize_asrank
from repro.topology.model import Relationship
from repro.topology.relationships import (
    parse_relationships,
    serialize_relationships,
)

__all__ = [
    "export_world",
    "DatasetBundle",
    "load_bundle",
    "PREFIX2AS_FILE",
    "AS2ORG_FILE",
    "RELATIONSHIPS_FILE",
    "VRPS_FILE",
    "PARTICIPANTS_FILE",
    "ASRANK_FILE",
    "IRR_SUFFIX",
]

PREFIX2AS_FILE = "prefix2as.txt"
AS2ORG_FILE = "as2org.txt"
RELATIONSHIPS_FILE = "as-rel.txt"
VRPS_FILE = "vrps.csv"
PARTICIPANTS_FILE = "manrs-participants.csv"
ASRANK_FILE = "as-rank.txt"
IRR_SUFFIX = ".irr.txt"


def export_world(world: World, directory: str | Path) -> Path:
    """Write every dataset of ``world`` into ``directory``.

    Returns the directory path.  Files use the upstream-inspired formats
    of each module's serializer.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / PREFIX2AS_FILE).write_text(serialize_prefix2as(world.prefix2as))
    (directory / AS2ORG_FILE).write_text(serialize_as2org(world.as2org))
    (directory / RELATIONSHIPS_FILE).write_text(
        serialize_relationships(world.topology)
    )
    (directory / VRPS_FILE).write_text(
        serialize_vrps(world.rov.all_vrps(), world.snapshot_date)
    )
    (directory / PARTICIPANTS_FILE).write_text(serialize_participants(world.manrs))
    (directory / ASRANK_FILE).write_text(serialize_asrank(build_asrank(world.topology)))
    for database in world.irr.databases:
        objects = list(database.all_routes())
        (directory / f"{database.name.lower()}{IRR_SUFFIX}").write_text(
            serialize_database(objects)
        )
    return directory


class DatasetBundle:
    """The datasets of one snapshot, loaded back from disk."""

    def __init__(
        self,
        prefix2as: Prefix2AS,
        as2org: As2Org,
        relationships: list[tuple[int, int, Relationship]],
        vrps: list[VRP],
        manrs: MANRSRegistry,
        irr: IRRCollection,
        asrank: list,
    ):
        self.prefix2as = prefix2as
        self.as2org = as2org
        self.relationships = relationships
        self.vrps = vrps
        self.manrs = manrs
        self.irr = irr
        self.asrank = asrank


def load_bundle(directory: str | Path) -> DatasetBundle:
    """Load a directory written by :func:`export_world`."""
    directory = Path(directory)
    irr = IRRCollection()
    for dump in sorted(directory.glob(f"*{IRR_SUFFIX}")):
        name = dump.name[: -len(IRR_SUFFIX)].upper()
        database = IRRDatabase(name)
        database.add_routes(
            [
                obj
                for obj in parse_database(dump.read_text())
                if hasattr(obj, "prefix")
            ]
        )
        irr.add_database(database)
    return DatasetBundle(
        prefix2as=parse_prefix2as((directory / PREFIX2AS_FILE).read_text()),
        as2org=parse_as2org((directory / AS2ORG_FILE).read_text()),
        relationships=parse_relationships(
            (directory / RELATIONSHIPS_FILE).read_text()
        ),
        vrps=parse_vrps((directory / VRPS_FILE).read_text()),
        manrs=parse_participants((directory / PARTICIPANTS_FILE).read_text()),
        irr=irr,
        asrank=parse_asrank((directory / ASRANK_FILE).read_text()),
    )
