"""Content-addressed on-disk checkpoints of built worlds.

Every CLI run, experiment and benchmark consumes a built
:class:`~repro.scenario.world.World`; building one from scratch costs
seconds at full scale.  This module persists finished worlds as
integrity-checked directory entries so later processes warm-start
instead of rebuilding — the measurement analogue of pinning input
snapshots (Reuter et al. stress exactly this for reproducible RPKI
measurement).

An entry is keyed by ``sha256(canonical(config), scale, seed, schema)``
and contains exactly the files its loaders read:

* ``arrays.npz``: every bulk column (prefixes, paths, rows), one
  uncompressed archive that warm starts memory-map;
* the small JSON metas beside those columns: ``topology.json`` (org/AS
  records), ``scenario.json`` (behaviours, delegation orgs, quiescent
  set, vantage points, IRR database strings and non-route objects),
  ``rpki.json`` (certificate rows), ``rib.json`` and ``ihr.json``
  (vantage points, status legends);
* two dataset-bundle files: ``as-rel.txt`` (the topology's links) and
  ``manrs-participants.csv``;
* ``MANIFEST.json`` with the schema version, the canonical key inputs
  and a SHA-256 digest per file.

The full dataset bundle is :func:`~repro.datasets.store.export_world`'s
job (``repro export``); entries do not carry it.

Loading is safe by default: any digest mismatch, schema-version skew or
parse error logs a warning, discards the entry and reports a miss so the
caller falls back to a cold build.  A warm-started world is
digest-identical to a cold build (asserted by ``tests/test_checkpoint``)
— :func:`dataset_digests` / :func:`world_digest` define that identity.
The RIB and IHR digests hash the same columns the entry stores; the
other artifacts hash their bundle serialisations.

Hit/miss/corrupt/save counts land in the :mod:`repro.obs` metrics
registry under ``checkpoint.*``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import shutil
import time
from itertools import chain
from dataclasses import dataclass
from datetime import date
from enum import Enum
from pathlib import Path

import numpy as np

from repro import config as _config
from repro import obs
from repro.bgp.collector import RibSnapshot, RouteGroup
from repro.bgp.policy import ROUTE_CLASSES
from repro.bgp.table import Prefix2AS, serialize_prefix2as
from repro.datasets.arraystore import ColumnWriter
from repro.datasets.columnar import LazyWorld, WorldColumns
from repro.datasets.store import PARTICIPANTS_FILE, RELATIONSHIPS_FILE
from repro.ihr.records import (
    IHRDataset,
    PrefixOriginRecord,
    TransitGroup,
    TransitInfo,
)
from repro.irr.database import IRRCollection, IRRDatabase
from repro.irr.objects import AsSetObject, AutNumObject, RouteObject
from repro.irr.rpsl import serialize_database
from repro.irr.validation import IRRStatus
from repro.manrs.actions import Program
from repro.manrs.registry import serialize_participants
from repro.net.prefix import Prefix
from repro.registry.allocation import Delegation
from repro.registry.rir import RIR
from repro.rpki.archive import parse_vrps, serialize_vrps
from repro.rpki.ca import ResourceCertificate, RPKIRepository
from repro.rpki.roa import ROA, VRP
from repro.rpki.rov import RPKIStatus
from repro.scenario.config import ScenarioConfig
from repro.scenario.world import ASBehavior, Origination, World
from repro.topology.as2org import serialize_as2org
from repro.topology.asrank import build_asrank, serialize_asrank
from repro.topology.model import (
    ASCategory,
    ASTopology,
    AutonomousSystem,
    Organization,
)
from repro.topology.relationships import (
    parse_relationships,
    serialize_relationships,
)

__all__ = [
    "SCHEMA_VERSION",
    "CACHE_DIR_ENV",
    "RESERVED_DIRS",
    "CheckpointError",
    "CheckpointInfo",
    "CheckpointStore",
    "canonical_config",
    "checkpoint_key",
    "content_key",
    "dataset_digests",
    "default_store",
    "fold_digests",
    "world_digest",
]

log = logging.getLogger(__name__)

#: Bumped whenever the entry layout or any serialisation format changes;
#: entries written under another version are discarded on load.
SCHEMA_VERSION = 2

#: Environment variable naming the on-disk store root (unset = disabled).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Store subdirectories that are not world entries: the sweep ledgers and
#: the serve layer's rendered-result cache live beside the
#: content-addressed entries and are skipped by
#: :meth:`CheckpointStore.entries`/``verify``/``prune``.  ``bench`` held
#: the benchmark ledger of earlier releases; it stays reserved so a store
#: that still has one is not read as a corrupt entry.
RESERVED_DIRS = ("sweeps", "results", "bench")

MANIFEST_FILE = "MANIFEST.json"
TOPOLOGY_FILE = "topology.json"
SCENARIO_FILE = "scenario.json"
RPKI_FILE = "rpki.json"
RIB_FILE = "rib.json"
IHR_FILE = "ihr.json"
ARRAYS_FILE = "arrays.npz"
YEARS_DIR = "years"

_JSON_COMPACT = {"sort_keys": False, "separators": (",", ":")}


class CheckpointError(Exception):
    """A checkpoint entry failed verification or reconstruction."""


# -- canonical config form and the content key ------------------------------


def _canonical(value):
    """Recursively convert config values into a canonical JSON shape."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, dict):
        return {_canonical_key(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_canonical(item) for item in value]
        return sorted(items, key=repr) if isinstance(value, (set, frozenset)) else items
    return value


def _canonical_key(key) -> str:
    """Flatten a (possibly tuple) dict key into one string."""
    if isinstance(key, tuple):
        return "|".join(str(_canonical(part)) for part in key)
    part = _canonical(key)
    return part if isinstance(part, str) else str(part)


def canonical_config(config: ScenarioConfig) -> dict:
    """The scenario config as a canonical, JSON-serialisable mapping.

    Two configs with equal parameters canonicalise identically regardless
    of dict insertion order, so the content key is stable across
    processes and hash seeds.
    """
    return _canonical(config)


def checkpoint_key(config: ScenarioConfig, scale: float, seed: int) -> str:
    """Content key of one (config, scale, seed, schema) build input."""
    payload = json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "scale": scale,
            "seed": seed,
            "config": canonical_config(config),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def content_key(payload: object, kind: str = "") -> str:
    """Content digest of any canonicalisable payload.

    The generic form of :func:`checkpoint_key`: dataclasses, enums,
    dates, sets and tuple-keyed dicts are reduced to one canonical JSON
    shape and hashed, so equal values produce equal keys across
    processes and hash seeds.  ``kind`` namespaces unrelated users (a
    sweep job id and a checkpoint entry built from the same mapping must
    not collide); callers version their own payloads.
    """
    body = json.dumps(
        {"kind": kind, "payload": _canonical(payload)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode()).hexdigest()


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _sha256_bytes(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _sha256_chunks(chunks) -> str:
    """Digest a stream of text pieces: identical to hashing the joined
    string (UTF-8 encoding concatenates chunk-wise) without holding it."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode())
    return digest.hexdigest()


def _sha256_file(path: Path, chunk_bytes: int = 1 << 20) -> str:
    """Chunked file digest: identical to ``_sha256_bytes(read_bytes())``
    without ever buffering the whole file (arrays.npz is the world)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_bytes)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def _sha256_columns(meta: dict, arrays: dict[str, np.ndarray]) -> str:
    """Digest one stored ``(meta, columns)`` pair.

    The canonical meta JSON comes first, then each column's name, dtype,
    shape and C-order bytes in the order ``arrays`` holds them.  The
    header fixes how many bytes follow it, so no two column sets hash
    the same byte stream.
    """
    digest = hashlib.sha256(
        json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    )
    for name, column in arrays.items():
        header = [name, column.dtype.str, list(column.shape)]
        digest.update(json.dumps(header, separators=(",", ":")).encode())
        digest.update(np.ascontiguousarray(column).data)
    return digest.hexdigest()


# -- stored forms: JSON metas + numpy columns, order-preserving --------------


def _int_array(values: list) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


_U64_MASK = (1 << 64) - 1


def _prefix_arrays(name: str, prefixes: list[Prefix]) -> dict[str, np.ndarray]:
    """Four parallel columns storing prefixes as integers.

    A prefix is ``(value, length, version)``; the value is up to 128
    bits, split into two unsigned-64 halves.  Integer columns decode
    with :meth:`Prefix._from_trusted` in a fraction of the time text
    columns take to parse (and at a quarter of the bytes of ``U18``
    unicode storage).
    """
    values = [p.value for p in prefixes]
    return {
        f"{name}_hi": np.asarray(
            [v >> 64 for v in values], dtype=np.uint64
        ),
        f"{name}_lo": np.asarray(
            [v & _U64_MASK for v in values], dtype=np.uint64
        ),
        f"{name}_len": np.asarray(
            [p.length for p in prefixes], dtype=np.uint8
        ),
        f"{name}_ver": np.asarray(
            [p.version for p in prefixes], dtype=np.uint8
        ),
    }


def _prefix_list(arrays, name: str) -> list[Prefix]:
    """Decode one :func:`_prefix_arrays` column set back to prefixes."""
    make = Prefix._from_trusted  # noqa: SLF001 - digest-verified replay
    return [
        make((hi << 64) | lo if hi else lo, length, version)
        for hi, lo, length, version in zip(
            arrays[f"{name}_hi"].tolist(),
            arrays[f"{name}_lo"].tolist(),
            arrays[f"{name}_len"].tolist(),
            arrays[f"{name}_ver"].tolist(),
        )
    ]


def _replay(cls, fields: dict):
    """Construct a frozen dataclass instance from digest-verified fields.

    Frozen-dataclass ``__init__`` routes every assignment through
    ``object.__setattr__`` and re-runs ``__post_init__`` validation; at
    checkpoint-load row counts (hundreds of thousands) that overhead
    dominated reconstruction.  The rows replayed here were produced by
    live instances of the same classes and digest-verified on disk, so
    the instance dict is installed directly.  ``fields`` must name every
    dataclass field (defaults included) and is owned by the new instance
    afterwards.
    """
    obj = object.__new__(cls)
    # Plain attribute assignment would hit the frozen __setattr__ (which
    # also rejects __dict__ itself); updating the instance dict in place
    # bypasses it.
    obj.__dict__.update(fields)
    return obj


def _rib_arrays(rib: RibSnapshot) -> tuple[dict, dict[str, np.ndarray]]:
    """The stored form of a RIB: a small JSON meta + flat numpy columns.

    Ragged structure (per-group prefix lists, the path table, per-group
    path references) is flattened into value + offset arrays.  Binary
    columns decode orders of magnitude faster than the equivalent JSON
    — the RIB is by far the largest derived structure, and its decode
    dominated warm-start time as JSON.

    The path table stores one path per (group, vantage point) reference,
    in reference order, so ``rib_ref_offsets`` slices it per group just
    as it slices ``rib_ref_vp``.  Deduplicating repeated paths would
    remove only ~4% of the rows on real worlds but needs a tuple-keyed
    hash table spanning the whole RIB, which at large scales cost
    hundreds of MB of save-time RSS; rows stream straight into
    preallocated columns instead.

    These columns, in this order, are also what the ``rib`` digest
    hashes (:func:`dataset_digests`).
    """
    groups = rib.groups
    n = len(groups)
    origins = np.empty(n, dtype=np.int64)
    rpki_flags = np.empty(n, dtype=np.bool_)
    irr_flags = np.empty(n, dtype=np.bool_)
    ref_offsets = np.zeros(n + 1, dtype=np.int64)
    prefix_offsets = np.zeros(n + 1, dtype=np.int64)
    for i, group in enumerate(groups):
        origins[i] = group.origin
        rpki_flags[i] = group.route_class.rpki_invalid
        irr_flags[i] = group.route_class.irr_invalid
        ref_offsets[i + 1] = len(group.paths)
        prefix_offsets[i + 1] = len(group.prefixes)
    np.cumsum(ref_offsets, out=ref_offsets)
    np.cumsum(prefix_offsets, out=prefix_offsets)
    total_refs = int(ref_offsets[-1])
    ref_vp = np.empty(total_refs, dtype=np.int64)
    # Inclusive cumsum over per-path lengths shifted one slot right
    # turns the length buffer into the offsets column in place.
    path_offsets = np.zeros(total_refs + 1, dtype=np.int64)
    prefixes: list[Prefix] = []
    pos = 0
    for group in groups:
        k = len(group.paths)
        if k:
            ref_vp[pos:pos + k] = list(group.paths.keys())
            path_offsets[pos + 1:pos + 1 + k] = [
                len(path) for path in group.paths.values()
            ]
            pos += k
        prefixes.extend(group.prefixes)
    np.cumsum(path_offsets, out=path_offsets)
    path_values = np.fromiter(
        chain.from_iterable(
            chain.from_iterable(
                group.paths.values() for group in groups
            )
        ),
        dtype=np.int64,
        count=int(path_offsets[-1]),
    )
    meta = {"vantage_points": list(rib.vantage_points)}
    arrays = {
        "rib_origin": origins,
        "rib_rpki_invalid": rpki_flags,
        "rib_irr_invalid": irr_flags,
        **_prefix_arrays("rib_prefix", prefixes),
        "rib_prefix_offsets": prefix_offsets,
        "rib_path_values": path_values,
        "rib_path_offsets": path_offsets,
        "rib_ref_vp": ref_vp,
        "rib_ref_offsets": ref_offsets,
    }
    return meta, arrays


def _rebuild_rib(meta: dict, arrays) -> RibSnapshot:
    path_values = arrays["rib_path_values"].tolist()
    path_offsets = arrays["rib_path_offsets"].tolist()
    # The path table is large (one entry per (vantage point, group)
    # reference — a million-plus at full scale), so it is rebuilt with
    # map() over slice objects rather than an index-arithmetic loop.
    path_table = list(
        map(
            tuple,
            map(
                path_values.__getitem__,
                map(slice, path_offsets, path_offsets[1:]),
            ),
        )
    )
    origins = arrays["rib_origin"].tolist()
    rpki_flags = arrays["rib_rpki_invalid"].tolist()
    irr_flags = arrays["rib_irr_invalid"].tolist()
    prefixes = _prefix_list(arrays, "rib_prefix")
    prefix_offsets = arrays["rib_prefix_offsets"].tolist()
    ref_vp = arrays["rib_ref_vp"].tolist()
    ref_offsets = arrays["rib_ref_offsets"].tolist()
    groups = [
        _replay(
            RouteGroup,
            {
                "origin": origins[g],
                "route_class": ROUTE_CLASSES[(rpki_flags[g], irr_flags[g])],
                "prefixes": tuple(
                    prefixes[prefix_offsets[g]:prefix_offsets[g + 1]]
                ),
                "paths": dict(
                    zip(
                        ref_vp[ref_offsets[g]:ref_offsets[g + 1]],
                        path_table[ref_offsets[g]:ref_offsets[g + 1]],
                    )
                ),
            },
        )
        for g in range(len(origins))
    ]
    return RibSnapshot(
        vantage_points=tuple(meta["vantage_points"]), groups=groups
    )


def _rebuild_prefix2as(arrays) -> Prefix2AS:
    """prefix2as straight from the stored RIB columns.

    Feeds :meth:`Prefix2AS.from_groups` the groups :meth:`Prefix2AS.from_rib`
    walks over the decoded RIB, in the same order: a group is visible
    when its ``rib_ref_offsets`` slice is non-empty.  No path is decoded
    and no ``RouteGroup`` is built.
    """
    origins = arrays["rib_origin"].tolist()
    prefixes = _prefix_list(arrays, "rib_prefix")
    prefix_offsets = arrays["rib_prefix_offsets"].tolist()
    ref_offsets = arrays["rib_ref_offsets"].tolist()
    return Prefix2AS.from_groups(
        (origin, prefixes[prefix_offsets[g]:prefix_offsets[g + 1]])
        for g, origin in enumerate(origins)
        if ref_offsets[g] != ref_offsets[g + 1]
    )


#: Enum ``__call__`` is surprisingly expensive at checkpoint-load call
#: counts (hundreds of thousands of status lookups); plain dicts are ~5x
#: cheaper and raise KeyError on unknown values just as safely.
_RPKI_BY_VALUE = {status.value: status for status in RPKIStatus}
_IRR_BY_VALUE = {status.value: status for status in IRRStatus}


def _ihr_arrays(ihr: IHRDataset) -> tuple[dict, dict[str, np.ndarray]]:
    """The stored form of the IHR tables: JSON meta + flat numpy columns.

    Statuses are stored as indexes into per-enum legends recorded in the
    meta, so an entry written under a different enum definition fails the
    legend lookup loudly (→ corrupt fallback) instead of silently
    reinterpreting codes.  Prefix/status columns of the transit groups
    are parallel (aligned with ``prefixes``) and share one offsets array.

    These columns, in this order, are also what the ``ihr`` digest
    hashes (:func:`dataset_digests`).
    """
    rpki_index = {status: i for i, status in enumerate(RPKIStatus)}
    irr_index = {status: i for i, status in enumerate(IRRStatus)}
    po = ihr.prefix_origins
    tg_prefix: list[Prefix] = []
    tg_rpki: list[int] = []
    tg_irr: list[int] = []
    tg_offsets = [0]
    tr_asn: list[int] = []
    tr_hegemony: list[float] = []
    tr_from_customer: list[bool] = []
    tr_offsets = [0]
    for group in ihr.transit_groups:
        tg_prefix.extend(group.prefixes)
        tg_rpki.extend(rpki_index[rpki] for rpki, _ in group.statuses)
        tg_irr.extend(irr_index[irr] for _, irr in group.statuses)
        tg_offsets.append(len(tg_prefix))
        for transit, info in group.transits.items():
            tr_asn.append(transit)
            tr_hegemony.append(info.hegemony)
            tr_from_customer.append(info.from_customer)
        tr_offsets.append(len(tr_asn))
    meta = {
        "rpki_values": [status.value for status in RPKIStatus],
        "irr_values": [status.value for status in IRRStatus],
    }
    arrays = {
        **_prefix_arrays("po_prefix", [r.prefix for r in po]),
        "po_origin": _int_array([r.origin for r in po]),
        "po_rpki": _int_array([rpki_index[r.rpki] for r in po]),
        "po_irr": _int_array([irr_index[r.irr] for r in po]),
        "po_visibility": _int_array([r.visibility for r in po]),
        "tg_origin": _int_array([g.origin for g in ihr.transit_groups]),
        "tg_visibility": _int_array(
            [g.visibility for g in ihr.transit_groups]
        ),
        **_prefix_arrays("tg_prefix", tg_prefix),
        "tg_rpki": _int_array(tg_rpki),
        "tg_irr": _int_array(tg_irr),
        "tg_offsets": _int_array(tg_offsets),
        "tr_asn": _int_array(tr_asn),
        "tr_hegemony": np.asarray(tr_hegemony, dtype=np.float64),
        "tr_from_customer": np.asarray(tr_from_customer, dtype=np.bool_),
        "tr_offsets": _int_array(tr_offsets),
    }
    return meta, arrays


def _rebuild_ihr(meta: dict, arrays) -> IHRDataset:
    rpki_legend = [_RPKI_BY_VALUE[value] for value in meta["rpki_values"]]
    irr_legend = [_IRR_BY_VALUE[value] for value in meta["irr_values"]]
    prefix_origins = [
        _replay(
            PrefixOriginRecord,
            {
                "prefix": prefix,
                "origin": origin,
                "rpki": rpki_legend[rpki],
                "irr": irr_legend[irr],
                "visibility": visibility,
            },
        )
        for prefix, origin, rpki, irr, visibility in zip(
            _prefix_list(arrays, "po_prefix"),
            arrays["po_origin"].tolist(),
            arrays["po_rpki"].tolist(),
            arrays["po_irr"].tolist(),
            arrays["po_visibility"].tolist(),
        )
    ]
    tg_prefix = _prefix_list(arrays, "tg_prefix")
    tg_rpki = arrays["tg_rpki"].tolist()
    tg_irr = arrays["tg_irr"].tolist()
    tg_offsets = arrays["tg_offsets"].tolist()
    tr_asn = arrays["tr_asn"].tolist()
    tr_hegemony = arrays["tr_hegemony"].tolist()
    tr_from_customer = arrays["tr_from_customer"].tolist()
    tr_offsets = arrays["tr_offsets"].tolist()
    transit_groups = [
        _replay(
            TransitGroup,
            {
                "origin": origin,
                "prefixes": tuple(tg_prefix[tg_offsets[g]:tg_offsets[g + 1]]),
                "statuses": tuple(
                    (rpki_legend[tg_rpki[j]], irr_legend[tg_irr[j]])
                    for j in range(tg_offsets[g], tg_offsets[g + 1])
                ),
                "transits": {
                    tr_asn[j]: _replay(
                        TransitInfo,
                        {
                            "hegemony": tr_hegemony[j],
                            "from_customer": tr_from_customer[j],
                        },
                    )
                    for j in range(tr_offsets[g], tr_offsets[g + 1])
                },
                "visibility": visibility,
            },
        )
        for g, (origin, visibility) in enumerate(
            zip(arrays["tg_origin"].tolist(), arrays["tg_visibility"].tolist())
        )
    ]
    return IHRDataset(prefix_origins=prefix_origins, transit_groups=transit_groups)


def _topology_payload(topology: ASTopology) -> dict:
    return {
        "orgs": [
            [org.org_id, org.name, org.country]
            for org in topology.organizations
        ],
        "ases": [
            [
                record.asn,
                record.org_id,
                record.country,
                record.rir.value,
                record.category.value,
            ]
            # _ases preserves generator insertion order; org.asns append
            # order depends on it, so replay must follow the same order.
            for record in (
                topology.get_as(asn) for asn in topology._ases  # noqa: SLF001
            )
        ],
    }


def _rebuild_topology(payload: dict, relationships_text: str) -> ASTopology:
    topology = ASTopology()
    for org_id, name, country in payload["orgs"]:
        topology.add_org(Organization(org_id=org_id, name=name, country=country))
    for asn, org_id, country, rir, category in payload["ases"]:
        topology.add_as(
            AutonomousSystem(
                asn=asn,
                org_id=org_id,
                country=country,
                rir=RIR(rir),
                category=ASCategory(category),
            )
        )
    for a, b, relationship in parse_relationships(relationships_text):
        topology.add_link(a, b, relationship)
    return topology


def _rpki_payload(
    repository: RPKIRepository,
) -> tuple[dict, dict[str, np.ndarray]]:
    """The stored RPKI repository: JSON meta + flat numpy columns.

    Certificate resources and ROA rows are the prefix/date-heavy parts;
    they live in the shared ``arrays.npz`` like the RIB and scenario
    rows.  RIRs are stored as legend indexes (see ``rir_values``).
    """
    rir_index = {rir: i for i, rir in enumerate(RIR)}
    certs = list(repository.certificates.values())
    resources: list[Prefix] = []
    res_offsets = [0]
    for cert in certs:
        resources.extend(cert.resources)
        res_offsets.append(len(resources))
    roas = repository.roas
    meta = {
        "next_cert": repository._next_cert,  # noqa: SLF001
        "rir_values": [rir.value for rir in RIR],
        "certificates": [
            [
                cert.certificate_id,
                cert.subject,
                cert.issuer_id,
                rir_index[cert.trust_anchor],
                cert.not_before.toordinal(),
                cert.not_after.toordinal(),
                cert.revoked,
            ]
            for cert in certs
        ],
        "roa_cert_ids": [roa.certificate_id for roa in roas],
    }
    arrays = {
        **_prefix_arrays("cert_res", resources),
        "cert_res_offsets": _int_array(res_offsets),
        **_prefix_arrays("roa_prefix", [r.prefix for r in roas]),
        "roa_asn": _int_array([r.asn for r in roas]),
        "roa_maxlen": np.asarray(
            [r.max_length for r in roas], dtype=np.uint8
        ),
        "roa_not_before": _int_array(
            [r.not_before.toordinal() for r in roas]
        ),
        "roa_not_after": _int_array([r.not_after.toordinal() for r in roas]),
    }
    return meta, arrays


def _rebuild_rpki(payload: dict, arrays) -> RPKIRepository:
    rir_legend = [_RIR_BY_VALUE[value] for value in payload["rir_values"]]
    resources = _prefix_list(arrays, "cert_res")
    res_offsets = arrays["cert_res_offsets"].tolist()
    from_ordinal = date.fromordinal
    certificates = {
        cert_id: _replay(
            ResourceCertificate,
            {
                "certificate_id": cert_id,
                "subject": subject,
                "resources": tuple(
                    resources[res_offsets[i]:res_offsets[i + 1]]
                ),
                "issuer_id": issuer_id,
                "trust_anchor": rir_legend[trust_anchor],
                "not_before": from_ordinal(not_before),
                "not_after": from_ordinal(not_after),
                "revoked": revoked,
            },
        )
        for i, (
            cert_id,
            subject,
            issuer_id,
            trust_anchor,
            not_before,
            not_after,
            revoked,
        ) in enumerate(payload["certificates"])
    }
    roas = [
        _replay(
            ROA,
            {
                "prefix": prefix,
                "asn": asn,
                "max_length": max_length,
                "certificate_id": certificate_id,
                "not_before": from_ordinal(not_before),
                "not_after": from_ordinal(not_after),
            },
        )
        for prefix, asn, max_length, certificate_id, not_before, not_after in zip(
            _prefix_list(arrays, "roa_prefix"),
            arrays["roa_asn"].tolist(),
            arrays["roa_maxlen"].tolist(),
            payload["roa_cert_ids"],
            arrays["roa_not_before"].tolist(),
            arrays["roa_not_after"].tolist(),
        )
    ]
    return RPKIRepository(
        certificates=certificates, roas=roas, _next_cert=payload["next_cert"]
    )


def _behavior_payload(behavior: ASBehavior) -> list:
    return [
        behavior.member,
        behavior.program.value if behavior.program is not None else None,
        behavior.rpki_fraction,
        behavior.rpki_misconfig_count,
        behavior.irr_fraction,
        behavior.irr_stale_fraction,
        behavior.rov,
        behavior.filter_customers,
        behavior.filter_coverage,
        behavior.rpki_adoption_year,
    ]


def _rebuild_behavior(fields: list) -> ASBehavior:
    (
        member,
        program,
        rpki_fraction,
        rpki_misconfig_count,
        irr_fraction,
        irr_stale_fraction,
        rov,
        filter_customers,
        filter_coverage,
        rpki_adoption_year,
    ) = fields
    return ASBehavior(
        member=member,
        program=Program(program) if program is not None else None,
        rpki_fraction=rpki_fraction,
        rpki_misconfig_count=rpki_misconfig_count,
        irr_fraction=irr_fraction,
        irr_stale_fraction=irr_stale_fraction,
        rov=rov,
        filter_customers=filter_customers,
        filter_coverage=filter_coverage,
        rpki_adoption_year=rpki_adoption_year,
    )


#: RIR values are stored as indexes into this legend (recorded in the
#: scenario meta), mirroring the status legends of the IHR arrays.
_RIR_BY_VALUE = {rir.value: rir for rir in RIR}


def _date_ordinal(value: date | None) -> int:
    """Dates as proleptic-Gregorian ordinals; 0 encodes ``None``."""
    return value.toordinal() if value is not None else 0


def _scenario_payload(world: World) -> tuple[dict, dict[str, np.ndarray]]:
    """The stored scenario state: JSON meta + flat numpy columns.

    Everything prefix- or date-heavy (originations, delegations, VRPs,
    IRR route rows) lives in integer columns of the shared ``arrays.npz``;
    the JSON side keeps the strings and small structures.  Row order is
    the respective source iteration order, which the rebuilds replay
    exactly (IRR rows in particular must re-insert in ``all_routes()``
    order to reproduce within-node trie ordering).
    """
    rir_index = {rir: i for i, rir in enumerate(RIR)}
    originations = [
        o for rows in world.originations.values() for o in rows
    ]
    orig_offsets = [0]
    for rows in world.originations.values():
        orig_offsets.append(orig_offsets[-1] + len(rows))
    delegations = world.address_space.delegations
    vrps = world.rov.all_vrps()
    irr_routes: list[RouteObject] = []
    irr_offsets = [0]
    for database in world.irr.databases:
        irr_routes.extend(database.all_routes())
        irr_offsets.append(len(irr_routes))
    meta = {
        "seed": world.seed,
        "scale": world.scale,
        "quiescent": sorted(world.quiescent),
        "vantage_points": list(world.vantage_points),
        "rir_values": [rir.value for rir in RIR],
        "behaviors": {
            str(asn): _behavior_payload(behavior)
            for asn, behavior in world.behaviors.items()
        },
        "delegation_orgs": [d.org_id for d in delegations],
        "irr_databases": [
            {
                "name": database.name,
                "authoritative_for": (
                    database.authoritative_for.value
                    if database.authoritative_for is not None
                    else None
                ),
                # Per-row string fields, parallel to the route columns
                # in the arrays (route rows duplicate the RPSL dumps in
                # the bundle; reloading them skips the RPSL parser).
                "route_strings": [
                    [route.mnt_by, route.descr]
                    for route in irr_routes[
                        irr_offsets[i]:irr_offsets[i + 1]
                    ]
                ],
                # aut-num and as-set objects, structured (the route
                # dumps in the dataset bundle carry route objects only,
                # and re-parsing RPSL text was measurably slow).
                "aut_nums": [
                    [
                        a.asn,
                        a.as_name,
                        a.source,
                        a.mnt_by,
                        a.admin_c,
                        a.tech_c,
                        list(a.import_lines),
                        list(a.export_lines),
                        (
                            a.last_modified.isoformat()
                            if a.last_modified
                            else None
                        ),
                    ]
                    for a in database._aut_nums.values()  # noqa: SLF001
                ],
                "as_sets": [
                    [s.name, list(s.members), s.source, s.mnt_by]
                    for s in database._as_sets.values()  # noqa: SLF001
                ],
            }
            for i, database in enumerate(world.irr.databases)
        ],
    }
    arrays = {
        "orig_asn": _int_array(list(world.originations)),
        "orig_offsets": _int_array(orig_offsets),
        **_prefix_arrays("orig_prefix", [o.prefix for o in originations]),
        **_prefix_arrays("orig_block", [o.block for o in originations]),
        "orig_legacy": np.asarray(
            [o.legacy for o in originations], dtype=np.bool_
        ),
        "orig_deagg": np.asarray(
            [o.deaggregated for o in originations], dtype=np.bool_
        ),
        **_prefix_arrays("del_prefix", [d.prefix for d in delegations]),
        "del_rir": np.asarray(
            [rir_index[d.rir] for d in delegations], dtype=np.uint8
        ),
        "del_date": _int_array(
            [_date_ordinal(d.allocated_on) for d in delegations]
        ),
        "del_legacy": np.asarray(
            [d.legacy for d in delegations], dtype=np.bool_
        ),
        **_prefix_arrays("vrp_prefix", [v.prefix for v in vrps]),
        "vrp_asn": _int_array([v.asn for v in vrps]),
        "vrp_maxlen": np.asarray(
            [v.max_length for v in vrps], dtype=np.uint8
        ),
        "vrp_ta": np.asarray(
            [rir_index[v.trust_anchor] for v in vrps], dtype=np.uint8
        ),
        **_prefix_arrays("irr_prefix", [r.prefix for r in irr_routes]),
        "irr_origin": _int_array([r.origin for r in irr_routes]),
        "irr_created": _int_array(
            [_date_ordinal(r.created) for r in irr_routes]
        ),
        "irr_modified": _int_array(
            [_date_ordinal(r.last_modified) for r in irr_routes]
        ),
        "irr_offsets": _int_array(irr_offsets),
    }
    return meta, arrays


def _rebuild_originations(arrays) -> dict[int, tuple[Origination, ...]]:
    prefixes = _prefix_list(arrays, "orig_prefix")
    blocks = _prefix_list(arrays, "orig_block")
    legacy = arrays["orig_legacy"].tolist()
    deagg = arrays["orig_deagg"].tolist()
    offsets = arrays["orig_offsets"].tolist()
    return {
        asn: tuple(
            _replay(
                Origination,
                {
                    "asn": asn,
                    "prefix": prefixes[j],
                    "block": blocks[j],
                    "legacy": legacy[j],
                    "deaggregated": deagg[j],
                },
            )
            for j in range(offsets[i], offsets[i + 1])
        )
        for i, asn in enumerate(arrays["orig_asn"].tolist())
    }


def _rebuild_delegations(meta: dict, arrays) -> list[Delegation]:
    rir_legend = [_RIR_BY_VALUE[value] for value in meta["rir_values"]]
    from_ordinal = date.fromordinal
    return [
        _replay(
            Delegation,
            {
                "prefix": prefix,
                "rir": rir_legend[rir],
                "org_id": org_id,
                "allocated_on": from_ordinal(ordinal),
                "legacy": legacy,
            },
        )
        for prefix, rir, org_id, ordinal, legacy in zip(
            _prefix_list(arrays, "del_prefix"),
            arrays["del_rir"].tolist(),
            meta["delegation_orgs"],
            arrays["del_date"].tolist(),
            arrays["del_legacy"].tolist(),
        )
    ]


def _rebuild_vrps(meta: dict, arrays) -> list[VRP]:
    rir_legend = [_RIR_BY_VALUE[value] for value in meta["rir_values"]]
    return [
        _replay(
            VRP,
            {
                "prefix": prefix,
                "asn": asn,
                "max_length": max_length,
                "trust_anchor": rir_legend[ta],
            },
        )
        for prefix, asn, max_length, ta in zip(
            _prefix_list(arrays, "vrp_prefix"),
            arrays["vrp_asn"].tolist(),
            arrays["vrp_maxlen"].tolist(),
            arrays["vrp_ta"].tolist(),
        )
    ]


def _rebuild_irr(meta: dict, arrays) -> IRRCollection:
    prefixes = _prefix_list(arrays, "irr_prefix")
    origins = arrays["irr_origin"].tolist()
    created = arrays["irr_created"].tolist()
    modified = arrays["irr_modified"].tolist()
    offsets = arrays["irr_offsets"].tolist()
    from_ordinal = date.fromordinal
    irr = IRRCollection()
    for i, db_meta in enumerate(meta["irr_databases"]):
        authoritative = db_meta["authoritative_for"]
        name = db_meta["name"]
        database = IRRDatabase(
            name,
            authoritative_for=RIR(authoritative) if authoritative else None,
        )
        # Rows are stored in all_routes() (address) order; re-inserting
        # in that order reproduces the within-node value ordering, so a
        # re-export of the warm database is byte-identical to the dump.
        # Inserts go straight into the trie: add_route's source and
        # authoritative-space checks were already enforced when the cold
        # build registered these exact routes, and re-running them
        # dominated warm-start time.  The address ordering also makes
        # the rows a valid insert_sorted stream.
        start, end = offsets[i], offsets[i + 1]
        route_objects = [
            _replay(
                RouteObject,
                {
                    "prefix": prefixes[j],
                    "origin": origins[j],
                    "source": name,
                    "mnt_by": mnt_by,
                    "descr": descr,
                    "created": (
                        from_ordinal(created[j]) if created[j] else None
                    ),
                    "last_modified": (
                        from_ordinal(modified[j]) if modified[j] else None
                    ),
                },
            )
            for j, (mnt_by, descr) in zip(
                range(start, end), db_meta["route_strings"]
            )
        ]
        database._routes.insert_sorted(  # noqa: SLF001
            (route.prefix, route) for route in route_objects
        )
        database._version = end - start  # noqa: SLF001
        for row in db_meta["aut_nums"]:
            (
                asn,
                as_name,
                source,
                mnt_by,
                admin_c,
                tech_c,
                import_lines,
                export_lines,
                last_modified,
            ) = row
            database.add_aut_num(
                AutNumObject(
                    asn=asn,
                    as_name=as_name,
                    source=source,
                    mnt_by=mnt_by,
                    admin_c=admin_c,
                    tech_c=tech_c,
                    import_lines=tuple(import_lines),
                    export_lines=tuple(export_lines),
                    last_modified=(
                        date.fromisoformat(last_modified)
                        if last_modified
                        else None
                    ),
                )
            )
        for s_name, members, source, mnt_by in db_meta["as_sets"]:
            database.add_as_set(
                AsSetObject(
                    name=s_name,
                    members=tuple(members),
                    source=source,
                    mnt_by=mnt_by,
                )
            )
        irr.add_database(database)
    return irr


# -- world identity digests -------------------------------------------------


def dataset_digests(world: World) -> dict[str, str]:
    """Per-artifact SHA-256 digests of a world.

    The RIB and the IHR tables are hashed from the columns a checkpoint
    entry stores for them (:func:`_sha256_columns` over
    :func:`_rib_arrays` / :func:`_ihr_arrays`); every other artifact is
    hashed as rendered by its dataset-bundle serialiser, so two worlds
    with equal digests export byte-identical files.  This is the
    identity the golden-digest suite pins and the warm-equals-cold tests
    assert.
    """
    # Each artifact is hashed as soon as it is rendered, so digesting
    # never holds more than one serialisation resident at a time.
    return {
        "prefix2as": _sha256_text(serialize_prefix2as(world.prefix2as)),
        "as2org": _sha256_text(serialize_as2org(world.as2org)),
        "relationships": _sha256_text(
            serialize_relationships(world.topology)
        ),
        "vrps": _sha256_text(
            serialize_vrps(world.rov.all_vrps(), world.snapshot_date)
        ),
        "participants": _sha256_text(
            serialize_participants(world.manrs)
        ),
        "asrank": _sha256_text(
            serialize_asrank(build_asrank(world.topology))
        ),
        "irr": _sha256_chunks(
            f"% {database.name}\n"
            + serialize_database(list(database.all_routes()))
            for database in world.irr.databases
        ),
        "rib": _sha256_columns(*_rib_arrays(world.rib)),
        "ihr": _sha256_columns(*_ihr_arrays(world.ihr)),
    }


def fold_digests(digests: dict[str, str]) -> str:
    """The world digest of precomputed :func:`dataset_digests`."""
    payload = json.dumps(digests, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def world_digest(world: World) -> str:
    """One digest over all of :func:`dataset_digests` (sorted by name)."""
    return fold_digests(dataset_digests(world))


# -- the store ---------------------------------------------------------------


@dataclass(frozen=True)
class CheckpointInfo:
    """Summary of one stored entry (as listed by ``repro cache list``)."""

    key: str
    path: Path
    scale: float | None
    seed: int | None
    created: float | None
    n_files: int
    n_bytes: int
    complete: bool


class CheckpointStore:
    """A content-addressed directory of world checkpoints."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    # -- paths --------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / key

    def _manifest_path(self, key: str) -> Path:
        return self.path_for(key) / MANIFEST_FILE

    def has(self, config: ScenarioConfig, scale: float, seed: int) -> bool:
        """True if an entry exists for these build inputs (unverified)."""
        return self._manifest_path(checkpoint_key(config, scale, seed)).is_file()

    # -- save ---------------------------------------------------------------

    def save(self, world: World) -> Path:
        """Persist ``world`` under its content key; returns the entry path.

        Writing is atomic-ish: the entry is assembled in a temporary
        sibling directory and renamed into place, so a crashed writer
        never leaves a half-entry under a valid key.  An existing entry
        for the same key is left untouched (content-addressed entries
        for equal inputs hold equal bytes).
        """
        key = checkpoint_key(world.config, world.scale, world.seed)
        entry = self.path_for(key)
        if (entry / MANIFEST_FILE).is_file():
            return entry
        self.root.mkdir(parents=True, exist_ok=True)
        staging = self.root / f".staging-{key[:16]}-{os.getpid()}"
        if staging.exists():
            shutil.rmtree(staging)
        with obs.span("checkpoint.save", key=key[:12]):
            staging.mkdir()
            # One stage's columns are alive at a time: each stage's
            # arrays stream into the archive (same member order np.savez
            # produced) and are released before the next stage is even
            # built, so save-time RSS no longer doubles the world.
            with ColumnWriter(staging / ARRAYS_FILE) as writer:
                rib_meta, stage_arrays = _rib_arrays(world.rib)
                writer.write_all(stage_arrays)
                ihr_meta, stage_arrays = _ihr_arrays(world.ihr)
                writer.write_all(stage_arrays)
                scenario_meta, stage_arrays = _scenario_payload(world)
                writer.write_all(stage_arrays)
                rpki_meta, stage_arrays = _rpki_payload(world.rpki_repository)
                writer.write_all(stage_arrays)
                del stage_arrays
            payloads = {
                TOPOLOGY_FILE: _topology_payload(world.topology),
                SCENARIO_FILE: scenario_meta,
                RPKI_FILE: rpki_meta,
                RIB_FILE: rib_meta,
                IHR_FILE: ihr_meta,
            }
            for name, payload in payloads.items():
                (staging / name).write_text(
                    json.dumps(payload, **_JSON_COMPACT)
                )
            # The two dataset-bundle files the loaders parse; the full
            # bundle is export_world's job (``repro export``).
            (staging / RELATIONSHIPS_FILE).write_text(
                serialize_relationships(world.topology)
            )
            (staging / PARTICIPANTS_FILE).write_text(
                serialize_participants(world.manrs)
            )
            files = {
                path.name: _sha256_file(path)
                for path in sorted(staging.iterdir())
            }
            manifest = {
                "schema_version": SCHEMA_VERSION,
                "key": key,
                "scale": world.scale,
                "seed": world.seed,
                "config": canonical_config(world.config),
                "created": time.time(),
                "files": files,
            }
            (staging / MANIFEST_FILE).write_text(
                json.dumps(manifest, indent=1, sort_keys=True)
            )
            try:
                os.replace(staging, entry)
            except OSError:
                # Raced with another writer: keep theirs, drop ours.
                shutil.rmtree(staging, ignore_errors=True)
        obs.add("checkpoint.saved")
        return entry

    # -- rendered-result payloads (the serve layer's cache) -----------------

    def result_path(self, key: str) -> Path:
        """Where the rendered-result payload for ``key`` lives on disk."""
        return self.root / "results" / f"{key}.json"

    def save_result(self, key: str, payload: dict) -> Path:
        """Persist one rendered-result payload under its content key.

        Results live under ``<root>/results/<key>.json`` beside the world
        entries, wrapped with a digest over the canonical record so a
        truncated or hand-edited file is detected on load.  Writing is
        atomic (temp file + rename), and an existing entry for the same
        key is left untouched — content-addressed keys for equal inputs
        hold equal payloads.
        """
        path = self.result_path(key)
        if path.is_file():
            return path
        record = {
            "schema_version": SCHEMA_VERSION,
            "key": key,
            "created": time.time(),
            "payload": payload,
        }
        record["sha256"] = _sha256_text(
            json.dumps(record, sort_keys=True, separators=(",", ":"))
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        staging = path.parent / f".staging-{key[:16]}-{os.getpid()}.json"
        staging.write_text(json.dumps(record, sort_keys=True, indent=1))
        try:
            os.replace(staging, path)
        except OSError:
            staging.unlink(missing_ok=True)
        obs.add("checkpoint.result_saved")
        return path

    def load_result(self, key: str) -> dict | None:
        """The stored rendered-result payload for ``key``, or None.

        Mirrors :meth:`load`'s corrupt-entry contract: digest mismatches,
        schema skew and parse errors log a warning, discard the file,
        count ``checkpoint.result_corrupt`` and fall back to a miss —
        callers never see a tampered payload.
        """
        path = self.result_path(key)
        if not path.is_file():
            obs.add("checkpoint.result_miss")
            return None
        try:
            record = json.loads(path.read_text())
            stated = record.pop("sha256")
            computed = _sha256_text(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
            )
            if stated != computed:
                raise CheckpointError("result digest mismatch")
            if record.get("schema_version") != SCHEMA_VERSION:
                raise CheckpointError("result schema skew")
            if record.get("key") != key:
                raise CheckpointError("result key mismatch")
            payload = record["payload"]
        except Exception as error:  # noqa: BLE001 - corrupt entry = miss
            log.warning("discarding corrupt result %s: %s", key[:16], error)
            path.unlink(missing_ok=True)
            obs.add("checkpoint.result_corrupt")
            return None
        obs.add("checkpoint.result_hit")
        return payload

    def result_keys(self) -> list[str]:
        """Keys of every stored result payload (unverified)."""
        results_dir = self.root / "results"
        if not results_dir.is_dir():
            return []
        return sorted(
            path.stem
            for path in results_dir.glob("*.json")
            if not path.name.startswith(".")
        )

    # -- load ---------------------------------------------------------------

    def load(
        self,
        config: ScenarioConfig,
        scale: float,
        seed: int,
        mode: str = "columnar",
    ) -> LazyWorld | None:
        """Open the world for these inputs, or None on any problem.

        The verified columns are memory-mapped and every field
        materialises lazily (:class:`~repro.datasets.columnar.LazyWorld`);
        a fully materialised world is digest-identical to a cold build.

        Never raises for a bad entry: digest mismatches, schema skew and
        parse errors log a warning, discard the entry, count
        ``checkpoint.corrupt`` and fall back to a miss.

        ``columnar`` is the only ``mode``; any other value raises
        :class:`ValueError`, since the eager load mode was removed.
        """
        if mode != "columnar":
            raise ValueError(
                f"mode={mode!r}: the eager load mode was removed; a "
                "checkpoint only opens columnar, as a LazyWorld"
            )
        key = checkpoint_key(config, scale, seed)
        entry = self.path_for(key)
        if not (entry / MANIFEST_FILE).is_file():
            obs.add("checkpoint.miss")
            return None
        try:
            # Parsing the metas allocates long-lived, acyclic objects
            # that live as long as the world; pause the cyclic GC for
            # the open and freeze its survivors, like build_world does,
            # so later collections never re-scan them.  Each field's
            # materialisation pauses the GC again for its own burst.
            with obs.span("checkpoint.load", key=key[:12]), obs.gc_paused(
                freeze=True
            ):
                manifest = self._read_manifest(entry)
                problems = self._verify_files(entry, manifest)
                if problems:
                    raise CheckpointError("; ".join(problems))
                world = LazyWorld.from_columns(WorldColumns.open(entry), config)
        except Exception as error:  # noqa: BLE001 - fall back to cold build
            log.warning(
                "discarding corrupt checkpoint %s (%s); falling back to a "
                "cold build",
                key[:12],
                error,
            )
            obs.add("checkpoint.corrupt")
            shutil.rmtree(entry, ignore_errors=True)
            return None
        obs.add("checkpoint.hit")
        return world

    def _read_manifest(self, entry: Path) -> dict:
        manifest = json.loads((entry / MANIFEST_FILE).read_text())
        version = manifest.get("schema_version")
        if version != SCHEMA_VERSION:
            raise CheckpointError(
                f"schema version skew: entry has {version!r}, "
                f"loader expects {SCHEMA_VERSION}"
            )
        return manifest

    def _verify_files(self, entry: Path, manifest: dict) -> list[str]:
        problems = []
        for name, expected in sorted(manifest.get("files", {}).items()):
            path = entry / name
            if not path.is_file():
                problems.append(f"{name}: missing")
                continue
            if _sha256_file(path) != expected:
                problems.append(f"{name}: digest mismatch")
        years = entry / YEARS_DIR
        if years.is_dir():
            for path in sorted(years.glob("*.csv")):
                sidecar = path.with_suffix(".csv.sha256")
                if not sidecar.is_file():
                    problems.append(f"{YEARS_DIR}/{path.name}: no digest")
                elif _sha256_text(path.read_text()) != sidecar.read_text().strip():
                    problems.append(f"{YEARS_DIR}/{path.name}: digest mismatch")
        return problems

    # -- timeline year side-cars --------------------------------------------

    def year_path(self, key: str, year: int) -> Path:
        return self.path_for(key) / YEARS_DIR / f"vrps-{year}.csv"

    def save_year_vrps(
        self, key: str, year: int, vrps: list[VRP], as_of: date
    ) -> Path:
        """Persist one year-end VRP snapshot next to its world entry."""
        path = self.year_path(key, year)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = serialize_vrps(vrps, as_of)
        path.write_text(text)
        path.with_suffix(".csv.sha256").write_text(_sha256_text(text) + "\n")
        obs.add("checkpoint.year_saved")
        return path

    def load_year_vrps(
        self, key: str, year: int, strict: bool = False
    ) -> list[VRP] | None:
        """One stored year-end VRP snapshot, or None when absent.

        A snapshot that is present but fails its sidecar digest (or does
        not parse) is discarded either way; with ``strict=False`` that is
        silently folded into the absent case, with ``strict=True`` a
        :class:`CheckpointError` is raised after cleanup so callers can
        tell "never saved" apart from "saved but corrupt" (the timeline
        counts the latter separately).
        """
        path = self.year_path(key, year)
        sidecar = path.with_suffix(".csv.sha256")
        if not path.is_file() or not sidecar.is_file():
            return None
        try:
            text = path.read_text()
            if _sha256_text(text) != sidecar.read_text().strip():
                raise CheckpointError("digest mismatch")
            return parse_vrps(text)
        except Exception as error:  # noqa: BLE001 - recompute instead
            log.warning(
                "discarding corrupt year snapshot %s (%s)", path, error
            )
            obs.add("checkpoint.corrupt")
            path.unlink(missing_ok=True)
            sidecar.unlink(missing_ok=True)
            if strict:
                raise CheckpointError(
                    f"corrupt year snapshot for {key} year {year}: {error}"
                ) from error
            return None

    # -- maintenance (the `repro cache` subcommand) -------------------------

    def entries(self) -> list[CheckpointInfo]:
        """All entries, most recently created first."""
        infos = []
        if not self.root.is_dir():
            return infos
        for path in sorted(self.root.iterdir()):
            if not path.is_dir() or path.name.startswith("."):
                continue
            if path.name in RESERVED_DIRS:
                continue
            manifest_path = path / MANIFEST_FILE
            scale = seed = created = None
            complete = False
            if manifest_path.is_file():
                try:
                    manifest = json.loads(manifest_path.read_text())
                    scale = manifest.get("scale")
                    seed = manifest.get("seed")
                    created = manifest.get("created")
                    complete = manifest.get("schema_version") == SCHEMA_VERSION
                except (OSError, ValueError):
                    pass
            files = [p for p in path.rglob("*") if p.is_file()]
            infos.append(
                CheckpointInfo(
                    key=path.name,
                    path=path,
                    scale=scale,
                    seed=seed,
                    created=created,
                    n_files=len(files),
                    n_bytes=sum(p.stat().st_size for p in files),
                    complete=complete,
                )
            )
        infos.sort(key=lambda info: (info.created or 0.0), reverse=True)
        return infos

    def verify(self) -> dict[str, list[str]]:
        """Per-entry verification problems (empty list = entry is sound)."""
        report: dict[str, list[str]] = {}
        for info in self.entries():
            if not info.complete:
                report[info.key] = ["manifest missing or schema skew"]
                continue
            try:
                manifest = self._read_manifest(info.path)
                report[info.key] = self._verify_files(info.path, manifest)
            except Exception as error:  # noqa: BLE001 - report, don't raise
                report[info.key] = [str(error)]
        return report

    def prune(self, keep: int = 0) -> list[str]:
        """Delete entries beyond the ``keep`` most recent; returns keys."""
        removed = []
        for info in self.entries()[max(0, keep):]:
            shutil.rmtree(info.path, ignore_errors=True)
            removed.append(info.key)
        return removed


def default_store() -> CheckpointStore | None:
    """The store named by the active runtime config, or None when unset.

    Resolved through :func:`repro.config.current` (falling back to
    ``REPRO_CACHE_DIR``).
    """
    root = _config.current().cache_dir
    return CheckpointStore(root) if root else None
