"""Checkpoint store: warm-equals-cold identity, safety, maintenance.

The contract under test (DESIGN §10): a world loaded from a checkpoint
is *digest-identical* to the cold build that produced it, and any
corrupt, tampered, schema-skewed or legend-skewed entry is discarded
with a warning — never surfaced to a caller.  The digest itself must see
every element of the RIB, IHR, IRR and VRP columns it hashes: changing
any single one moves it.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.bgp.collector import RibSnapshot
from repro.datasets.arraystore import open_columns
from repro.datasets.checkpoint import (
    ARRAYS_FILE,
    MANIFEST_FILE,
    SCHEMA_VERSION,
    CheckpointStore,
    _sha256_columns,
    checkpoint_key,
    dataset_digests,
    default_store,
    world_digest,
)
from repro.delta.events import _clone_irr
from repro.experiments import common
from repro.ihr.records import IRR_STATUSES, RPKI_STATUSES
from repro.irr.database import _encode
from repro.net.prefix import Prefix, prefix_columns, prefixes_from_columns
from repro.registry.rir import RIR
from repro.rpki.rov import ROVValidator
from repro.scenario.build import build_world
from repro.scenario.config import ScenarioConfig


#: Every file a saved entry holds besides its manifest: the columns, the
#: JSON metas beside them and the two bundle files the loaders parse.
ENTRY_FILES = (
    ARRAYS_FILE,
    "topology.json",
    "scenario.json",
    "rpki.json",
    "rib.json",
    "ihr.json",
    "as-rel.txt",
    "manrs-participants.csv",
)


#: SHA-256 of each file ``save(small_world)`` writes (schema version 2).
ENTRY_PINS = {
    ARRAYS_FILE: (
        "50767d095566ab3ee11bc969ad253adadad55c7290bd11d440a671d3f18a8cdd"
    ),
    "topology.json": (
        "5eb76399ce7ea3fa4c5c552be687b2d658a26e6ca5c4d4e158101e0aeb25f70f"
    ),
    "scenario.json": (
        "c63f93657f53f1db344e0eb1f580271ba5dbe9372361f7116c52049706efc596"
    ),
    "rpki.json": (
        "6f7c9e01bdb67b16cfea6e240fad686d255fa9cc0fc9e3f28e4020816a483890"
    ),
    "rib.json": (
        "5317b22080d80aa29908650faf1ddf7a5ef4cda8613c1300c2917efea318276e"
    ),
    "ihr.json": (
        "4a892cbac2bf9e8d260adb8e2a48c51bcbfa595e4db9cde4e33b2d4a4906b1b4"
    ),
    "as-rel.txt": (
        "d311c0571f86510fc217b9e30028dfa82518c6bff11c50c956926778873970fd"
    ),
    "manrs-participants.csv": (
        "171991b80dc8a4d8c6be109c45c32ac92adee165b79cb5378026f1909c436090"
    ),
}


#: SHA-256 of each file ``save`` writes for the (0.3, 7) world that
#: ``tests/test_parity.py`` saves and reopens (schema version 2).
PARITY_ENTRY_PINS = {
    ARRAYS_FILE: (
        "29796f6e6453ecf829874ccb67e4d89ed01d97f9dc02e99dd636c060df64a3c7"
    ),
    "topology.json": (
        "1fe2a3cd67eef59cc1b68f7e9b800f730a87104c31da797869991eaae2e0a24b"
    ),
    "scenario.json": (
        "83745038be593d273ce4e9ab60c4077ac5eb4fff215f66ec59c011959e2a20fe"
    ),
    "rpki.json": (
        "0e101a6cab39bca551e4209ed90086a3c70331306e3dd3d8bfeee0180fc33796"
    ),
    "rib.json": (
        "5dd8fe4abbe77bf0a9b0544c806df7a11b51ab6a6a08f2c42fd5445d990be943"
    ),
    "ihr.json": (
        "4a892cbac2bf9e8d260adb8e2a48c51bcbfa595e4db9cde4e33b2d4a4906b1b4"
    ),
    "as-rel.txt": (
        "45a750bedd0cb7c3c22e18bd1217f71f6908e3f92fbf9d695f499d5a71bbe747"
    ),
    "manrs-participants.csv": (
        "59ddbf6efdb24e3b0057e6d53a330fd973aa7d156b5b3f52ae7ad617fd75b608"
    ),
}


@pytest.fixture(scope="module")
def saved(small_world, tmp_path_factory):
    """A store holding one pristine entry for ``small_world``."""
    store = CheckpointStore(tmp_path_factory.mktemp("ckpt"))
    store.save(small_world)
    key = checkpoint_key(
        small_world.config, small_world.scale, small_world.seed
    )
    return store, key


def _copy_store(saved, tmp_path) -> tuple[CheckpointStore, str]:
    """A private, tamperable copy of the pristine entry."""
    store, key = saved
    clone = CheckpointStore(tmp_path / "store")
    shutil.copytree(store.path_for(key), clone.path_for(key))
    return clone, key


class TestCheckpointKey:
    def test_deterministic(self):
        config = ScenarioConfig()
        assert checkpoint_key(config, 0.5, 7) == checkpoint_key(
            ScenarioConfig(), 0.5, 7
        )

    def test_scale_seed_and_config_feed_the_key(self):
        base = checkpoint_key(ScenarioConfig(), 0.5, 7)
        assert checkpoint_key(ScenarioConfig(), 0.6, 7) != base
        assert checkpoint_key(ScenarioConfig(), 0.5, 8) != base
        tweaked = ScenarioConfig(first_year=2016)
        assert checkpoint_key(tweaked, 0.5, 7) != base

    def test_key_is_hex_sha256(self):
        key = checkpoint_key(ScenarioConfig(), 1.0, 0)
        assert len(key) == 64
        int(key, 16)  # raises if not hex


class TestWarmEqualsCold:
    def test_world_digest_identity(self, saved, small_world):
        store, _ = saved
        before = obs.counters().get("checkpoint.hit", 0)
        warm = store.load(
            small_world.config, small_world.scale, small_world.seed
        )
        assert warm is not None
        assert obs.counters().get("checkpoint.hit", 0) == before + 1
        assert world_digest(warm) == world_digest(small_world)

    def test_per_dataset_digests_identical(self, saved, small_world):
        store, _ = saved
        warm = store.load(
            small_world.config, small_world.scale, small_world.seed
        )
        assert dataset_digests(warm) == dataset_digests(small_world)

    def test_warm_world_answers_queries(self, saved, small_world):
        store, _ = saved
        warm = store.load(
            small_world.config, small_world.scale, small_world.seed
        )
        assert warm.members() == small_world.members()
        assert warm.topology.asns == small_world.topology.asns
        assert warm.size_of == small_world.size_of
        assert warm.vantage_points == small_world.vantage_points
        # The lazily restored allocation index answers prefix lookups.
        delegation = small_world.address_space.delegations[0]
        assert (
            warm.address_space.holder_of(delegation.prefix) == delegation
        )

    def test_restored_allocator_refuses_new_allocations(
        self, saved, small_world
    ):
        from datetime import date

        from repro.errors import AllocationError

        store, _ = saved
        warm = store.load(
            small_world.config, small_world.scale, small_world.seed
        )
        with pytest.raises(AllocationError):
            warm.address_space.allocate(RIR.RIPE, 24, "ORG-X", date(2022, 1, 1))


# -- single-element mutations move the artifact digests ----------------------


def _index(draw, items) -> int:
    return draw(st.integers(min_value=0, max_value=len(items) - 1))


def _draw(draw, items):
    return items[_index(draw, items)]


def _bump(draw, value: int) -> int:
    return value + draw(st.integers(min_value=1, max_value=1000))


def _other(draw, current, members):
    return draw(st.sampled_from([m for m in members if m != current]))


def _always(item) -> bool:
    return True


def _bits(prefix) -> int:
    return 32 if prefix.version == 4 else 128


def _prefix_network(prefix, draw):
    """Another network of the same length and version."""
    return draw(
        st.integers(min_value=0, max_value=2 ** _bits(prefix) - 1)
        .map(lambda value: Prefix.from_host(value, prefix.length, prefix.version))
        .filter(lambda other: other != prefix)
    )


def _prefix_length(prefix, draw):
    """The same network address with a longer length."""
    length = draw(
        st.integers(min_value=prefix.length + 1, max_value=_bits(prefix))
    )
    return Prefix.from_host(prefix.value, length, prefix.version)


def _vantage_point_tuple(world, draw):
    vantage_points = list(world.rib.vantage_points)
    k = _index(draw, vantage_points)
    vantage_points[k] = _bump(draw, vantage_points[k])
    rib = RibSnapshot({"vantage_points": vantage_points}, world.rib.arrays)
    return "rib", replace(world, rib=rib)


def _rib_arrays(rib):
    """The stored form of the RIB: the snapshot's own meta and columns,
    as a checkpoint writes them and the digest hashes them."""
    return rib.meta, rib.arrays


def _ihr_arrays(ihr):
    """The stored form of the IHR tables: the dataset's own legend and
    columns, as a checkpoint writes them and the digest hashes them."""
    return ihr.meta, ihr.arrays


def _columns_with(world, artifact, **columns):
    """``(artifact, world)`` with some of that artifact's columns
    replaced."""
    part = getattr(world, artifact)
    changed = type(part)(part.meta, {**part.arrays, **columns})
    return artifact, replace(world, **{artifact: changed})


def _column_edit(artifact, name, change):
    """Mutator: one drawn element of the column ``name`` changes."""

    def mutate(world, draw):
        column = getattr(world, artifact).arrays[name].copy()
        row = _index(draw, column)
        column[row] = change(column[row].item(), draw)
        return _columns_with(world, artifact, **{name: column})

    return mutate


def _bumped_value(value, draw):
    return _bump(draw, value)


def _other_code(statuses):
    def change(code, draw):
        return _other(draw, code, range(len(statuses)))

    return change


def _other_hegemony(value, draw):
    return draw(
        st.floats(min_value=0.0, max_value=1.0).filter(
            lambda other: other != value
        )
    )


def _flipped(value, draw):
    return not value


def _shorter_than_host(prefix) -> bool:
    return prefix.length < _bits(prefix)


def _prefix_edit(artifact, name, change=_prefix_network, eligible=_always):
    """Mutator: one drawn eligible row's prefix becomes ``change`` of
    it (by default another network of its length and version)."""

    def mutate(world, draw):
        columns = getattr(world, artifact).arrays
        prefixes = prefixes_from_columns(columns, name)
        rows = [row for row, prefix in enumerate(prefixes) if eligible(prefix)]
        row = rows[_index(draw, rows)]
        changed = {}
        for key, value in prefix_columns(
            name, [change(prefixes[row], draw)]
        ).items():
            changed[key] = columns[key].copy()
            changed[key][row] = value[0]
        return _columns_with(world, artifact, **changed)

    return mutate


#: Per-group IHR columns, and the row columns each offsets column slices.
_GROUP_COLUMNS = ("tg_origin", "tg_visibility")
_SLICED_COLUMNS = {
    "tg_offsets": (
        "tg_prefix_hi",
        "tg_prefix_lo",
        "tg_prefix_len",
        "tg_prefix_ver",
        "tg_rpki",
        "tg_irr",
    ),
    "tr_offsets": ("tr_asn", "tr_hegemony", "tr_from_customer"),
}


def _group_order(world, draw):
    """Mutator: two unequal transit groups swap places."""
    columns = world.ihr.arrays
    parts = {name: list(columns[name]) for name in _GROUP_COLUMNS}
    for offsets_name, names in _SLICED_COLUMNS.items():
        offsets = columns[offsets_name].tolist()
        for name in names:
            parts[name] = [
                columns[name][begin:end]
                for begin, end in zip(offsets, offsets[1:])
            ]

    def content(g):
        return [np.asarray(part[g]).tolist() for part in parts.values()]

    groups = range(len(columns["tg_origin"]))
    i = _index(draw, groups)
    others = [g for g in groups if content(g) != content(i)]
    j = others[_index(draw, others)]
    order = list(groups)
    order[i], order[j] = j, i
    changed = {
        name: np.array([parts[name][g] for g in order], columns[name].dtype)
        for name in _GROUP_COLUMNS
    }
    for offsets_name, names in _SLICED_COLUMNS.items():
        for name in names:
            changed[name] = np.concatenate([parts[name][g] for g in order])
        lengths = [len(parts[names[0]][g]) for g in order]
        changed[offsets_name] = np.concatenate(([0], np.cumsum(lengths)))
    return _columns_with(world, "ihr", **changed)


def _rib_group_order(world, draw):
    """Mutator: two unequal RIB groups swap places.

    A group's slices nest: ``rib_ref_offsets`` slices its references,
    and each reference's path is a slice of ``rib_path_values``.  The
    group's prefix rows, references and path values move with it, and
    the three offsets columns are rebuilt from the moved lengths.
    """
    columns = world.rib.arrays
    groups = range(len(columns["rib_origin"]))
    prefix_offsets = columns["rib_prefix_offsets"].tolist()
    ref_offsets = columns["rib_ref_offsets"].tolist()
    path_offsets = columns["rib_path_offsets"].tolist()
    path_lengths = np.diff(columns["rib_path_offsets"])
    slicing = {
        "rib_origin": range(len(groups) + 1),
        "rib_rpki_invalid": range(len(groups) + 1),
        "rib_irr_invalid": range(len(groups) + 1),
        **{
            f"rib_prefix_{part}": prefix_offsets
            for part in ("hi", "lo", "len", "ver")
        },
        "rib_ref_vp": ref_offsets,
        "rib_path_values": [path_offsets[ref] for ref in ref_offsets],
    }
    parts = {
        name: [columns[name][offsets[g]:offsets[g + 1]] for g in groups]
        for name, offsets in slicing.items()
    }
    parts["path_lengths"] = [
        path_lengths[ref_offsets[g]:ref_offsets[g + 1]] for g in groups
    ]

    def content(g):
        return [part[g].tolist() for part in parts.values()]

    i = _index(draw, groups)
    others = [g for g in groups if content(g) != content(i)]
    j = others[_index(draw, others)]
    order = list(groups)
    order[i], order[j] = j, i
    moved = {
        name: np.concatenate([part[g] for g in order])
        for name, part in parts.items()
    }

    def offsets(name):
        lengths = [len(parts[name][g]) for g in order]
        return np.concatenate(([0], np.cumsum(lengths)))

    moved["rib_prefix_offsets"] = offsets("rib_prefix_lo")
    moved["rib_ref_offsets"] = offsets("rib_ref_vp")
    moved["rib_path_offsets"] = np.concatenate(
        ([0], np.cumsum(moved.pop("path_lengths")))
    )
    return _columns_with(world, "rib", **moved)


def _irr_routes(irr):
    """``(database, row, route)`` for every stored route object."""
    return [
        (database, row, route)
        for database in irr.databases
        for row, route in enumerate(database.all_routes())
    ]


def _set_row(database, row, route):
    """Store ``route`` at ``row`` of ``database`` in place of what is
    there.  New columns replace the held ones, which a clone shares with
    its source and so must not be written."""
    columns, strings = database.stored_rows()
    encoded = _encode([route])
    database._columns = {
        name: np.concatenate([column[:row], encoded[name], column[row + 1:]])
        for name, column in columns.items()
    }
    database._strings = [
        *strings[:row], [route.mnt_by, route.descr], *strings[row + 1:]
    ]
    database._keys = None


def _insert_row(database, route):
    """Add ``route`` to ``database`` at its address-order place, without
    the authoritative-space check."""
    database._merge(_encode([route]), [[route.mnt_by, route.descr]])


def _irr_route_edit(change):
    """Mutator: one drawn route object becomes ``change`` of it, in the
    same database and at the same row."""

    def mutate(world, draw):
        irr = _clone_irr(world.irr)
        database, row, route = _draw(draw, _irr_routes(irr))
        _set_row(database, row, change(route, draw))
        return "irr", replace(world, irr=irr)

    return mutate


def _route_field(field, strategy):
    """A change of one route field to another value drawn from
    ``strategy``."""

    def change(route, draw):
        current = getattr(route, field)
        return replace(
            route, **{field: draw(strategy.filter(lambda v: v != current))}
        )

    return change


_MAYBE_DATE = st.one_of(st.none(), st.dates())


def _irr_route_prefix(world, draw):
    """Mutator: one route object moves to another network of its
    length."""
    irr = _clone_irr(world.irr)
    database, _, route = _draw(draw, _irr_routes(irr))
    prefix = _prefix_network(route.prefix, draw)
    assert database.remove_route(route)
    _insert_row(database, replace(route, prefix=prefix))
    return "irr", replace(world, irr=irr)


def _irr_node_swap(world, draw):
    """Mutator: two unequal route objects of one prefix swap rows."""
    irr = _clone_irr(world.irr)
    crowded = []
    for database in irr.databases:
        rows: dict = {}
        for row, route in enumerate(database.all_routes()):
            rows.setdefault(route.prefix, []).append((row, route))
        crowded += [
            (database, group)
            for group in rows.values()
            if len({route for _, route in group}) > 1
        ]
    database, group = _draw(draw, crowded)
    i, first = _draw(draw, group)
    j, second = _draw(draw, [item for item in group if item[1] != first])
    _set_row(database, i, second)
    _set_row(database, j, first)
    return "irr", replace(world, irr=irr)


def _irr_route_database(world, draw):
    """Mutator: one route object moves to another database."""
    irr = _clone_irr(world.irr)
    database, _, route = _draw(draw, _irr_routes(irr))
    target = _draw(
        draw, [other for other in irr.databases if other is not database]
    )
    assert database.remove_route(route)
    _insert_row(target, replace(route, source=target.name))
    return "irr", replace(world, irr=irr)


def _vrp_edit(change, eligible=_always):
    """Mutator: one drawn eligible VRP becomes ``change`` of it."""

    def mutate(world, draw):
        vrps = world.rov.all_vrps()
        rows = [row for row, vrp in enumerate(vrps) if eligible(vrp)]
        row = _draw(draw, rows)
        vrps[row] = change(vrps[row], draw)
        return "vrps", replace(world, rov=ROVValidator(vrps))

    return mutate


def _vrp_max_length(vrp, draw):
    lengths = range(vrp.prefix.length, _bits(vrp.prefix) + 1)
    return replace(
        vrp, max_length=_other(draw, vrp.max_length, list(lengths))
    )


def _snapshot_date(world, draw):
    """Mutator: the snapshot date the VRP export is stamped with."""
    current = world.snapshot_date
    other = draw(st.dates().filter(lambda day: day != current))
    return "vrps", replace(
        world, config=replace(world.config, snapshot_date=other)
    )


#: One mutator per kind of stored element: each returns the artifact it
#: touched and a world differing from the base in that one element.
MUTATIONS = {
    "rib-path-hop": _column_edit("rib", "rib_path_values", _bumped_value),
    "rib-vantage-point-key": _column_edit("rib", "rib_ref_vp", _bumped_value),
    "rib-group-prefix-network": _prefix_edit("rib", "rib_prefix"),
    "rib-group-prefix-length": _prefix_edit(
        "rib", "rib_prefix", _prefix_length, _shorter_than_host
    ),
    "rib-origin": _column_edit("rib", "rib_origin", _bumped_value),
    "rib-rpki-invalid-flag": _column_edit("rib", "rib_rpki_invalid", _flipped),
    "rib-irr-invalid-flag": _column_edit("rib", "rib_irr_invalid", _flipped),
    "rib-vantage-point-tuple": _vantage_point_tuple,
    "rib-group-order": _rib_group_order,
    "ihr-prefix-origin-prefix": _prefix_edit("ihr", "po_prefix"),
    "ihr-prefix-origin-origin": _column_edit("ihr", "po_origin", _bumped_value),
    "ihr-prefix-origin-rpki": _column_edit(
        "ihr", "po_rpki", _other_code(RPKI_STATUSES)
    ),
    "ihr-prefix-origin-irr": _column_edit(
        "ihr", "po_irr", _other_code(IRR_STATUSES)
    ),
    "ihr-prefix-origin-visibility": _column_edit(
        "ihr", "po_visibility", _bumped_value
    ),
    "ihr-transit-group-origin": _column_edit("ihr", "tg_origin", _bumped_value),
    "ihr-transit-group-prefix": _prefix_edit("ihr", "tg_prefix"),
    "ihr-transit-group-visibility": _column_edit(
        "ihr", "tg_visibility", _bumped_value
    ),
    "ihr-transit-group-rpki": _column_edit(
        "ihr", "tg_rpki", _other_code(RPKI_STATUSES)
    ),
    "ihr-transit-group-irr": _column_edit(
        "ihr", "tg_irr", _other_code(IRR_STATUSES)
    ),
    "ihr-transit-asn": _column_edit("ihr", "tr_asn", _bumped_value),
    "ihr-hegemony": _column_edit("ihr", "tr_hegemony", _other_hegemony),
    "ihr-from-customer": _column_edit("ihr", "tr_from_customer", _flipped),
    "ihr-transit-group-order": _group_order,
    "irr-route-prefix": _irr_route_prefix,
    "irr-route-origin": _irr_route_edit(
        lambda route, draw: replace(route, origin=_bump(draw, route.origin))
    ),
    "irr-route-mnt-by": _irr_route_edit(_route_field("mnt_by", st.text())),
    "irr-route-descr": _irr_route_edit(_route_field("descr", st.text())),
    "irr-route-created": _irr_route_edit(_route_field("created", _MAYBE_DATE)),
    "irr-route-last-modified": _irr_route_edit(
        _route_field("last_modified", _MAYBE_DATE)
    ),
    "irr-node-order": _irr_node_swap,
    "irr-route-database": _irr_route_database,
    "vrp-prefix": _vrp_edit(
        lambda vrp, draw: replace(
            vrp, prefix=_prefix_network(vrp.prefix, draw)
        )
    ),
    "vrp-asn": _vrp_edit(
        lambda vrp, draw: replace(vrp, asn=_bump(draw, vrp.asn))
    ),
    "vrp-max-length": _vrp_edit(
        _vrp_max_length,
        lambda vrp: vrp.prefix.length < _bits(vrp.prefix),
    ),
    "vrp-trust-anchor": _vrp_edit(
        lambda vrp, draw: replace(
            vrp, trust_anchor=_other(draw, vrp.trust_anchor, list(RIR))
        )
    ),
    "vrp-snapshot-date": _snapshot_date,
}


def _crowded(world):
    """``world`` with one IRR prefix holding two route objects and one
    prefix holding two VRPs, which no built world has: equal keys are
    where a stored order could leak into the digest."""
    irr = _clone_irr(world.irr)
    database, _, route = _irr_routes(irr)[0]
    _insert_row(
        database, replace(route, origin=route.origin + 1, descr="twin")
    )
    vrps = world.rov.all_vrps()
    twin = replace(vrps[0], asn=vrps[0].asn + 1)
    return replace(world, irr=irr, rov=ROVValidator([*vrps, twin]))


@pytest.fixture(scope="module")
def digested_world():
    """A tiny world, crowded (:func:`_crowded`), with its per-artifact
    and world digests."""
    world = _crowded(build_world(scale=0.05, seed=3))
    return world, dataset_digests(world), world_digest(world)


class TestDigestMutations:
    @pytest.mark.parametrize("kind", sorted(MUTATIONS))
    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_single_element_change_moves_the_digest(
        self, digested_world, kind, data
    ):
        world, digests, digest = digested_world
        artifact, mutated = MUTATIONS[kind](world, data.draw)
        changed = dataset_digests(mutated)
        assert changed[artifact] != digests[artifact]
        assert {
            name for name in digests if changed[name] != digests[name]
        } == {artifact}
        assert world_digest(mutated) != digest

    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_vrp_load_order_leaves_the_digest(self, digested_world, data):
        world, digests, _ = digested_world
        vrps = world.rov.all_vrps()
        order = data.draw(st.sampled_from([vrps[::-1]]) | st.permutations(vrps))
        permuted = replace(world, rov=ROVValidator(order))
        assert dataset_digests(permuted) == digests

    def test_digest_renders_no_bundle_text(self, digested_world, monkeypatch):
        """The digest hashes columns: it calls none of the IRR, VRP,
        prefix2as or AS-rank bundle serialisers, wherever imported."""
        import sys

        from repro.bgp.table import serialize_prefix2as
        from repro.irr.rpsl import serialize_database
        from repro.rpki.archive import serialize_vrps
        from repro.topology.asrank import serialize_asrank

        called = []

        def spy(name):
            def serialiser(*args, **kwargs):
                called.append(name)
                raise AssertionError(f"the digest rendered {name}")

            return serialiser

        spies = {
            id(function): spy(function.__name__)
            for function in (
                serialize_database,
                serialize_vrps,
                serialize_prefix2as,
                serialize_asrank,
            )
        }
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if id(value) in spies:
                    monkeypatch.setattr(module, attribute, spies[id(value)])
        world, _, digest = digested_world
        assert world_digest(world) == digest
        assert called == []

    @pytest.mark.parametrize(
        "artifact, stored", [("rib", _rib_arrays), ("ihr", _ihr_arrays)]
    )
    def test_every_stored_column_feeds_the_digest(
        self, digested_world, artifact, stored
    ):
        # Offsets, prefix versions and the upper prefix halves cannot
        # move alone under a world mutation; change one of their
        # elements directly instead.
        meta, arrays = stored(getattr(digested_world[0], artifact))
        base = _sha256_columns(meta, arrays)
        for name, column in arrays.items():
            changed = column.copy()
            changed[-1] = (
                not changed[-1] if column.dtype == bool else changed[-1] + 1
            )
            assert _sha256_columns(meta, {**arrays, name: changed}) != base, (
                name
            )


class TestSafeFallback:
    def test_miss_on_empty_store(self, tmp_path):
        store = CheckpointStore(tmp_path / "empty")
        before = obs.counters().get("checkpoint.miss", 0)
        assert store.load(ScenarioConfig(), 0.12, 11) is None
        assert obs.counters().get("checkpoint.miss", 0) == before + 1

    def test_flipped_byte_discards_entry(self, saved, small_world, tmp_path):
        store, key = _copy_store(saved, tmp_path)
        target = store.path_for(key) / ARRAYS_FILE
        blob = bytearray(target.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        target.write_bytes(bytes(blob))
        before = obs.counters().get("checkpoint.corrupt", 0)
        assert (
            store.load(
                small_world.config, small_world.scale, small_world.seed
            )
            is None
        )
        assert obs.counters().get("checkpoint.corrupt", 0) == before + 1
        assert not store.path_for(key).exists(), "corrupt entry not removed"

    def test_schema_version_skew_discards_entry(
        self, saved, small_world, tmp_path
    ):
        store, key = _copy_store(saved, tmp_path)
        manifest_path = store.path_for(key) / MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        manifest["schema_version"] = SCHEMA_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        assert (
            store.load(
                small_world.config, small_world.scale, small_world.seed
            )
            is None
        )
        assert not store.path_for(key).exists()

    def test_garbage_manifest_discards_entry(
        self, saved, small_world, tmp_path
    ):
        store, key = _copy_store(saved, tmp_path)
        (store.path_for(key) / MANIFEST_FILE).write_text("{not json")
        assert (
            store.load(
                small_world.config, small_world.scale, small_world.seed
            )
            is None
        )
        assert not store.path_for(key).exists()

    def test_permuted_ihr_legend_discards_entry(
        self, saved, small_world, tmp_path
    ):
        """Status codes index the current enums: an entry whose IHR
        legend lists them in another order is corrupt, even with every
        file digest re-signed, and is never decoded."""
        store, key = _copy_store(saved, tmp_path)
        entry = store.path_for(key)
        legend = json.loads((entry / "ihr.json").read_text())
        legend["rpki_values"] = legend["rpki_values"][::-1]
        (entry / "ihr.json").write_text(json.dumps(legend))
        manifest_path = entry / MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        manifest["files"]["ihr.json"] = hashlib.sha256(
            (entry / "ihr.json").read_bytes()
        ).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        assert store.verify() == {key: []}
        before = obs.counters().get("checkpoint.corrupt", 0)
        assert (
            store.load(
                small_world.config, small_world.scale, small_world.seed
            )
            is None
        )
        assert obs.counters().get("checkpoint.corrupt", 0) == before + 1
        assert not entry.exists()

    @pytest.mark.parametrize("name", ENTRY_FILES)
    def test_missing_file_discards_entry(
        self, saved, small_world, tmp_path, name
    ):
        store, key = _copy_store(saved, tmp_path)
        (store.path_for(key) / name).unlink()
        assert (
            store.load(
                small_world.config, small_world.scale, small_world.seed
            )
            is None
        )
        assert not store.path_for(key).exists()


class TestMaintenance:
    def test_entry_holds_exactly_what_loaders_read(self, saved):
        store, key = saved
        manifest = json.loads(
            (store.path_for(key) / MANIFEST_FILE).read_text()
        )
        assert manifest["schema_version"] == SCHEMA_VERSION == 2
        assert sorted(manifest["files"]) == sorted(ENTRY_FILES)
        assert sorted(
            path.name for path in store.path_for(key).iterdir()
        ) == sorted([*ENTRY_FILES, MANIFEST_FILE])

    def test_saved_files_match_pins(self, saved, small_world, tmp_path):
        """``save(small_world)`` writes the pinned bytes of schema
        version 2, file for file, and so does saving the world reopened
        from that entry (its IRR is the stored columns it holds)."""
        store, key = saved
        reopened = store.load(
            small_world.config, small_world.scale, small_world.seed
        )
        resaved = CheckpointStore(tmp_path).save(reopened)
        for entry in (store.path_for(key), resaved):
            assert {
                name: hashlib.sha256((entry / name).read_bytes()).hexdigest()
                for name in ENTRY_FILES
            } == ENTRY_PINS

    def test_stored_rib_is_the_world_rib(self, saved, small_world):
        """The entry's ``rib_*`` members and ``rib.json`` are the built
        world's RIB columns and meta, byte for byte."""
        store, key = saved
        entry = store.path_for(key)
        stored = open_columns(entry / ARRAYS_FILE, mmap=False)
        names = [name for name in stored.keys() if name.startswith("rib_")]
        assert names == list(small_world.rib.arrays)
        for name, column in small_world.rib.arrays.items():
            assert stored[name].dtype == column.dtype, name
            assert stored[name].shape == column.shape, name
            assert stored[name].tobytes() == column.tobytes(), name
        assert json.loads((entry / "rib.json").read_text()) == (
            small_world.rib.meta
        )

    def test_entries_reports_saved_world(self, saved, small_world):
        store, key = saved
        infos = store.entries()
        assert [info.key for info in infos] == [key]
        info = infos[0]
        assert info.scale == small_world.scale
        assert info.seed == small_world.seed
        assert info.complete
        assert info.n_files > 5
        assert info.n_bytes > 0

    def test_verify_clean_entry(self, saved):
        store, key = saved
        assert store.verify() == {key: []}

    def test_verify_reports_tampering(self, saved, tmp_path):
        store, key = _copy_store(saved, tmp_path)
        target = store.path_for(key) / ARRAYS_FILE
        blob = bytearray(target.read_bytes())
        blob[0] ^= 0xFF
        target.write_bytes(bytes(blob))
        report = store.verify()
        assert any("digest mismatch" in p for p in report[key])

    def test_save_is_idempotent(self, saved, small_world):
        store, key = saved
        manifest_path = store.path_for(key) / MANIFEST_FILE
        stamp = manifest_path.stat().st_mtime_ns
        store.save(small_world)
        assert manifest_path.stat().st_mtime_ns == stamp

    def test_prune(self, saved, tmp_path):
        store, key = _copy_store(saved, tmp_path)
        assert store.prune(keep=1) == []
        assert store.prune(keep=0) == [key]
        assert store.entries() == []


class TestDefaultStore:
    def test_unset_env_means_no_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_store() is None

    def test_env_names_the_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ckpt"))
        store = default_store()
        assert store is not None
        assert store.root == tmp_path / "ckpt"


@pytest.fixture
def fresh_world_cache(monkeypatch):
    """Run with an empty in-memory world cache, restored afterwards."""
    snapshot = dict(common._WORLDS)
    common._WORLDS.clear()
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    yield
    common._WORLDS.clear()
    common._WORLDS.update(snapshot)


class TestWorldCacheTiers:
    def test_disk_tier_round_trip(
        self, fresh_world_cache, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ckpt"))
        cold = common.world_cache(scale=0.05, seed=5)
        store = default_store()
        assert store.has(ScenarioConfig(), 0.05, 5), "cold build not saved"
        common._WORLDS.clear()  # force a memory miss → disk hit
        before = obs.counters().get("checkpoint.hit", 0)
        warm = common.world_cache(scale=0.05, seed=5)
        assert obs.counters().get("checkpoint.hit", 0) == before + 1
        assert world_digest(warm) == world_digest(cold)

    def test_memory_tier_returns_same_object(self, fresh_world_cache):
        first = common.world_cache(scale=0.05, seed=6)
        assert common.world_cache(scale=0.05, seed=6) is first


class TestCacheCLI:
    def test_warm_list_verify_prune_cycle(self, tmp_path, capsys):
        from repro.cli import main

        root = tmp_path / "ckpt"
        args = ["--cache-dir", str(root), "--scale", "0.05", "--seed", "3"]
        assert main(["cache", "warm", *args]) == 0
        assert "stored" in capsys.readouterr().out

        assert main(["cache", "list", *args]) == 0
        out = capsys.readouterr().out
        assert "scale=0.05 seed=3" in out
        assert "1 entries" in out

        assert main(["cache", "verify", *args]) == 0
        assert "1/1 entries verified" in capsys.readouterr().out

        assert main(["cache", "prune", "--keep", "0", *args]) == 0
        assert "1 entries removed" in capsys.readouterr().out
        assert main(["cache", "list", *args]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_verify_flags_tampered_entry(self, saved, tmp_path, capsys):
        from repro.cli import main

        store, key = _copy_store(saved, tmp_path)
        target = store.path_for(key) / ARRAYS_FILE
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF
        target.write_bytes(bytes(blob))
        assert main(["cache", "verify", "--cache-dir", str(store.root)]) == 1
        assert "digest mismatch" in capsys.readouterr().out

    def test_cache_without_directory_fails(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "list"]) == 2
        assert "no cache directory" in capsys.readouterr().err
