"""Checkpoint store: warm-equals-cold identity, safety, maintenance.

The contract under test (DESIGN §10): a world loaded from a checkpoint
is *digest-identical* to the cold build that produced it, and any
corrupt, tampered or schema-skewed entry is discarded with a warning —
never surfaced to a caller.  The digest itself must see every element
of the RIB and IHR columns it hashes: changing any single one moves it.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.datasets.checkpoint import (
    ARRAYS_FILE,
    MANIFEST_FILE,
    SCHEMA_VERSION,
    CheckpointStore,
    _ihr_arrays,
    _rib_arrays,
    _sha256_columns,
    checkpoint_key,
    dataset_digests,
    default_store,
    world_digest,
)
from repro.experiments import common
from repro.irr.validation import IRRStatus
from repro.net.prefix import Prefix
from repro.rpki.rov import RPKIStatus
from repro.scenario.build import build_world
from repro.scenario.config import ScenarioConfig
from repro.scenario.timeline import Timeline


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
        from repro.registry.rir import RIR

        store, _ = saved
        warm = store.load(
            small_world.config, small_world.scale, small_world.seed
        )
        with pytest.raises(AllocationError):
            warm.address_space.allocate(RIR.RIPE, 24, "ORG-X", date(2022, 1, 1))


# -- single-element mutations move the rib/ihr digests -----------------------


def _index(draw, items) -> int:
    return draw(st.integers(min_value=0, max_value=len(items) - 1))


def _bump(draw, value: int) -> int:
    return value + draw(st.integers(min_value=1, max_value=1000))


def _other(draw, current, members):
    return draw(st.sampled_from([m for m in members if m != current]))


def _always(item) -> bool:
    return True


def _change_one(draw, items, change, eligible=_always):
    """``items`` with one drawn eligible element replaced by ``change(it)``."""
    candidates = [i for i, item in enumerate(items) if eligible(item)]
    pick = candidates[_index(draw, candidates)]
    items = list(items)
    items[pick] = change(items[pick])
    return items


def _with(world, artifact, **fields):
    """``(artifact, world)`` with some fields of that artifact replaced."""
    part = replace(getattr(world, artifact), **fields)
    return artifact, replace(world, **{artifact: part})


def _element_change(artifact, field, change, eligible=_always):
    """Mutator: one drawn element of ``world.<artifact>.<field>`` changes."""

    def mutate(world, draw):
        items = _change_one(
            draw,
            getattr(getattr(world, artifact), field),
            lambda item: change(item, draw),
            eligible,
        )
        return _with(world, artifact, **{field: items})

    return mutate


def _order_change(artifact, field):
    """Mutator: two unequal elements of ``world.<artifact>.<field>`` swap."""

    def mutate(world, draw):
        items = list(getattr(getattr(world, artifact), field))
        i = _index(draw, items)
        others = [k for k, item in enumerate(items) if item != items[i]]
        j = others[_index(draw, others)]
        items[i], items[j] = items[j], items[i]
        return _with(world, artifact, **{field: items})

    return mutate


def _has_paths(group) -> bool:
    return bool(group.paths)


def _path_hop(group, draw):
    vp = list(group.paths)[_index(draw, group.paths)]
    path = list(group.paths[vp])
    hop = _index(draw, path)
    path[hop] = _bump(draw, path[hop])
    return replace(group, paths={**group.paths, vp: tuple(path)})


def _bumped(field):
    def mutate(item, draw):
        return replace(item, **{field: _bump(draw, getattr(item, field))})

    return mutate


def _dict_key(field):
    """Mutator: one key of the ``field`` dict becomes an unused one."""

    def mutate(item, draw):
        mapping = getattr(item, field)
        entries = list(mapping.items())
        k = _index(draw, entries)
        entries[k] = (_bump(draw, max(mapping)), entries[k][1])
        return replace(item, **{field: dict(entries)})

    return mutate


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


def _group_prefix(change):
    def mutate(group, draw):
        prefixes = _change_one(
            draw, group.prefixes, lambda prefix: change(prefix, draw)
        )
        return replace(group, prefixes=tuple(prefixes))

    return mutate


def _record_prefix(record, draw):
    return replace(record, prefix=_prefix_network(record.prefix, draw))


def _route_class_flag(flag):
    def mutate(group, draw):
        flipped = not getattr(group.route_class, flag)
        return replace(
            group, route_class=replace(group.route_class, **{flag: flipped})
        )

    return mutate


def _vantage_point_tuple(world, draw):
    vantage_points = list(world.rib.vantage_points)
    k = _index(draw, vantage_points)
    vantage_points[k] = _bump(draw, vantage_points[k])
    return _with(world, "rib", vantage_points=tuple(vantage_points))


def _record_status(field, members):
    def mutate(record, draw):
        status = _other(draw, getattr(record, field), members)
        return replace(record, **{field: status})

    return mutate


def _group_status(position, members):
    def mutate(group, draw):
        statuses = list(group.statuses)
        k = _index(draw, statuses)
        pair = list(statuses[k])
        pair[position] = _other(draw, pair[position], members)
        statuses[k] = tuple(pair)
        return replace(group, statuses=tuple(statuses))

    return mutate


def _transit(change):
    def mutate(group, draw):
        transit = list(group.transits)[_index(draw, group.transits)]
        info = change(group.transits[transit], draw)
        return replace(group, transits={**group.transits, transit: info})

    return mutate


def _hegemony(info, draw):
    return replace(
        info,
        hegemony=draw(
            st.floats(min_value=0.0, max_value=1.0).filter(
                lambda value: value != info.hegemony
            )
        ),
    )


def _from_customer(info, draw):
    return replace(info, from_customer=not info.from_customer)


#: One mutator per kind of RIB/IHR element: each returns the artifact it
#: touched and a world differing from the base in that one element.
MUTATIONS = {
    "rib-path-hop": _element_change("rib", "groups", _path_hop, _has_paths),
    "rib-vantage-point-key": _element_change(
        "rib", "groups", _dict_key("paths"), _has_paths
    ),
    "rib-group-prefix-network": _element_change(
        "rib", "groups", _group_prefix(_prefix_network)
    ),
    "rib-group-prefix-length": _element_change(
        "rib", "groups", _group_prefix(_prefix_length)
    ),
    "rib-origin": _element_change("rib", "groups", _bumped("origin")),
    "rib-rpki-invalid-flag": _element_change(
        "rib", "groups", _route_class_flag("rpki_invalid")
    ),
    "rib-irr-invalid-flag": _element_change(
        "rib", "groups", _route_class_flag("irr_invalid")
    ),
    "rib-vantage-point-tuple": _vantage_point_tuple,
    "rib-group-order": _order_change("rib", "groups"),
    "ihr-prefix-origin-prefix": _element_change(
        "ihr", "prefix_origins", _record_prefix
    ),
    "ihr-prefix-origin-origin": _element_change(
        "ihr", "prefix_origins", _bumped("origin")
    ),
    "ihr-prefix-origin-rpki": _element_change(
        "ihr", "prefix_origins", _record_status("rpki", list(RPKIStatus))
    ),
    "ihr-prefix-origin-irr": _element_change(
        "ihr", "prefix_origins", _record_status("irr", list(IRRStatus))
    ),
    "ihr-prefix-origin-visibility": _element_change(
        "ihr", "prefix_origins", _bumped("visibility")
    ),
    "ihr-transit-group-origin": _element_change(
        "ihr", "transit_groups", _bumped("origin")
    ),
    "ihr-transit-group-prefix": _element_change(
        "ihr", "transit_groups", _group_prefix(_prefix_network)
    ),
    "ihr-transit-group-visibility": _element_change(
        "ihr", "transit_groups", _bumped("visibility")
    ),
    "ihr-transit-group-rpki": _element_change(
        "ihr", "transit_groups", _group_status(0, list(RPKIStatus))
    ),
    "ihr-transit-group-irr": _element_change(
        "ihr", "transit_groups", _group_status(1, list(IRRStatus))
    ),
    "ihr-transit-asn": _element_change(
        "ihr", "transit_groups", _dict_key("transits")
    ),
    "ihr-hegemony": _element_change(
        "ihr", "transit_groups", _transit(_hegemony)
    ),
    "ihr-from-customer": _element_change(
        "ihr", "transit_groups", _transit(_from_customer)
    ),
    "ihr-transit-group-order": _order_change("ihr", "transit_groups"),
}


@pytest.fixture(scope="module")
def digested_world():
    """A tiny world with its per-artifact and world digests."""
    world = build_world(scale=0.05, seed=3)
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


class TestTimelineYearSnapshots:
    def test_year_restore_matches_fresh_validation(
        self, saved, small_world
    ):
        store, _ = saved
        writer = Timeline(small_world, store=store)
        year = writer.years[0]
        fresh = writer.rov_at(year)
        before = obs.counters().get("timeline.rov_years_restored", 0)
        reader = Timeline(small_world, store=store)
        restored = reader.rov_at(year)
        assert (
            obs.counters().get("timeline.rov_years_restored", 0)
            == before + 1
        )
        assert set(restored.all_vrps()) == set(fresh.all_vrps())

    def test_corrupt_year_snapshot_recomputes(self, saved, small_world):
        store, key = saved
        writer = Timeline(small_world, store=store)
        year = writer.years[-1]
        fresh = writer.rov_at(year)
        path = store.year_path(key, year)
        path.write_text(path.read_text() + "tamper\n")
        before = obs.counters().get("checkpoint.corrupt", 0)
        reader = Timeline(small_world, store=store)
        recomputed = reader.rov_at(year)
        assert obs.counters().get("checkpoint.corrupt", 0) == before + 1
        assert set(recomputed.all_vrps()) == set(fresh.all_vrps())
        # The discarded snapshot is re-saved for the next run.
        assert path.is_file()


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
