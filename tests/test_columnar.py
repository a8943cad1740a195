"""Columnar-first warm starts: mmap identity, laziness, safe fallbacks.

The contract under test (DESIGN §13): a memory-mapped, lazily
materialised world is digest-identical to the cold build, and it is the
only way a checkpoint opens; anything wrong with the column archive —
truncation, corruption, unmappable layout — warns and falls back (eager
column decode, or discard-and-cold-build), never surfacing a broken
world.
"""

from __future__ import annotations

import gc
import shutil

import numpy as np
import pytest

from repro import obs
from repro.bgp.table import serialize_prefix2as
from repro.datasets.arraystore import open_columns
from repro.datasets.checkpoint import (
    ARRAYS_FILE,
    CheckpointStore,
    checkpoint_key,
    world_digest,
)
from repro.datasets.columnar import LazyWorld


@pytest.fixture(scope="module")
def saved(small_world, tmp_path_factory):
    """A store holding one pristine entry for ``small_world``."""
    store = CheckpointStore(tmp_path_factory.mktemp("columnar"))
    store.save(small_world)
    key = checkpoint_key(
        small_world.config, small_world.scale, small_world.seed
    )
    return store, key


def _copy_store(saved, tmp_path) -> tuple[CheckpointStore, str]:
    store, key = saved
    clone = CheckpointStore(tmp_path / "store")
    shutil.copytree(store.path_for(key), clone.path_for(key))
    return clone, key


class TestColumnSet:
    def test_mapped_views_equal_eager_arrays(self, saved):
        store, key = saved
        path = store.path_for(key) / ARRAYS_FILE
        mapped = open_columns(path, mmap=True)
        eager = open_columns(path, mmap=False)
        try:
            assert mapped.mapped and not eager.mapped
            assert sorted(mapped.keys()) == sorted(eager.keys())
            for name in mapped.keys():
                a, b = mapped[name], eager[name]
                assert a.dtype == b.dtype and a.shape == b.shape
                assert np.array_equal(a, b)
        finally:
            mapped.close()

    def test_compressed_archive_falls_back_to_eager(self, tmp_path, caplog):
        path = tmp_path / "compressed.npz"
        with open(path, "wb") as handle:
            np.savez_compressed(handle, a=np.arange(5, dtype=np.int64))
        with caplog.at_level("WARNING"):
            columns = open_columns(path, mmap=True)
        assert not columns.mapped
        assert np.array_equal(columns["a"], np.arange(5))
        assert any("falling back" in r.message for r in caplog.records)

    def test_truncated_archive_raises_from_eager_path(self, saved, tmp_path):
        store, key = saved
        source = store.path_for(key) / ARRAYS_FILE
        clipped = tmp_path / "clipped.npz"
        clipped.write_bytes(source.read_bytes()[: source.stat().st_size // 2])
        # The map attempt downgrades to eager; eager decode then raises
        # to the caller's corrupt-entry handling.
        with pytest.raises(Exception):
            open_columns(clipped, mmap=True)


class TestLazyWorld:
    def test_digest_identical_across_load_modes(self, saved, small_world):
        store, _ = saved
        lazy = store.load(
            small_world.config, small_world.scale, small_world.seed
        )
        assert isinstance(lazy, LazyWorld)
        assert world_digest(lazy) == world_digest(small_world)

    def test_eager_mode_was_removed(self, saved, small_world):
        store, _ = saved
        with pytest.raises(ValueError, match="eager load mode was removed"):
            store.load(
                small_world.config,
                small_world.scale,
                small_world.seed,
                mode="eager",
            )

    def test_fields_materialise_on_demand_only(self, saved, small_world):
        store, _ = saved
        lazy = store.load(
            small_world.config, small_world.scale, small_world.seed
        )
        assert lazy.materialized_fields() <= {"config", "scale"}
        assert lazy.scale == small_world.scale
        _ = lazy.rib
        fields = lazy.materialized_fields()
        assert "rib" in fields
        assert "rpki_repository" not in fields
        assert "engine" not in fields
        assert "prefix2as" not in fields
        _ = lazy.prefix2as
        assert lazy.materialized_fields() == fields | {"prefix2as"}

    def test_prefix2as_reads_the_rib_columns_not_the_rib(
        self, saved, small_world
    ):
        store, _ = saved
        lazy = store.load(
            small_world.config, small_world.scale, small_world.seed
        )
        mapping = lazy.prefix2as
        assert "rib" not in lazy.materialized_fields()
        assert serialize_prefix2as(mapping) == serialize_prefix2as(
            small_world.prefix2as
        )

    def test_paper_artefacts_never_materialise_the_rib(
        self, saved, small_world
    ):
        from repro.experiments.registry import REGISTRY
        from repro.scenarios import FAMILIES

        store, _ = saved
        lazy = store.load(
            small_world.config, small_world.scale, small_world.seed
        )
        names = [name for name in REGISTRY if name not in FAMILIES]
        assert len(names) == 12
        before = obs.counters().get("columnar.materialized.rib", 0)
        for name in names:
            spec = REGISTRY[name]
            spec.render(spec.run(lazy))
        assert obs.counters().get("columnar.materialized.rib", 0) == before
        assert "rib" not in lazy.materialized_fields()

    def test_lazy_world_survives_entry_pruning(
        self, saved, small_world, tmp_path
    ):
        clone, key = _copy_store(saved, tmp_path)
        lazy = clone.load(
            small_world.config, small_world.scale, small_world.seed
        )
        shutil.rmtree(clone.path_for(key))
        # Metas are parsed at open and the column map holds its file
        # descriptor, so materialisation still works after the unlink.
        assert world_digest(lazy) == world_digest(small_world)

    def test_pickle_materialises_and_round_trips(self, saved, small_world):
        import pickle

        store, _ = saved
        lazy = store.load(
            small_world.config, small_world.scale, small_world.seed
        )
        clone = pickle.loads(pickle.dumps(lazy))
        assert world_digest(clone) == world_digest(small_world)


class TestFreeze:
    """Materialised fields move to the permanent GC generation.

    World objects are acyclic, so frozen ones are still freed by
    reference counting when their world is dropped.
    """

    def _open(self, saved, small_world) -> LazyWorld:
        store, _ = saved
        return store.load(
            small_world.config, small_world.scale, small_world.seed
        )

    def test_reading_a_field_freezes_it(self, saved, small_world):
        lazy = self._open(saved, small_world)
        before = gc.get_freeze_count()
        _ = lazy.topology
        assert gc.get_freeze_count() > before
        assert gc.isenabled()

    def test_a_read_under_an_outer_pause_freezes_too(
        self, saved, small_world
    ):
        # fig6 first reads prefix2as inside its saturation sweep's pause.
        lazy = self._open(saved, small_world)
        before = gc.get_freeze_count()
        with obs.gc_paused():
            _ = lazy.prefix2as
        assert gc.get_freeze_count() > before
        assert gc.isenabled()

    def test_dropped_worlds_release_their_frozen_objects(
        self, saved, small_world
    ):
        def cycle() -> tuple[int, int]:
            lazy = self._open(saved, small_world).materialize()
            peak = gc.get_freeze_count()
            del lazy
            return peak, gc.get_freeze_count()

        peak, first = cycle()
        _, second = cycle()
        assert peak - first > 50_000
        assert abs(second - first) < 300
        assert gc.isenabled()


class TestSafeFallbacks:
    def _corrupt_count(self):
        return obs.counters().get("checkpoint.corrupt", 0)

    def test_truncated_arrays_discard_entry(
        self, saved, small_world, tmp_path, caplog
    ):
        clone, key = _copy_store(saved, tmp_path)
        path = clone.path_for(key) / ARRAYS_FILE
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])
        before = self._corrupt_count()
        with caplog.at_level("WARNING"):
            world = clone.load(
                small_world.config, small_world.scale, small_world.seed
            )
        assert world is None
        assert self._corrupt_count() == before + 1
        assert not clone.path_for(key).exists()

    def test_garbage_arrays_discard_entry(
        self, saved, small_world, tmp_path, caplog
    ):
        clone, key = _copy_store(saved, tmp_path)
        (clone.path_for(key) / ARRAYS_FILE).write_bytes(b"not a zip at all")
        before = self._corrupt_count()
        with caplog.at_level("WARNING"):
            world = clone.load(
                small_world.config, small_world.scale, small_world.seed
            )
        assert world is None
        assert self._corrupt_count() == before + 1
        assert not clone.path_for(key).exists()

    def test_unmappable_but_valid_archive_still_loads(
        self, saved, small_world, tmp_path, monkeypatch, caplog
    ):
        # Re-pack the archive with deflate: digest-verification is
        # rewritten to match, so the entry is *valid* but cannot be
        # memory-mapped — the columnar load must degrade to the eager
        # column decode, not discard the entry.
        import json

        from repro.datasets.checkpoint import MANIFEST_FILE, _sha256_bytes

        clone, key = _copy_store(saved, tmp_path)
        entry = clone.path_for(key)
        path = entry / ARRAYS_FILE
        with np.load(path, allow_pickle=False) as arrays:
            contents = {name: arrays[name] for name in arrays.files}
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **contents)
        manifest = json.loads((entry / MANIFEST_FILE).read_text())
        manifest["files"][ARRAYS_FILE] = _sha256_bytes(path.read_bytes())
        (entry / MANIFEST_FILE).write_text(json.dumps(manifest))
        with caplog.at_level("WARNING"):
            world = clone.load(
                small_world.config, small_world.scale, small_world.seed
            )
        assert world is not None
        assert world_digest(world) == world_digest(small_world)
