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
import hashlib
import json
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.bgp.collector import COLUMNS as RIB_COLUMNS
from repro.bgp.table import serialize_prefix2as
from repro.datasets.arraystore import open_columns
from repro.datasets.checkpoint import (
    ARRAYS_FILE,
    CheckpointStore,
    checkpoint_key,
    world_digest,
)
from repro.datasets.columnar import LazyWorld
from repro.ihr.records import COLUMNS, IHRDataset

RENDER_GOLDENS = Path(__file__).parent / "goldens" / "render_digests.json"


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
        self, saved, small_world, monkeypatch
    ):
        from repro.bgp.collector import RibSnapshot

        def no_decode(rib):
            raise AssertionError("prefix2as decoded the RIB's groups")

        monkeypatch.setattr(RibSnapshot, "groups", no_decode)
        store, _ = saved
        lazy = store.load(
            small_world.config, small_world.scale, small_world.seed
        )
        mapping = lazy.prefix2as
        assert serialize_prefix2as(mapping) == serialize_prefix2as(
            small_world.prefix2as
        )
        for name, column in lazy.rib.arrays.items():
            assert column is lazy._columns.arrays[name], name

    def test_rib_wraps_the_stored_columns(self, saved, small_world):
        store, _ = saved
        lazy = store.load(
            small_world.config, small_world.scale, small_world.seed
        )
        stored = lazy._columns.arrays
        assert list(lazy.rib.arrays) == list(RIB_COLUMNS)
        for name, column in lazy.rib.arrays.items():
            assert column is stored[name], name
        assert lazy.rib.meta is lazy._columns.meta["rib.json"]

    def test_ihr_wraps_the_stored_columns(self, saved, small_world):
        store, _ = saved
        lazy = store.load(
            small_world.config, small_world.scale, small_world.seed
        )
        stored = lazy._columns.arrays
        assert list(lazy.ihr.arrays) == list(COLUMNS)
        for name, column in lazy.ihr.arrays.items():
            assert column is stored[name], name
        assert lazy.ihr.meta is lazy._columns.meta["ihr.json"]

    def test_artefacts_and_digest_decode_only_tab1_rows(
        self, saved, small_world, monkeypatch, tmp_path
    ):
        """On a reopened world every paper artefact renders its golden
        text.  The digest and the artefacts walk the IHR columns; the
        only rows decoded into records are those of the ASNs Table 1
        attributes, each once.  The only IRR rows decoded into route
        objects are those covering Table 1's IRR-attributed records,
        once per case-study row, and a live world over the reopened
        world decodes none.  No aut-num or as-set object is decoded, not
        even by a re-save.  No artefact decodes ``originations``, and
        the membership series (fig2, fig4) leave the RPKI repository
        stored."""
        from repro.core.classification import is_unconformant
        from repro.delta import LiveWorld
        from repro.experiments.registry import REGISTRY
        from repro.experiments.tab1_casestudies import case_study_targets
        from repro.irr import database as irr_database
        from repro.irr.database import IRRDatabase
        from repro.scenarios import FAMILIES

        targets = case_study_targets(small_world)
        tab1_asns = {asn for _, asns in targets for asn in asns}
        expected = Counter(
            (record.prefix, record.origin)
            for record in small_world.ihr.prefix_origins()
            if record.origin in tab1_asns
        )
        expected_rows: Counter = Counter()
        for _, asns in targets:
            attributed = [
                record.prefix
                for asn in sorted(set(asns))
                for record in small_world.ihr.records_of(asn)
                if is_unconformant(record.rpki, record.irr)
                and not record.rpki.is_invalid
            ]
            for database in small_world.irr.databases:
                expected_rows.update(
                    {
                        (database.name, row)
                        for rows in database._covering_rows(attributed)
                        for row in rows
                    }
                )
        store, _ = saved
        lazy = store.load(
            small_world.config, small_world.scale, small_world.seed
        )
        decoded: Counter = Counter()
        decode = IHRDataset._rows

        def spy(dataset, rows):
            records = decode(dataset, rows)
            decoded.update((record.prefix, record.origin) for record in records)
            return records

        monkeypatch.setattr(IHRDataset, "_rows", spy)
        decoded_rows: Counter = Counter()
        decode_rows = IRRDatabase._decode

        def irr_spy(database, rows):
            decoded_rows.update((database.name, row) for row in rows)
            return decode_rows(database, rows)

        monkeypatch.setattr(IRRDatabase, "_decode", irr_spy)
        objects: Counter = Counter()
        for name in ("_aut_num_of", "_as_set_of"):

            def object_spy(row, name=name, real=getattr(irr_database, name)):
                objects[name] += 1
                return real(row)

            monkeypatch.setattr(irr_database, name, object_spy)
        goldens = json.loads(RENDER_GOLDENS.read_text())["entry"]
        assert (goldens["scale"], goldens["seed"]) == (
            small_world.scale,
            small_world.seed,
        )
        names = [name for name in REGISTRY if name not in FAMILIES]
        assert names[:2] == ["fig2", "fig4"] and len(names) == 12
        for name in names:
            rendered = REGISTRY[name].render(REGISTRY[name].run(lazy))
            digest = hashlib.sha256(rendered.encode()).hexdigest()
            assert digest == goldens["digests"][name], name
            if name == "fig4":
                assert "rpki_repository" not in lazy.materialized_fields()
        assert "originations" not in lazy.materialized_fields()
        assert world_digest(lazy) == world_digest(small_world)
        assert expected
        assert decoded == expected
        assert sum(decoded.values()) < len(lazy.ihr.arrays["po_origin"])
        assert expected_rows
        assert decoded_rows == expected_rows
        assert sum(decoded_rows.values()) < lazy.irr.route_count
        decoded_rows.clear()
        LiveWorld(lazy)
        assert not decoded_rows
        CheckpointStore(tmp_path).save(lazy)
        assert not objects
        assert lazy.irr.aut_num(next(iter(lazy.irr.databases[0]._aut_nums)))
        assert objects == {"_aut_num_of": 1}

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
