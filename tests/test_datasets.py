"""Tests for whole-world dataset export/import."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.datasets.store import export_world, load_bundle


class TestExportImport:
    def test_roundtrip_counts(self, small_world, tmp_path):
        export_world(small_world, tmp_path)
        bundle = load_bundle(tmp_path)
        assert len(bundle.prefix2as) == len(small_world.prefix2as)
        assert len(bundle.vrps) == len(small_world.rov)
        assert bundle.irr.route_count == small_world.irr.route_count
        assert len(bundle.manrs.participants) == len(
            small_world.manrs.participants
        )
        assert bundle.as2org.org_of == small_world.as2org.org_of

    def test_expected_files_written(self, small_world, tmp_path):
        export_world(small_world, tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        assert "prefix2as.txt" in names
        assert "as2org.txt" in names
        assert "as-rel.txt" in names
        assert "vrps.csv" in names
        assert "manrs-participants.csv" in names
        assert any(name.endswith(".irr.txt") for name in names)

    def test_reloaded_data_reproduces_validation(self, small_world, tmp_path):
        """Running ROV off the exported VRP file gives the same statuses
        as the in-memory validator."""
        from repro.rpki.rov import ROVValidator

        export_world(small_world, tmp_path)
        bundle = load_bundle(tmp_path)
        reloaded = ROVValidator(bundle.vrps)
        for record in small_world.ihr.prefix_origins()[:100]:
            assert (
                reloaded.validate(record.prefix, record.origin) is record.rpki
            )

    def test_reloaded_irr_reproduces_validation(self, small_world, tmp_path):
        from repro.irr.validation import validate_irr

        export_world(small_world, tmp_path)
        bundle = load_bundle(tmp_path)
        for record in small_world.ihr.prefix_origins()[:100]:
            assert (
                validate_irr(bundle.irr, record.prefix, record.origin)
                is record.irr
            )


class TestASRankDataset:
    def test_roundtrip_and_size_classes(self, small_world):
        from repro.topology.asrank import (
            build_asrank,
            parse_asrank,
            serialize_asrank,
        )

        records = build_asrank(small_world.topology)
        recovered = parse_asrank(serialize_asrank(records))
        assert recovered == records
        # The file-derived size classes match the in-memory ones.
        for record in recovered[:200]:
            assert record.size_class is small_world.size_of[record.asn]

    def test_rank_one_has_biggest_cone(self, small_world):
        from repro.topology.asrank import build_asrank

        records = build_asrank(small_world.topology)
        assert records[0].rank == 1
        assert records[0].cone_size == max(r.cone_size for r in records)

    def test_parse_rejects_malformed(self):
        import pytest

        from repro.errors import DatasetError
        from repro.topology.asrank import parse_asrank

        with pytest.raises(DatasetError):
            parse_asrank("1|2|3\n")
        with pytest.raises(DatasetError):
            parse_asrank("1|2|-1|5\n")

    def test_asrank_in_export(self, small_world, tmp_path):
        from repro.datasets.store import export_world, load_bundle

        export_world(small_world, tmp_path)
        bundle = load_bundle(tmp_path)
        assert len(bundle.asrank) == len(small_world.topology)


class TestBundleFixedPoint:
    """export_world → load_bundle → re-export is a byte-level fixed point.

    Extends the per-object RPSL round-trip property (tests/test_irr.py)
    to the whole dataset bundle: every file re-serialised from the
    parsed bundle must be byte-identical to the exported original, over
    Hypothesis-generated small worlds.  This is the substrate of the
    checkpoint store's warm-equals-cold guarantee — if any serializer
    lost information (ordering, formatting, a dropped field), warm
    worlds could not reproduce cold digests.
    """

    @staticmethod
    def _reexports(world, bundle) -> dict[str, str]:
        from repro.bgp.table import serialize_prefix2as
        from repro.datasets.store import IRR_SUFFIX
        from repro.irr.rpsl import serialize_database
        from repro.manrs.registry import serialize_participants
        from repro.rpki.archive import serialize_vrps
        from repro.topology.as2org import serialize_as2org
        from repro.topology.asrank import serialize_asrank
        from repro.topology.relationships import serialize_relationships

        texts = {
            "prefix2as.txt": serialize_prefix2as(bundle.prefix2as),
            "as2org.txt": serialize_as2org(bundle.as2org),
            "as-rel.txt": serialize_relationships(bundle.relationships),
            "vrps.csv": serialize_vrps(bundle.vrps, world.snapshot_date),
            "manrs-participants.csv": serialize_participants(bundle.manrs),
            "as-rank.txt": serialize_asrank(bundle.asrank),
        }
        for database in bundle.irr.databases:
            texts[f"{database.name.lower()}{IRR_SUFFIX}"] = (
                serialize_database(list(database.all_routes()))
            )
        return texts

    @given(
        seed=st.integers(min_value=0, max_value=40),
        scale=st.sampled_from([0.02, 0.03]),
    )
    @settings(max_examples=5, deadline=None)
    def test_reexport_is_byte_identical(self, seed, scale):
        import tempfile
        from pathlib import Path

        from repro.scenario.build import build_world

        world = build_world(scale=scale, seed=seed)
        with tempfile.TemporaryDirectory() as exported:
            export_world(world, exported)
            bundle = load_bundle(exported)
            originals = {
                path.name: path.read_text()
                for path in Path(exported).iterdir()
            }
        reexports = self._reexports(world, bundle)
        assert set(reexports) == set(originals)
        for name, text in reexports.items():
            assert text == originals[name], f"{name} is not a fixed point"
