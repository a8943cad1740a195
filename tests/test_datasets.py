"""Tests for whole-world dataset export/import."""

from __future__ import annotations

import hashlib

from hypothesis import given, settings, strategies as st

from repro.datasets.store import IRR_SUFFIX, export_world, load_bundle

#: SHA-256 of each file ``export_world`` writes for ``small_world``
#: (0.12, 11).  The six non-IRR values are the text digests the world
#: digest pinned for those datasets before it hashed columns.
EXPORT_DIGESTS = {
    "prefix2as.txt": "37f5d0a09431fa934248356709f8616b302669c30e72d3175fa5bd6ebdb6d1a9",
    "as-rank.txt": "6ca152e029eff49c66d23633ddd0dcb5ab65e0c076c8f6d196012ebec5a3bf30",
    "vrps.csv": "087e0385fd7d4e008aeae0fe3f06449274c1d7f42e30f77ede9d6061bc5759e9",
    "as2org.txt": "fc01bf6331ec8105431ca09e7c9a62a3ac65564b2552691c1cc6c3469c284307",
    "as-rel.txt": "d311c0571f86510fc217b9e30028dfa82518c6bff11c50c956926778873970fd",
    "manrs-participants.csv": "171991b80dc8a4d8c6be109c45c32ac92adee165b79cb5378026f1909c436090",
    "arin.irr.txt": "afb1fa40bc1eaa10413879dfc4a52e0627c3618aa61aa9bcce1c8e475d9b4613",
    "ripe.irr.txt": "df8f46c645235bfdd16aac452d97febd25b1ddefe5cec0b7324ac737b0dc575d",
    "apnic.irr.txt": "3b7341d89b62a115b843064a3e098491f4ff3674605565afe541bbce02a1d508",
    "lacnic.irr.txt": "30f1aba1621374c9de3b7117c4da6c77f75a45d440822ab30abe8f5f2bf1d672",
    "afrinic.irr.txt": "6ac459d220c2cc260c74b69211e3a9d6040dd95f729a202f9f2b5658214e3312",
    "radb.irr.txt": "c227b40bd1cae6ab0e2c5e9b0d38952b178d3290c661fb94c1d33330bb12cd0d",
}

#: The IRR dumps of the same export joined as the world digest once
#: hashed them: ``% NAME`` and the dump, database by database.
JOINED_IRR_DIGEST = (
    "2f546b19280cc56399f5520a268d5492234beb800d021dbfccce9db28ab934dc"
)


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

    def test_exported_files_match_pins(self, small_world, tmp_path):
        export_world(small_world, tmp_path)
        written = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()
        }
        assert written == EXPORT_DIGESTS
        joined = hashlib.sha256()
        for database in small_world.irr.databases:
            dump = tmp_path / f"{database.name.lower()}{IRR_SUFFIX}"
            joined.update(f"% {database.name}\n".encode() + dump.read_bytes())
        assert joined.hexdigest() == JOINED_IRR_DIGEST

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
