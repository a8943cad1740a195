"""Tests for the adversarial scenario pack (``repro.scenarios``).

Three layers of coverage:

* the :class:`~repro.scenarios.base.ScenarioFamily` contract (param
  validation, override merging, render delegation);
* per-family invariants on the ``small_world`` fixture, including the
  composition discipline — running every family leaves the world's
  checkpoint digest untouched;
* golden pinning: the rendered text of every registry entry (the paper
  artefacts and the scenario families) at the fixture's (scale, seed)
  must match ``tests/goldens/render_digests.json``, and every family
  must be visible through the experiment registry.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.datasets.checkpoint import world_digest
from repro.experiments.registry import REGISTRY
from repro.scenarios import FAMILIES
from repro.scenarios.base import ScenarioFamily

GOLDENS_PATH = Path(__file__).parent / "goldens" / "render_digests.json"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestScenarioFamilyContract:
    def _family(self) -> ScenarioFamily:
        return ScenarioFamily(
            name="toy",
            title="Toy family",
            paper_ref="nowhere",
            compute=lambda world, params: {"params": dict(params)},
            format=lambda result: f"toy: {sorted(result['params'])}",
            params={"knob": 3, "other": "x"},
        )

    def test_defaults_applied(self):
        result = self._family().run(None)
        assert result["params"] == {"knob": 3, "other": "x"}

    def test_overrides_merge_without_mutating_defaults(self):
        family = self._family()
        result = family.run(None, knob=9)
        assert result["params"] == {"knob": 9, "other": "x"}
        assert family.params["knob"] == 3

    def test_unknown_override_rejected(self):
        with pytest.raises(KeyError, match="unknown toy parameter"):
            self._family().run(None, bogus=1)

    def test_render_delegates_to_format(self):
        family = self._family()
        assert family.render(family.run(None)) == "toy: ['knob', 'other']"


class TestFamiliesCatalogue:
    def test_expected_families_in_order(self):
        assert list(FAMILIES) == ["rsrov", "cexp", "roastorm", "martian"]

    def test_names_match_keys(self):
        for key, family in FAMILIES.items():
            assert family.name == key
            assert family.title
            assert family.paper_ref

    def test_catalogue_is_read_only(self):
        with pytest.raises(TypeError):
            FAMILIES["extra"] = None  # type: ignore[index]

    def test_every_family_registered_as_experiment(self):
        for name, family in FAMILIES.items():
            spec = REGISTRY[name]
            assert spec.title == family.title
            assert spec.paper_ref == family.paper_ref


class TestFamiliesOnWorld:
    def test_composition_preserves_world_digest(self, small_world):
        """The tentpole discipline: scenarios compose onto a built world
        without perturbing it, so its checkpoint identity survives."""
        before = world_digest(small_world)
        for family in FAMILIES.values():
            family.run(small_world)
        assert world_digest(small_world) == before

    def test_runs_are_deterministic(self, small_world):
        for family in FAMILIES.values():
            first = family.render(family.run(small_world))
            second = family.render(family.run(small_world))
            assert first == second, family.name

    def test_renders_match_goldens(self, small_world):
        entry = json.loads(GOLDENS_PATH.read_text())["entry"]
        assert (entry["scale"], entry["seed"]) == (
            small_world.scale,
            small_world.seed,
        )
        assert list(entry["digests"]) == sorted(REGISTRY)
        for name, spec in REGISTRY.items():
            rendered = spec.render(spec.run(small_world))
            assert _digest(rendered) == entry["digests"][name], (
                f"{name} drifted from its golden; regenerate with "
                "scripts/update_goldens.py if intended"
            )

    def test_rsrov_invariants(self, small_world):
        result = FAMILIES["rsrov"].run(small_world)
        assert result["members"] <= 16
        configs = result["configs"]
        assert set(configs) == {"transparent", "irr", "irr+rov"}
        # Transparent reflects everything; filtering only removes routes.
        assert configs["transparent"]["accepted"] == result["announcements"]
        assert configs["irr"]["accepted"] <= configs["transparent"]["accepted"]
        # The rov stage can only shrink the invalid-accepted count.
        assert (
            configs["irr+rov"]["invalid_accepted"]
            <= configs["irr"]["invalid_accepted"]
        )
        assert configs["irr+rov"]["invalid_accepted"] == 0

    def test_rsrov_member_panel_override(self, small_world):
        result = FAMILIES["rsrov"].run(small_world, max_members=4)
        assert result["members"] == 4

    def test_cexp_reports_precision_and_recall(self, small_world):
        result = FAMILIES["cexp"].run(small_world)
        assert result["results"]
        for row in result["results"].values():
            assert 0.0 <= row["precision"] <= 1.0
            assert 0.0 <= row["recall"] <= 1.0
            assert row["tp"] + row["fp"] + row["fn"] + row["tn"] > 0
            assert row["fp_provider_filtered"] <= row["fp"]

    def test_roastorm_waves_accumulate(self, small_world):
        result = FAMILIES["roastorm"].run(small_world)
        waves = result["waves"]
        assert [row["label"] for row in waves] == [
            "baseline",
            "mis-issued",
            "as0-campaign",
            "expiry-storm",
        ]
        assert waves[0]["events"] == 0 and waves[0]["flips"] == 0
        assert result["events_total"] == sum(row["events"] for row in waves)
        # Mis-issuance and AS0 waves can only add invalids.
        assert waves[1]["invalid"] >= waves[0]["invalid"]
        assert waves[2]["invalid"] >= waves[1]["invalid"]
        assert any(row["flips"] > 0 for row in waves[1:])

    def test_martian_reach_and_sav(self, small_world):
        result = FAMILIES["martian"].run(small_world)
        for row in result["reach"].values():
            assert 0.0 <= row["mean"] <= row["max"] <= 1.0
            assert row["n"] > 0
        sav = result["sav"]
        assert 0 < sav["tested"] < len(small_world.topology.asns)
        assert 0.0 <= sav["overall"] <= 1.0
        action2 = result["action2"]
        assert (
            action2["members_conformant"]
            <= action2["members_with_evidence"]
            <= sav["members_tested"]
        )
