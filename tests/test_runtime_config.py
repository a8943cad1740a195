"""Tests for the unified runtime configuration (repro.config).

The contract under test: one frozen dataclass of five knobs resolved
with ``explicit > environment > default`` precedence, installable
process-wide or for a ``with`` block, consulted by every call-time
reader the per-site env lookups used to own (default store, jobs/shards
resolution, the build budget), and documented by README's knob table.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from repro import config
from repro.config import ENV_VARS, RuntimeConfig

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(autouse=True)
def clean_runtime(monkeypatch):
    """No installed config and no REPRO_* env leakage between tests."""
    for var in ENV_VARS.values():
        monkeypatch.delenv(var, raising=False)
    config.set_current(None)
    yield
    config.set_current(None)


class TestDefaults:
    def test_empty_environment_is_the_historical_baseline(self):
        runtime = RuntimeConfig.resolve(env={})
        assert runtime == RuntimeConfig()
        assert runtime.jobs == 1
        assert runtime.shards == 1
        assert runtime.kernels == "numpy"
        assert runtime.cache_dir is None
        assert runtime.build_budget_mb is None

    def test_frozen_and_comparable(self):
        runtime = RuntimeConfig()
        with pytest.raises(AttributeError):
            runtime.jobs = 2
        assert RuntimeConfig(jobs=2) == RuntimeConfig(jobs=2)
        assert RuntimeConfig(jobs=2) != RuntimeConfig(jobs=3)

    def test_validation_rejects_bad_modes(self):
        with pytest.raises(ValueError, match="kernel mode"):
            RuntimeConfig(kernels="fortran")
        with pytest.raises(ValueError, match="build_budget_mb"):
            RuntimeConfig(build_budget_mb=-1)

    def test_python_kernels_were_removed(self):
        with pytest.raises(ValueError, match="python kernel mode was removed"):
            RuntimeConfig(kernels="python")
        with pytest.raises(
            ValueError, match="REPRO_KERNELS='python': the python kernel mode was removed"
        ):
            RuntimeConfig.from_env({"REPRO_KERNELS": "python"})


class TestFromEnv:
    def test_reads_every_documented_variable(self):
        env = {
            "REPRO_JOBS": "4",
            "REPRO_SHARDS": "8",
            "REPRO_KERNELS": "NumPy",
            "REPRO_CACHE_DIR": "/tmp/store",
            "REPRO_BUILD_BUDGET_MB": "0.5",
        }
        runtime = RuntimeConfig.from_env(env)
        assert runtime == RuntimeConfig(
            jobs=4,
            shards=8,
            kernels="numpy",
            cache_dir="/tmp/store",
            build_budget_mb=0.5,
        )
        assert set(env) == set(ENV_VARS.values())
        assert set(ENV_VARS) == {
            field.name for field in dataclasses.fields(RuntimeConfig)
        }

    def test_malformed_values_fall_back_leniently(self):
        env = {
            "REPRO_JOBS": "many",
            "REPRO_SHARDS": "several",
            "REPRO_CACHE_DIR": "   ",
            "REPRO_BUILD_BUDGET_MB": "lots",
        }
        assert RuntimeConfig.from_env(env) == RuntimeConfig()
        assert RuntimeConfig.from_env({"REPRO_BUILD_BUDGET_MB": "-1"}) == (
            RuntimeConfig()
        )

    def test_bad_kernels_value_raises(self):
        # The one deliberate exception to lenient parsing: a kernel-mode
        # typo must not silently change which implementation ran.
        with pytest.raises(ValueError, match="REPRO_KERNELS"):
            RuntimeConfig.from_env({"REPRO_KERNELS": "fortran"})


class TestResolvePrecedence:
    def test_explicit_beats_env_beats_default(self):
        env = {"REPRO_JOBS": "4", "REPRO_SHARDS": "8"}
        runtime = RuntimeConfig.resolve(env=env, jobs=2)
        assert runtime.jobs == 2  # explicit wins
        assert runtime.shards == 8  # env fills the unspecified
        assert runtime.cache_dir is None  # default fills the rest

    def test_none_override_means_unspecified(self):
        env = {"REPRO_JOBS": "4"}
        assert RuntimeConfig.resolve(env=env, jobs=None).jobs == 4

    def test_unknown_field_is_a_type_error(self):
        with pytest.raises(TypeError, match="workers"):
            RuntimeConfig.resolve(env={}, workers=4)

    def test_merged_applies_non_none_on_top(self):
        base = RuntimeConfig(jobs=2, shards=4)
        merged = base.merged(jobs=None, shards=8)
        assert merged == RuntimeConfig(jobs=2, shards=8)
        assert base.merged() is base

    def test_effective_jobs_zero_means_all_cores(self):
        import os

        assert RuntimeConfig(jobs=0).effective_jobs() == (os.cpu_count() or 1)
        assert RuntimeConfig(jobs=3).effective_jobs() == 3


class TestActiveConfig:
    def test_current_reads_env_at_call_time_when_uninstalled(self, monkeypatch):
        assert config.current().shards == 1
        monkeypatch.setenv("REPRO_SHARDS", "3")
        assert config.current().shards == 3

    def test_set_current_overrides_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        config.set_current(RuntimeConfig(jobs=2))
        assert config.current().jobs == 2
        config.set_current(None)
        assert config.current().jobs == 7

    def test_use_nests_and_restores(self):
        outer = RuntimeConfig(jobs=2)
        inner = RuntimeConfig(jobs=3)
        with config.use(outer):
            assert config.current() is outer
            with config.use(inner):
                assert config.current() is inner
            assert config.current() is outer
        assert config.current() == RuntimeConfig.from_env()

    def test_use_none_is_a_no_op(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        with config.use(None):
            assert config.current().jobs == 5

    def test_use_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with config.use(RuntimeConfig(jobs=9)):
                raise RuntimeError("boom")
        assert config.current().jobs == 1


class TestCallTimeReaders:
    """The leaf readers the config replaced all consult ``current()``."""

    def test_resolve_jobs_honours_installed_config(self):
        from repro.obs import resolve_jobs

        with config.use(RuntimeConfig(jobs=6)):
            assert resolve_jobs() == 6
            assert resolve_jobs(2) == 2  # explicit argument still wins

    def test_shards_and_build_budget_honour_installed_config(self, monkeypatch):
        from repro.shard import resolve_build_budget, resolve_shards

        monkeypatch.setenv("REPRO_SHARDS", "5")
        monkeypatch.setenv("REPRO_BUILD_BUDGET_MB", "7")
        with config.use(RuntimeConfig(shards=3, build_budget_mb=1)):
            assert resolve_shards() == 3
            assert resolve_shards(2) == 2  # explicit argument still wins
            assert resolve_build_budget() == 1024 * 1024

    def test_default_store_honours_installed_config(self, tmp_path):
        from repro.datasets.checkpoint import default_store

        assert default_store() is None
        with config.use(RuntimeConfig(cache_dir=str(tmp_path))):
            store = default_store()
            assert store is not None
            assert store.root == tmp_path

    def test_picklable_for_pool_initializers(self):
        import pickle

        runtime = RuntimeConfig(
            jobs=3, shards=2, cache_dir="/tmp/store", build_budget_mb=0.5
        )
        assert pickle.loads(pickle.dumps(runtime)) == runtime


class TestRuntimeParameter:
    """``runtime=`` on an entry point governs the whole call."""

    def test_explicit_runtime_beats_environment(self, monkeypatch):
        from repro.scenario import build as build_mod
        from repro.shard import resolve_shards

        monkeypatch.setenv("REPRO_SHARDS", "4")
        seen: dict[str, int] = {}
        original = build_mod._build_world

        def spy(*args, **kwargs):
            seen["shards"] = resolve_shards()
            return original(*args, **kwargs)

        monkeypatch.setattr(build_mod, "_build_world", spy)
        build_mod.build_world(
            scale=0.02, seed=1, runtime=RuntimeConfig(shards=1)
        )
        assert seen["shards"] == 1


class TestReadmeKnobTable:
    """README's knob table documents exactly the ``ENV_VARS`` pairs."""

    ROW = re.compile(r"^\|\s*`(\w+)`\s*\|\s*`(REPRO_\w+)`\s*\|")

    def test_table_lists_every_knob_and_nothing_else(self):
        rows = [
            match.groups()
            for line in README.read_text().splitlines()
            for match in (self.ROW.match(line),)
            if match
        ]
        assert sorted(rows) == sorted(ENV_VARS.items())
