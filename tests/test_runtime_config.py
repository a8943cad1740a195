"""Tests for the unified runtime configuration (repro.config).

The contract under test: one frozen dataclass of five knobs resolved
with ``explicit > environment > default`` precedence, installable
process-wide or for a ``with`` block, consulted by every call-time
reader the per-site env lookups used to own (default store, jobs
resolution), and documented by README's knob table.  The removed build
modes (``shards``, ``build_budget_mb``) keep one legal value each and
raise on any other.
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

    def test_removed_build_modes_raise(self):
        # perfbench's pin spells out every removed mode's legal value.
        RuntimeConfig(jobs=1, shards=1, kernels="numpy", build_budget_mb=None)
        for removed in ({"shards": 2}, {"build_budget_mb": 64}, {"build_budget_mb": 0}):
            with pytest.raises(ValueError, match="was removed"):
                RuntimeConfig(**removed)
        with pytest.raises(
            ValueError, match="REPRO_SHARDS=2: process-pool sharding was removed"
        ):
            RuntimeConfig.from_env({"REPRO_SHARDS": "2"})
        with pytest.raises(
            ValueError,
            match="REPRO_BUILD_BUDGET_MB=64.0: the spill-to-disk build budget was removed",
        ):
            RuntimeConfig.from_env({"REPRO_BUILD_BUDGET_MB": "64"})
        assert RuntimeConfig.from_env({"REPRO_SHARDS": "1"}) == RuntimeConfig()

    def test_python_kernels_were_removed(self):
        with pytest.raises(ValueError, match="python kernel mode was removed"):
            RuntimeConfig(kernels="python")
        with pytest.raises(
            ValueError, match="REPRO_KERNELS='python': the python kernel mode was removed"
        ):
            RuntimeConfig.from_env({"REPRO_KERNELS": "python"})


class TestFromEnv:
    def test_reads_every_documented_variable(self):
        # The removed build modes are read too, at their one legal value
        # (an empty variable is unset); other values raise (see above).
        env = {
            "REPRO_JOBS": "4",
            "REPRO_SHARDS": "1",
            "REPRO_KERNELS": "NumPy",
            "REPRO_CACHE_DIR": "/tmp/store",
            "REPRO_BUILD_BUDGET_MB": "",
        }
        runtime = RuntimeConfig.from_env(env)
        assert runtime == RuntimeConfig(
            jobs=4,
            shards=1,
            kernels="numpy",
            cache_dir="/tmp/store",
            build_budget_mb=None,
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
        env = {"REPRO_JOBS": "4", "REPRO_CACHE_DIR": "/tmp/env-store"}
        runtime = RuntimeConfig.resolve(env=env, jobs=2)
        assert runtime.jobs == 2  # explicit wins
        assert runtime.cache_dir == "/tmp/env-store"  # env fills the unspecified
        assert runtime.kernels == "numpy"  # default fills the rest

    def test_none_override_means_unspecified(self):
        env = {"REPRO_JOBS": "4"}
        assert RuntimeConfig.resolve(env=env, jobs=None).jobs == 4

    def test_unknown_field_is_a_type_error(self):
        with pytest.raises(TypeError, match="workers"):
            RuntimeConfig.resolve(env={}, workers=4)

    def test_merged_applies_non_none_on_top(self):
        base = RuntimeConfig(jobs=2, cache_dir="/tmp/a")
        merged = base.merged(jobs=None, cache_dir="/tmp/b")
        assert merged == RuntimeConfig(jobs=2, cache_dir="/tmp/b")
        assert base.merged() is base


class TestActiveConfig:
    def test_current_reads_env_at_call_time_when_uninstalled(self, monkeypatch):
        assert config.current().jobs == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert config.current().jobs == 3

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

    def test_default_store_honours_installed_config(self, tmp_path):
        from repro.datasets.checkpoint import default_store

        assert default_store() is None
        with config.use(RuntimeConfig(cache_dir=str(tmp_path))):
            store = default_store()
            assert store is not None
            assert store.root == tmp_path

    def test_picklable_for_pool_initializers(self):
        import pickle

        runtime = RuntimeConfig(jobs=3, cache_dir="/tmp/store")
        assert pickle.loads(pickle.dumps(runtime)) == runtime


class TestRuntimeParameter:
    """``runtime=`` on an entry point governs the whole call."""

    def test_explicit_runtime_beats_environment(self, monkeypatch):
        from repro.scenario import build as build_mod

        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/env-store")
        seen: dict[str, object] = {}
        original = build_mod._build_world

        def spy(*args, **kwargs):
            seen["jobs"] = config.current().jobs
            seen["cache_dir"] = config.current().cache_dir
            return original(*args, **kwargs)

        monkeypatch.setattr(build_mod, "_build_world", spy)
        build_mod.build_world(scale=0.02, seed=1, runtime=RuntimeConfig(jobs=1))
        assert seen == {"jobs": 1, "cache_dir": None}


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
