"""Tests for the sweep orchestrator: spec, ledger, scheduler, recovery.

The scheduler tests run real (tiny, scale-0.05) worlds through real
worker processes, with the ``REPRO_SWEEP_FAIL_JOBS`` hook injecting
deterministic failures, hangs and crashes.  A module-scoped checkpoint
store is shared by every test so each distinct (config, scale, seed)
world is built exactly once and warm-started everywhere else.
"""

from __future__ import annotations

import json
from datetime import date

import pytest

from repro import obs
from repro.experiments.registry import REGISTRY
from repro.sweep import (
    Job,
    RunLedger,
    SweepSpec,
    SweepSpecError,
    aggregate,
    apply_overrides,
    job_id_for,
    render_report,
    render_status,
    run_job,
    run_sweep,
)
from repro.sweep.ledger import LEDGER_FILE
from repro.sweep.worker import _parse_fault_spec

SCALE = 0.05


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    """One checkpoint-store root for every test in this module."""
    return tmp_path_factory.mktemp("sweep-shared-cache")


@pytest.fixture
def cache_env(shared_cache, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(shared_cache))
    monkeypatch.delenv("REPRO_SWEEP_FAIL_JOBS", raising=False)
    return shared_cache


def grid_spec(**kwargs) -> SweepSpec:
    """The canonical 12-job test grid: 2 seeds × 2 scenarios × 3 subsets."""
    data = {
        "name": "grid",
        "timeout": 120,
        "max_attempts": 2,
        "backoff": 0.0,
        "axes": {
            "scale": [SCALE],
            "seed": [1, 2],
            "scenario": [
                {"label": "baseline"},
                {
                    "label": "no-deagg",
                    "overrides": {
                        "origination.deaggregation_probability": 0.0
                    },
                },
            ],
            "experiments": [["fig4"], ["f70"], ["fig2"]],
        },
    }
    data.update(kwargs)
    return SweepSpec.from_mapping(data)


class TestApplyOverrides:
    def test_dotted_dataclass_path(self):
        config = apply_overrides(
            {"origination.deaggregation_probability": 0.5}
        )
        assert config.origination.deaggregation_probability == 0.5

    def test_dict_key_path(self):
        config = apply_overrides(
            {"origination.legacy_probability.ARIN": 0.0}
        )
        assert config.origination.legacy_probability["ARIN"] == 0.0

    def test_date_coercion(self):
        config = apply_overrides({"snapshot_date": "2021-05-01"})
        assert config.snapshot_date == date(2021, 5, 1)

    def test_tuple_coercion(self):
        weights = [0.1] * 8
        config = apply_overrides(
            {"member_adoption_weights": weights}
        )
        assert config.member_adoption_weights == tuple(weights)

    def test_frozen_parent_is_rebuilt(self):
        config = apply_overrides(
            {"behavior.cdn_member_registration.rpki_all": 0.5}
        )
        assert config.behavior.cdn_member_registration.rpki_all == 0.5
        # The default instance is shared; it must not be mutated.
        assert apply_overrides({}).behavior.cdn_member_registration.rpki_all != 0.5

    def test_unknown_field_lists_location(self):
        with pytest.raises(SweepSpecError, match="no field 'nope'"):
            apply_overrides({"origination.nope": 1})

    def test_unknown_dict_key_lists_valid(self):
        with pytest.raises(SweepSpecError, match="ARIN"):
            apply_overrides({"origination.legacy_probability.XXRIR": 0.0})

    def test_type_mismatch_rejected(self):
        with pytest.raises(SweepSpecError, match="expected"):
            apply_overrides({"origination.deaggregation_probability": "lots"})

    def test_defaults_untouched(self):
        apply_overrides({"origination.deaggregation_probability": 0.99})
        assert apply_overrides({}).origination.deaggregation_probability != 0.99


class TestSpecExpansion:
    def test_grid_size_and_determinism(self):
        first, second = grid_spec().expand(), grid_spec().expand()
        assert len(first) == 12
        assert [job.job_id for job in first] == [job.job_id for job in second]

    def test_job_ids_ignore_labels(self):
        relabelled = grid_spec()
        relabelled.scenarios = tuple(
            (f"renamed-{i}", overrides)
            for i, (_, overrides) in enumerate(relabelled.scenarios)
        )
        assert [job.job_id for job in relabelled.expand()] == [
            job.job_id for job in grid_spec().expand()
        ]

    def test_job_ids_depend_on_content(self):
        base = job_id_for({}, 0.05, 1, ("fig4",))
        assert job_id_for({}, 0.05, 2, ("fig4",)) != base
        assert job_id_for({}, 0.1, 1, ("fig4",)) != base
        assert job_id_for({}, 0.05, 1, ("f70",)) != base
        assert job_id_for({"snapshot_date": "2021-05-01"}, 0.05, 1, ("fig4",)) != base

    def test_duplicate_jobs_deduplicated(self):
        spec = grid_spec()
        spec.extra = (spec.expand()[0],)
        assert len(spec.expand()) == 12

    def test_unknown_experiment_names_valid_choices(self):
        with pytest.raises(SweepSpecError, match="fig2"):
            SweepSpec.from_mapping(
                {"axes": {"experiments": ["fig99"]}}
            )

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(SweepSpecError, match="axes"):
            SweepSpec.from_mapping({"axis": {}})

    def test_flat_experiments_is_one_subset(self):
        spec = SweepSpec.from_mapping(
            {"axes": {"experiments": ["fig4", "f70"]}}
        )
        assert spec.experiment_sets == (("fig4", "f70"),)

    def test_sweep_id_ignores_runtime_policy(self):
        assert (
            grid_spec(workers=1, timeout=5).sweep_id
            == grid_spec(workers=8, timeout=600, max_attempts=5).sweep_id
        )

    def test_sweep_id_tracks_jobs(self):
        other = grid_spec()
        other.seeds = (1, 2, 3)
        assert other.sweep_id != grid_spec().sweep_id

    def test_from_file_bad_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{nope")
        with pytest.raises(SweepSpecError, match="not valid JSON"):
            SweepSpec.from_file(path)

    def test_bad_override_fails_at_parse_time(self):
        with pytest.raises(SweepSpecError, match="no field"):
            SweepSpec.from_mapping(
                {
                    "axes": {
                        "scenario": [
                            {"label": "x", "overrides": {"frobnicate": 1}}
                        ]
                    }
                }
            )


class TestFaultSpecParsing:
    def test_modes_and_counts(self):
        assert _parse_fault_spec("abc=fail,def=hang:2, ghi=crash ") == [
            ("abc", "fail", 1 << 30),
            ("def", "hang", 2),
            ("ghi", "crash", 1 << 30),
        ]

    def test_garbage_ignored(self):
        assert _parse_fault_spec("abc,x=explode,y=fail:many,,=fail") == [
            ("", "fail", 1 << 30)
        ]


class TestLedger:
    def spec_and_jobs(self):
        spec = grid_spec()
        return spec, spec.expand()

    def test_round_trip_and_states(self, tmp_path):
        spec, jobs = self.spec_and_jobs()
        with RunLedger.open(tmp_path, spec, jobs) as ledger:
            ledger.append("start", "j1", 1)
            ledger.append("done", "j1", 1, duration=0.5, payload={"x": 1})
            ledger.append("start", "j2", 1)
            ledger.append("attempt_failed", "j2", 1, error="boom")
            ledger.append("start", "j2", 2)
            ledger.append("failed", "j2", 2, error="boom again")
            ledger.append("start", "j3", 1)
        states = ledger.job_states()
        assert states["j1"].status == "done"
        assert states["j1"].payload == {"x": 1}
        assert states["j2"].status == "failed"
        assert states["j2"].last_error == "boom again"
        # start without a terminal record: the run died mid-attempt.
        assert states["j3"].status == "pending"
        assert ledger.completed() == {"j1": {"x": 1}}
        assert ledger.manifest()["n_jobs"] == len(jobs)

    def test_tampered_line_dropped(self, tmp_path):
        spec, jobs = self.spec_and_jobs()
        with RunLedger.open(tmp_path, spec, jobs) as ledger:
            ledger.append("done", "j1", 1, payload={"x": 1})
            ledger.append("done", "j2", 1, payload={"x": 2})
        path = ledger.directory / LEDGER_FILE
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"x": 1', '"x": 111')
        path.write_text("\n".join(lines) + "\n")
        before = obs.counters().get("sweep.ledger.corrupt", 0)
        assert ledger.completed() == {"j2": {"x": 2}}
        assert obs.counters().get("sweep.ledger.corrupt", 0) == before + 1

    def test_truncated_tail_dropped(self, tmp_path):
        spec, jobs = self.spec_and_jobs()
        with RunLedger.open(tmp_path, spec, jobs) as ledger:
            ledger.append("done", "j1", 1, payload={"x": 1})
            ledger.append("done", "j2", 1, payload={"x": 2})
        path = ledger.directory / LEDGER_FILE
        text = path.read_text()
        path.write_text(text[: len(text) - 25])  # tear the last record
        assert ledger.completed() == {"j1": {"x": 1}}

    def test_foreign_manifest_rejected(self, tmp_path):
        spec, jobs = self.spec_and_jobs()
        RunLedger.open(tmp_path, spec, jobs)
        manifest = tmp_path / spec.sweep_id / "MANIFEST.json"
        data = json.loads(manifest.read_text())
        data["sweep_id"] = "0" * 64
        manifest.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="another sweep"):
            RunLedger.open(tmp_path, spec, jobs)


class TestRunJob:
    def test_payload_matches_standalone_experiment(self, cache_env):
        job = Job(
            job_id=job_id_for({}, SCALE, 1, ("fig4",)),
            scenario="baseline",
            overrides={},
            scale=SCALE,
            seed=1,
            experiments=("fig4",),
        )
        payload = run_job(job)
        from repro.experiments.common import world_cache

        spec = REGISTRY["fig4"]
        expected = spec.render(spec.run(world_cache(SCALE, 1)))
        assert payload["fig4"]["text"] == expected
        findings = payload["fig4"]["findings"]
        assert list(findings) == [finding.id for finding in spec.findings]
        assert json.loads(json.dumps(findings)) == findings

    def test_payload_without_findings_reads_as_none(self):
        jobs = [job for job in grid_spec().expand() if job.experiments == ("fig4",)][:2]
        old = {"fig4": {"text": "t", "sha256": "s"}}
        new = {"fig4": {**old["fig4"], "findings": {"fig4.x": {"measured": 1.5, "passed": True}}}}
        aggregated = aggregate(jobs, {jobs[0].job_id: old, jobs[1].job_id: new})
        (group,) = aggregated["experiments"]["fig4"]["groups"].values()
        assert group["findings"] == {"fig4.x": {"passed": 1, "measured": [1.5]}}
        assert "fig4.x  1/1 held  measured 1.500" in render_report(aggregated)

    def test_empty_experiments_means_all(self):
        job = Job(
            job_id="x", scenario="baseline", overrides={},
            scale=SCALE, seed=1, experiments=(),
        )
        # Only check selection, not execution (running all 12 is slow).
        from repro.experiments.registry import select

        assert [s.name for s in select(job.experiments or None)] == list(REGISTRY)


class TestScheduler:
    def test_failures_retry_resume_and_byte_identity(
        self, cache_env, tmp_path, monkeypatch
    ):
        spec = grid_spec()
        jobs = spec.expand()
        ledger_root = tmp_path / "ledgers"
        # Two targeted faults: jobs[0] fails every attempt (terminal),
        # jobs[1] fails once and succeeds on retry.
        monkeypatch.setenv(
            "REPRO_SWEEP_FAIL_JOBS",
            f"{jobs[0].job_id}=fail,{jobs[1].job_id}=fail:1",
        )
        before = dict(obs.counters())
        outcome = run_sweep(spec, ledger_root, workers=2)
        counters = obs.counters()

        assert len(outcome.jobs) == 12
        assert set(outcome.failures) == {jobs[0].job_id}
        assert len(outcome.results) == 11
        assert outcome.retries >= 2
        assert not outcome.ok
        assert (
            counters.get("sweep.jobs.failed", 0)
            - before.get("sweep.jobs.failed", 0)
        ) == 1
        assert (
            counters.get("sweep.jobs.done", 0)
            - before.get("sweep.jobs.done", 0)
        ) == 11

        # Resume with the fault cleared: only the failed job re-runs.
        monkeypatch.delenv("REPRO_SWEEP_FAIL_JOBS")
        before = dict(obs.counters())
        resumed = run_sweep(spec, ledger_root, workers=2)
        counters = obs.counters()
        assert resumed.ok
        assert len(resumed.skipped) == 11
        assert (
            counters.get("sweep.jobs.skipped", 0)
            - before.get("sweep.jobs.skipped", 0)
        ) == 11
        assert (
            counters.get("sweep.jobs.done", 0)
            - before.get("sweep.jobs.done", 0)
        ) == 1
        assert len(resumed.results) == 12

        # Sweep payloads are byte-identical to standalone runs.
        for job in (jobs[0], jobs[1], jobs[6]):
            standalone = run_job(job)
            assert resumed.results[job.job_id] == standalone

        aggregated = aggregate(jobs, resumed.results)
        assert aggregated["missing"] == []
        assert set(aggregated["experiments"]) == {"fig4", "f70", "fig2"}
        for entry in aggregated["experiments"].values():
            assert len(entry["jobs"]) == 4  # 2 seeds × 2 scenarios
        report = render_report(aggregated)
        assert "fig4: 4 job(s)" in report

    def test_timeout_budget_enforced(self, cache_env, tmp_path, monkeypatch):
        spec = grid_spec(timeout=2, max_attempts=1)
        spec.seeds = (1,)
        spec.experiment_sets = (("fig4",),)
        jobs = spec.expand()
        assert len(jobs) == 2
        monkeypatch.setenv(
            "REPRO_SWEEP_FAIL_JOBS", f"{jobs[0].job_id}=hang"
        )
        outcome = run_sweep(spec, tmp_path / "ledgers", workers=2)
        assert set(outcome.failures) == {jobs[0].job_id}
        assert "budget" in outcome.failures[jobs[0].job_id]
        assert len(outcome.results) == 1

    def test_worker_crash_breaks_nothing_else(
        self, cache_env, tmp_path, monkeypatch
    ):
        spec = grid_spec(max_attempts=2)
        spec.seeds = (1,)
        spec.scenarios = (("baseline", {}),)
        spec.experiment_sets = (("fig4",), ("f70",), ("fig2",))
        jobs = spec.expand()
        assert len(jobs) == 3
        # Crash the LAST job: a pool break fails every in-flight attempt,
        # and the scheduler keeps up to workers*2 submitted — crashing an
        # earlier job would let whichever innocent neighbour happens to
        # share the window collect collateral "worker died" failures,
        # racing the rebuild timing.  With one worker executing FIFO, by
        # the time the final job crashes both earlier results are already
        # flushed to the result pipe (the executor drains it before
        # declaring the pool broken), so no innocent attempt is ever in
        # flight at either crash — the outcome is deterministic.
        monkeypatch.setenv(
            "REPRO_SWEEP_FAIL_JOBS", f"{jobs[2].job_id}=crash"
        )
        before = obs.counters().get("sweep.pool.rebuilt", 0)
        outcome = run_sweep(spec, tmp_path / "ledgers", workers=1)
        assert set(outcome.failures) == {jobs[2].job_id}
        assert "died" in outcome.failures[jobs[2].job_id]
        assert len(outcome.results) == 2
        assert obs.counters().get("sweep.pool.rebuilt", 0) > before

    def test_ledger_truncation_recovery(
        self, cache_env, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_SWEEP_FAIL_JOBS", raising=False)
        spec = grid_spec()
        jobs = spec.expand()
        clean_root, kill_root = tmp_path / "clean", tmp_path / "killed"
        clean = run_sweep(spec, clean_root, workers=2)
        assert clean.ok

        killed = run_sweep(spec, kill_root, workers=2)
        assert killed.ok
        # Simulate a mid-run kill by tearing the ledger: drop the last
        # few lines (losing some done records, tearing one in half).
        path = killed.ledger_dir / LEDGER_FILE
        lines = path.read_text().splitlines(keepends=True)
        survivors = lines[: len(lines) // 2]
        path.write_text("".join(survivors) + lines[len(lines) // 2][:20])

        ledger = RunLedger(killed.ledger_dir)
        still_done = set(ledger.completed())
        assert 0 < len(still_done) < 12

        resumed = run_sweep(spec, kill_root, workers=2)
        assert resumed.ok
        assert set(resumed.skipped) == still_done
        assert len(resumed.results) == 12
        # The resumed run's payloads and aggregate equal the
        # uninterrupted run's, byte for byte per experiment.
        for job in jobs:
            assert resumed.results[job.job_id] == clean.results[job.job_id]
        assert aggregate(jobs, resumed.results) == aggregate(
            jobs, clean.results
        )

    def test_status_rendering(self, cache_env, tmp_path):
        spec = grid_spec()
        spec.seeds = (1,)
        spec.scenarios = (("baseline", {}),)
        spec.experiment_sets = (("fig4",),)
        jobs = spec.expand()
        outcome = run_sweep(spec, tmp_path / "ledgers", workers=1)
        assert outcome.ok
        ledger = RunLedger(outcome.ledger_dir)
        status = render_status(jobs, ledger.job_states())
        assert "done" in status
        assert "-- 1 done, 0 failed, 0 pending of 1 job(s)" in status
