"""Tests for the structured observability layer (repro.obs).

Covers span nesting, counter aggregation and span attribution, gauge
semantics, snapshot JSON round-tripping, and the exporters.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def clean_state():
    """Each test starts and ends with empty observability state."""
    obs.reset()
    yield
    obs.reset()


class TestSpans:
    def test_nesting_builds_a_tree(self):
        with obs.span("outer"):
            with obs.span("inner.a"):
                pass
            with obs.span("inner.b"):
                with obs.span("leaf"):
                    pass
        roots = obs.root_spans()
        assert [s.name for s in roots] == ["outer"]
        outer = roots[0]
        assert [c.name for c in outer.children] == ["inner.a", "inner.b"]
        assert [c.name for c in outer.children[1].children] == ["leaf"]

    def test_elapsed_and_containment(self):
        with obs.span("parent"):
            with obs.span("child"):
                pass
        parent = obs.root_spans()[0]
        child = parent.children[0]
        assert parent.elapsed >= child.elapsed >= 0.0

    def test_attributes_at_open_and_annotate(self):
        with obs.span("work", scale=0.5):
            obs.annotate(items=42)
        span = obs.root_spans()[0]
        assert span.attrs == {"scale": 0.5, "items": 42}

    def test_annotate_outside_span_is_noop(self):
        obs.annotate(ignored=True)  # must not raise
        assert obs.root_spans() == []

    def test_current_span(self):
        assert obs.current_span() is None
        with obs.span("open"):
            current = obs.current_span()
            assert current is not None and current.name == "open"
        assert obs.current_span() is None

    def test_exception_still_records_span(self):
        with pytest.raises(ValueError):
            with obs.span("failing"):
                raise ValueError("boom")
        assert [s.name for s in obs.root_spans()] == ["failing"]

    def test_request_and_job_roots_only_add_timings(self):
        # A serve request or sweep job opened as a root is not kept...
        names = {"serve.request", "serve.job_at", "sweep.job"}
        for name in sorted(names):
            with obs.span(name):
                pass
        assert obs.root_spans() == []
        assert set(obs.timings()) == names
        # ...but one opened under another span stays in that tree.
        with obs.span("suite.run_job"):
            with obs.span("sweep.job"):
                pass
        (root,) = obs.root_spans()
        assert [child.name for child in root.children] == ["sweep.job"]

    def test_timings_accumulate_across_repeats(self):
        for _ in range(3):
            with obs.span("repeated"):
                pass
        timings = obs.timings()
        assert list(timings) == ["repeated"]
        assert timings["repeated"] >= 0.0


class TestMetrics:
    def test_counters_accumulate(self):
        obs.add("routes", 10)
        obs.add("routes", 5)
        obs.add("hits")
        assert obs.counters() == {"routes": 15, "hits": 1}

    def test_gauges_keep_last_value(self):
        obs.gauge("workers", 4)
        obs.gauge("workers", 8)
        assert obs.gauges() == {"workers": 8}

    def test_counters_attributed_to_innermost_span(self):
        with obs.span("outer"):
            obs.add("n", 1)
            with obs.span("inner"):
                obs.add("n", 2)
        outer = obs.root_spans()[0]
        assert outer.counters == {"n": 1}
        assert outer.children[0].counters == {"n": 2}
        # The process-wide registry sees the total.
        assert obs.counters() == {"n": 3}


class TestSnapshot:
    def test_json_round_trip(self):
        with obs.span("build", scale=0.1):
            obs.add("routes", 7)
            with obs.span("child"):
                pass
        obs.gauge("jobs", 2)
        snap = obs.snapshot()
        assert snap == json.loads(json.dumps(snap))
        assert snap["schema_version"] == obs.SCHEMA_VERSION
        assert snap["metrics"]["counters"] == {"routes": 7}
        assert snap["metrics"]["gauges"] == {"jobs": 2}
        (root,) = snap["spans"]
        assert root["name"] == "build"
        assert root["attrs"] == {"scale": 0.1}
        assert root["counters"] == {"routes": 7}
        assert [c["name"] for c in root["children"]] == ["child"]

    def test_snapshot_without_spans(self):
        with obs.span("s"):
            pass
        snap = obs.snapshot(spans=False)
        assert "spans" not in snap
        assert "s" in snap["timings_s"]

    def test_write_json(self, tmp_path):
        with obs.span("alpha"):
            obs.add("k", 3)
        path = tmp_path / "trace.json"
        obs.write_json(str(path))
        document = json.loads(path.read_text())
        assert document["spans"][0]["name"] == "alpha"
        assert document["metrics"]["counters"] == {"k": 3}


class TestExporters:
    def test_render_tree_indents_children(self):
        with obs.span("top"):
            with obs.span("sub"):
                obs.add("c", 2)
        text = obs.render_tree()
        lines = text.splitlines()
        assert lines[0].startswith("top: ")
        assert lines[1].startswith("  sub: ")
        assert "(c=2)" in lines[1]

    def test_render_flat_label_value_lines(self):
        with obs.span("stage.one"):
            pass
        obs.add("routes", 12)
        obs.gauge("jobs", 3)
        lines = obs.render_flat().splitlines()
        assert any(line.startswith("span_seconds.stage.one ") for line in lines)
        assert "counter.routes 12" in lines
        assert "gauge.jobs 3" in lines
        for line in lines:
            label, value = line.split(" ")
            float(value)  # every value parses as a number

    def test_perf_env_prints_stage_lines(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_PERF", "1")
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        err = capsys.readouterr().err
        lines = err.splitlines()
        # Children close first; nested spans are indented (legacy format).
        assert lines[0].startswith("[perf]   inner: ")
        assert lines[1].startswith("[perf] outer: ")


class TestRuntimeHelpers:
    def test_timings_ordered_by_first_completion(self):
        with obs.span("a"):
            with obs.span("b"):
                pass
        with obs.span("a"):
            pass
        assert list(obs.timings()) == ["b", "a"]

    def test_resolve_jobs_contract(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert obs.resolve_jobs() == 1
        assert obs.resolve_jobs(3) == 3
        assert obs.resolve_jobs(0) == (os.cpu_count() or 1)  # 0 = all cores
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert obs.resolve_jobs() == 5
        monkeypatch.setenv("REPRO_JOBS", "junk")
        assert obs.resolve_jobs() == 1

    def test_gc_paused_restores_state(self):
        import gc

        assert gc.isenabled()
        with obs.gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()


class TestPipelineIntegration:
    def test_build_emits_spans_and_counters(self):
        from repro.scenario.build import build_world

        obs.reset()
        world = build_world(scale=0.05, seed=3)
        names = {s.name for s in obs.root_spans()}
        assert {"build.topology", "build.collect_rib", "build.ihr"} <= names
        counters = obs.counters()
        assert counters["build.ases"] == len(world.topology.asns)
        assert counters["collect.routes_propagated"] > 0
        assert counters["rov.vrps_loaded"] > 0
        assert counters["ihr.prefix_origins"] > 0
        # Validation memo warms in build.classify, hits in ihr.validate.
        assert counters["rov.memo_hits"] > 0
        assert counters["irr.memo_hits"] > 0
        timings = obs.timings()
        assert set(names) <= set(timings)

    def test_observation_only_world_output_stable(self):
        """The obs layer is observation-only: builds are unaffected by it."""
        from repro.scenario.build import build_world

        def fingerprint(world):
            return world.rib.meta, {
                name: (column.dtype.str, column.tobytes())
                for name, column in world.rib.arrays.items()
            }

        obs.reset()
        first = fingerprint(build_world(scale=0.05, seed=9))
        # A second build on dirty obs state (no reset) must be identical.
        second = fingerprint(build_world(scale=0.05, seed=9))
        assert first == second
