"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.registry import REGISTRY

FINDING_IDS = [finding.id for spec in REGISTRY.values() for finding in spec.findings]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.scale == 0.2
        assert args.seed == 42
        assert args.command == "report"

    def test_common_flags_after_subcommand(self):
        args = build_parser().parse_args(["report", "--scale", "0.1", "--seed", "7"])
        assert args.scale == 0.1
        assert args.seed == 7

    def test_common_flags_before_subcommand_still_work(self):
        args = build_parser().parse_args(["--scale", "0.1", "report"])
        assert args.scale == 0.1
        assert args.seed == 42

    def test_subcommand_position_wins_over_default(self):
        args = build_parser().parse_args(["reproduce", "--trace-json", "t.json"])
        assert args.trace_json == "t.json"
        assert args.scale == 0.2

    def test_hijack_flags(self):
        args = build_parser().parse_args(
            ["hijack", "--sub-prefix", "--protected"]
        )
        assert args.sub_prefix and args.protected

    def test_sweep_run_flags(self):
        args = build_parser().parse_args(
            ["sweep", "run", "spec.json", "--workers", "3", "--timeout", "9"]
        )
        assert args.command == "sweep" and args.sweep_command == "run"
        assert args.spec == "spec.json"
        assert args.workers == 3 and args.timeout == 9.0

    def test_sweep_requires_verb(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])


class TestCommands:
    ARGS = ["--scale", "0.06", "--seed", "3"]

    def test_report(self, capsys):
        """One ✓/✗ row per declared finding, whether or not it holds."""
        assert main(self.ARGS + ["report"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:-1]
        assert [row.split()[0] for row in rows] == FINDING_IDS
        assert all(row.endswith(("✓", "✗")) for row in rows)

    def test_audit(self, capsys):
        assert main(self.ARGS + ["audit"]) == 0
        out = capsys.readouterr().out
        assert "organisations unconformant" in out

    def test_export(self, capsys, tmp_path):
        target = tmp_path / "data"
        assert main(self.ARGS + ["export", str(target)]) == 0
        assert (target / "prefix2as.txt").exists()
        assert (target / "vrps.csv").exists()

    def test_hijack(self, capsys):
        assert main(self.ARGS + ["hijack"]) == 0
        out = capsys.readouterr().out
        assert "vantage points captured" in out

    def test_hijack_protected_subprefix(self, capsys):
        assert main(self.ARGS + ["hijack", "--sub-prefix", "--protected"]) == 0
        out = capsys.readouterr().out
        assert "sub_prefix" in out

    def test_reproduce(self, capsys):
        assert main(self.ARGS + ["reproduce"]) == 0
        out = capsys.readouterr().out
        for marker in ("Figure 2", "Figure 9", "Table 1", "Table 2"):
            assert marker in out


    def test_reproduce_only_filters(self, capsys):
        assert main(self.ARGS + ["reproduce", "--only", "fig5,tab2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out and "Table 2" in out
        assert "Figure 2" not in out

    def test_reproduce_only_unknown_name(self, capsys):
        assert main(self.ARGS + ["reproduce", "--only", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err

    def test_reproduce_list_prints_registry(self, capsys):
        assert main(["reproduce", "--list"]) == 0
        out = capsys.readouterr().out
        assert "paper ref" in out
        assert "fig5" in out and "Figure 5" in out

    def test_ready_known_as(self, capsys):
        assert main(self.ARGS + ["ready", "100"]) == 0
        out = capsys.readouterr().out
        assert "Action 4" in out and "Action 1" in out

    def test_ready_unknown_as(self, capsys):
        assert main(self.ARGS + ["ready", "999999"]) == 1


class TestJsonOutput:
    ARGS = ["--scale", "0.06", "--seed", "3"]

    def test_report_json(self, capsys):
        assert main(self.ARGS + ["report", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["id"] for row in rows] == FINDING_IDS
        for row in rows:
            assert isinstance(row["passed"], bool)
            assert row["measured"] is None or isinstance(row["measured"], float)

    def test_audit_json(self, capsys):
        assert main(self.ARGS + ["audit", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload["unconformant_orgs"], list)

    def test_ready_json(self, capsys):
        assert main(self.ARGS + ["ready", "100", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["asn"] == 100
        assert set(payload) >= {"ready", "action4", "action1", "blockers"}


class TestSweepCli:
    @pytest.fixture
    def spec_file(self, tmp_path, monkeypatch):
        """A 2-job sweep spec with the cache dir pointed at tmp_path."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_SWEEP_FAIL_JOBS", raising=False)
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "name": "cli-smoke",
                    "axes": {
                        "scale": [0.05],
                        "seed": [1, 2],
                        "experiments": ["fig4"],
                    },
                    "workers": 2,
                    "timeout": 120,
                    "max_attempts": 1,
                }
            )
        )
        return path

    def test_run_status_resume_report(self, capsys, spec_file):
        assert main(["sweep", "run", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "2/2 done" in out and "ledger:" in out

        assert main(["sweep", "status", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "-- 2 done, 0 failed, 0 pending of 2 job(s)" in out

        assert main(["sweep", "resume", str(spec_file)]) == 0
        assert "(2 skipped" in capsys.readouterr().out

        assert main(["sweep", "report", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "Sweep report" in out and "fig4: 2 job(s)" in out
        for finding in REGISTRY["fig4"].findings:  # "<id>  <k>/2 held  measured ..."
            lines = [line.split() for line in out.splitlines()]
            assert [words[2] for words in lines if words[:1] == [finding.id]] == ["held"]

    def test_report_before_run_flags_missing(self, capsys, spec_file):
        assert main(["sweep", "report", str(spec_file)]) == 1
        assert "missing: 2 job(s)" in capsys.readouterr().out

    def test_sweep_list(self, capsys):
        assert main(["sweep", "list"]) == 0
        out = capsys.readouterr().out
        assert "paper ref" in out and "fig4" in out

    def test_requires_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        spec = tmp_path / "spec.json"
        spec.write_text("{}")
        assert main(["sweep", "run", str(spec)]) == 2
        assert "REPRO_CACHE_DIR" in capsys.readouterr().err

    def test_invalid_spec_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"axes": {"experiments": ["fig99"]}}))
        assert main(["sweep", "run", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "invalid sweep spec" in err and "fig99" in err


class TestTraceJson:
    def test_trace_covers_build_and_experiments(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        args = [
            "reproduce",
            "--scale", "0.06",
            "--seed", "3",
            "--only", "fig5,tab2",
            "--trace-json", str(trace),
        ]
        assert main(args) == 0
        document = json.loads(trace.read_text())
        assert document["schema_version"] == 1

        def names(nodes):
            out = set()
            for node in nodes:
                out.add(node["name"])
                out |= names(node.get("children", ()))
            return out

        seen = names(document["spans"])
        assert {"cli.reproduce", "cli.build_world", "build.topology"} <= seen
        assert {"experiment.fig5", "experiment.tab2"} <= seen
        counters = document["metrics"]["counters"]
        assert counters["collect.routes_propagated"] > 0
        assert "propagation.cache_hits" in counters
