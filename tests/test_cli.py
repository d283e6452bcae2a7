"""The ``bonsai`` command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import SUBCOMMANDS, _parse_size, main
from repro.units import GB

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestHelp:
    def test_lists_every_subcommand_with_summary(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        # argparse wraps help at the terminal width; collapse whitespace
        # so summaries match regardless of where the wraps land.
        out = " ".join(capsys.readouterr().out.split())
        for name, summary, _configure, _run in SUBCOMMANDS:
            assert name in out
            assert summary in out

    def test_registry_drives_dispatch(self):
        names = [name for name, _s, _c, _r in SUBCOMMANDS]
        assert len(names) == len(set(names))
        assert "lint" in names


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [("16GB", 16 * GB), ("2TB", 2 * 10**12), ("512MB", 512 * 10**6),
         ("64kb", 64_000), ("12345", 12_345), (" 1.5GB ", 1_500_000_000)],
    )
    def test_parses(self, text, expected):
        assert _parse_size(text) == expected


class TestOptimize:
    def test_default_run(self, capsys):
        assert main(["optimize", "--size", "16GB", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "AMT(32, 256)" in out

    def test_throughput_objective(self, capsys):
        code = main([
            "optimize", "--platform", "ssd-node", "--size", "8GB",
            "--objective", "throughput", "--presort", "256", "--top", "1",
        ])
        assert code == 0
        assert "4x pipelined AMT(8, 64)" in capsys.readouterr().out

    def test_leaves_cap(self, capsys):
        main(["optimize", "--leaves-cap", "64", "--top", "1"])
        assert "AMT(32, 64)" in capsys.readouterr().out


class TestSort:
    def test_model_mode(self, capsys):
        assert main(["sort", "--records", "5000"]) == 0
        assert "verified=OK" in capsys.readouterr().out

    def test_simulate_mode(self, capsys):
        assert main(["sort", "--records", "3000", "--mode", "simulate"]) == 0
        out = capsys.readouterr().out
        assert "mode=simulate" in out and "verified=OK" in out

    def test_workload_choice(self, capsys):
        assert main(["sort", "--records", "2000", "--workload", "reverse"]) == 0
        assert "verified=OK" in capsys.readouterr().out

    def test_file_roundtrip(self, tmp_path, capsys):
        import numpy as np

        from repro.records.files import read_records, write_records
        from repro.records.workloads import uniform_random

        source = tmp_path / "in.bin"
        target = tmp_path / "out.bin"
        data = uniform_random(5_000, seed=5)
        write_records(source, data)
        assert main([
            "sort", "--input", str(source), "--output", str(target),
        ]) == 0
        assert np.array_equal(read_records(target), np.sort(data))
        assert "wrote" in capsys.readouterr().out

    def test_missing_input_file_clean_error(self, tmp_path, capsys):
        assert main(["sort", "--input", str(tmp_path / "nope.bin")]) == 2
        assert "error:" in capsys.readouterr().err


class TestClusterSort:
    def test_executed_cluster_sort(self, capsys):
        assert main(["sort", "--records", "5000", "--cluster-nodes", "4"]) == 0
        out = capsys.readouterr().out
        assert "cluster-sorted 5,000 records" in out
        assert "across 4 nodes" in out
        assert "measured" in out and "modeled" in out
        assert "skew=" in out
        assert "verified=OK" in out

    def test_cluster_with_jobs_and_output(self, tmp_path, capsys):
        target = tmp_path / "sorted.bin"
        assert main([
            "sort", "--records", "4000", "--cluster-nodes", "2",
            "--jobs", "2", "--output", str(target),
        ]) == 0
        assert "wrote" in capsys.readouterr().out
        assert target.exists()

    def test_bad_node_count_clean_error(self, capsys):
        assert main(["sort", "--records", "100", "--cluster-nodes", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_jobs_without_cluster_is_usage_error(self, capsys):
        # One tree is one unit of work: --jobs would be accepted and
        # change nothing, so it is refused instead.
        assert main(["sort", "--records", "100", "--jobs", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 1
        assert "--cluster-nodes" in captured.err
        assert captured.out == ""


class TestScalability:
    def test_prints_curve_and_breakpoints(self, capsys):
        assert main(["scalability", "--max", "4TB"]) == 0
        out = capsys.readouterr().out
        assert "ms/GB" in out
        assert "switch to SSD sorter" in out


class TestSsdPlan:
    def test_table_v(self, capsys):
        assert main(["ssd-plan"]) == 0
        out = capsys.readouterr().out
        assert "256.0s" in out and "4.3s" in out and "516.3s" in out

    def test_overflow_is_clean_error(self, capsys):
        assert main(["ssd-plan", "--size", "100TB"]) == 2
        assert "error:" in capsys.readouterr().err


class TestComponents:
    def test_prints_both_widths(self, capsys):
        assert main(["components"]) == 0
        out = capsys.readouterr().out
        assert "18,853" in out  # 32-bit 32-merger
        assert "77,732" in out  # 128-bit 32-merger


class TestValidate:
    def test_reports_error_bands(self, capsys):
        assert main(["validate", "--records", "8192"]) == 0
        out = capsys.readouterr().out
        assert "performance geometric-mean error" in out
        assert "paper claims <10%" in out


class TestExperiments:
    def test_writes_table_files(self, tmp_path, capsys):
        assert main(["experiments", "--out", str(tmp_path)]) == 0
        for name in ("table1", "table5", "fig12", "fig13"):
            assert (tmp_path / f"{name}.txt").exists()
        table5 = (tmp_path / "table5.txt").read_text()
        assert "516.3" in table5


class TestLint:
    def test_json_format_smoke(self, capsys):
        code = main([
            "lint", str(REPO_ROOT / "src" / "repro" / "units.py"),
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_scanned"] == 1
        assert payload["diagnostics"] == []

    def test_text_format_on_dirty_file(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("raise ValueError('x')\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "error-taxonomy" in out
        assert "1 finding(s)" in out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("unit-mix", "clock-discipline", "determinism",
                     "model-purity", "error-taxonomy"):
            assert rule in out

    def test_missing_path_is_clean_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "missing")]) == 2
        assert "error:" in capsys.readouterr().err


class TestBench:
    def test_list_scenarios(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "micro_hdd_read_starved" in out
        assert "e2e_hdd_sort" in out
        assert "optimizer_sweep" in out

    def test_quick_single_scenario_writes_report(self, tmp_path, capsys):
        report_path = tmp_path / "bench.json"
        code = main([
            "bench", "--quick", "--scenario", "micro_ssd_read_starved",
            "--output", str(report_path),
        ])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["quick"] is True
        scenario = payload["scenarios"]["micro_ssd_read_starved"]
        assert scenario["fast_seconds"] > 0
        assert scenario["cycles"] > 0
        assert "speedup" in capsys.readouterr().out

    def test_baseline_gate_return_codes(self, tmp_path, capsys):
        report_path = tmp_path / "bench.json"
        baseline_path = tmp_path / "baseline.json"
        assert main([
            "bench", "--quick", "--scenario", "micro_unconstrained",
            "--output", str(report_path),
        ]) == 0
        # Gating against our own run passes...
        report_path.rename(baseline_path)
        assert main([
            "bench", "--quick", "--scenario", "micro_unconstrained",
            "--output", str(report_path), "--baseline", str(baseline_path),
        ]) == 0
        # ...and an absurdly tight slowdown threshold fails loudly.
        capsys.readouterr()
        code = main([
            "bench", "--quick", "--scenario", "micro_unconstrained",
            "--output", str(report_path), "--baseline", str(baseline_path),
            "--max-slowdown", "0.0001",
        ])
        assert code == 1
        err = capsys.readouterr().err
        # The failure is diagnosable from the log alone: it names the
        # scenario, the measured factor vs the gate, both absolute
        # times, and summarises how much of the suite regressed.
        assert "regression: micro_unconstrained:" in err
        assert "x slower than baseline (gate 0.0x):" in err
        assert "s now vs" in err and "s baseline (+" in err
        assert f"1 of 1 scenario(s) regressed vs {baseline_path}" in err

    def test_unknown_scenario_is_clean_error(self, capsys):
        assert main(["bench", "--scenario", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        # The error must teach the fix: every valid name is listed.
        from repro.bench import SCENARIOS

        for scenario in SCENARIOS:
            assert scenario.name in err


class TestServeCommand:
    def test_socket_flag_is_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve"])
        assert excinfo.value.code == 2
        assert "--socket" in capsys.readouterr().err

    def test_overlong_socket_path_is_a_clean_error(self, capsys):
        assert main(["serve", "--socket", "/tmp/" + "x" * 120]) == 2
        assert "socket path" in capsys.readouterr().err

    def test_bad_queue_shape_is_a_clean_error(self, capsys):
        assert main(["serve", "--socket", "/tmp/s.sock",
                     "--queue-depth", "0"]) == 2
        assert "depth" in capsys.readouterr().err


class TestReportTrace:
    def test_traced_sort_renders_attribution(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["sort", "--records", "3000", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "phase attribution" in out
        assert "cli.sort" in out
        assert "coverage:" in out
