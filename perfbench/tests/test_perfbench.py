"""Tests of the benchmark itself: metric declarations, a small run of
every workload, and that a corrupted output is reported as a failed op.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import compare, hostspeed, run, spec  # noqa: E402
from perfbench.serve_load import MIX, Reply, mix_classes, solo_share  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    Op,
    Outcome,
    Sizes,
    end_to_end,
    reference_digest,
)

SMALL = Sizes(sort_keys=20_000, sim_compute_keys=2_048, sim_storage_keys=1_024,
              serve_keys=2_000, setup_samples=1)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = spec.load_benchmark()


def _run(capsys, workload: str, trace: int, seconds: float = 0.3) -> tuple[int, dict]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds",
                     str(seconds), "--trace", str(trace)], sizes=SMALL)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def test_benchmark_json_follows_its_schema():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for workload in BENCHMARK["workloads"]:
        assert len(workload["why"]) <= 200
        assert workload["name"] in spec.WORKLOAD_LAYERS


def test_every_per_layer_metric_is_mapped_to_an_end_to_end_metric():
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    workloads = set(run.WORKLOADS)
    for metric in BENCHMARK["per_layer"]:
        for target, workload in spec.moves(metric["name"]):
            assert target in end_to_end and workload in workloads
        assert spec.domain(metric["name"]) in ("host", "simulated", "count")
    assert spec.domain("sim_cycles") == "simulated"
    assert spec.domain("hw.k8.merger_idle_cycles") == "simulated"


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_small_run_emits_every_declared_metric(capsys, workload, trace):
    seconds = 1.0 if workload == "serve_mixed" else 0.3
    code, result = _run(capsys, workload, trace, seconds)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        from repro.obs.report import build_report

        report = build_report(str(run.OUT / f"{workload}-seed3.trace.jsonl"))
        assert report["coverage"] >= 0.95
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_sim_cycles_repeat_exactly_for_a_seed(capsys):
    first = _run(capsys, "sim_storage", 0)[1]["metrics"]["sim_cycles"]["value"]
    second = _run(capsys, "sim_storage", 0)[1]["metrics"]["sim_cycles"]["value"]
    assert first == second


def _swap_first_pair(keys):
    keys = np.array(keys)
    index = int(np.flatnonzero(keys[1:] != keys[:-1])[0])
    keys[[index, index + 1]] = keys[[index + 1, index]]
    return keys


def test_reference_digest_sees_one_swapped_pair():
    keys = np.sort(np.random.default_rng(0).integers(1, 1000, 500))
    assert reference_digest(_swap_first_pair(keys)) != reference_digest(keys)


def test_corrupted_simulator_output_is_a_failed_op(capsys, monkeypatch):
    import repro.hw.tree as tree

    simulate_merge = tree.simulate_merge

    def corrupting(*args, **kwargs):
        runs, stats = simulate_merge(*args, **kwargs)
        if len(runs) == 1:
            runs = [_swap_first_pair(runs[0]).tolist()]
        return runs, stats

    monkeypatch.setattr(tree, "simulate_merge", corrupting)
    code, result = _run(capsys, "sim_storage", 0)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_corrupted_sort_output_is_a_failed_op(capsys, monkeypatch):
    # Disable the program's own validator so only the benchmark's
    # np.sort digest check stands between the swap and a pass.
    import repro.engine.sorter as sorter
    import repro.records.valsort as valsort

    sort = sorter.AmtSorter.sort

    def corrupting(self, data, *args, **kwargs):
        outcome = sort(self, data, *args, **kwargs)
        outcome.data = _swap_first_pair(outcome.data)
        return outcome

    monkeypatch.setattr(sorter.AmtSorter, "sort", corrupting)
    monkeypatch.setattr(valsort, "validate_sort",
                        lambda before, after: valsort.summarize(after))
    code, result = _run(capsys, "sort_model", 0)
    assert code == 1
    assert result["failed"] == result["attempted"] >= 1


def test_failed_ops_count_only_against_success():
    ops = [Op("sort", 1.0, keys=10, cycles=5),
           Op("sort", 0.001, keys=10, cycles=5, error="digest differs")]
    metrics = end_to_end(Outcome(ops, 1.0, [(0.1, 1.0)], 1.0, 5))
    assert metrics["success_rate"] == 0.5
    assert metrics["sort_records_per_s"] == 10
    assert metrics["sim_cycles_per_s"] == 5
    assert metrics["serve_ops_per_s"] == 1
    assert metrics["sort_p50_s"] == 1.0
    assert metrics["serve_p50_ms"] == 1000.0


def test_latency_percentiles_are_averaged_over_groups():
    ops = [Op("sort", latency, keys=1, group=group)
           for group, latency in [(0, 1.0), (0, 1.0), (0, 1.0), (1, 3.0)]]
    metrics = end_to_end(Outcome(ops, 1.0, [(0.1, 1.0)], 1.0, 5))
    assert metrics["sort_p50_s"] == 2.0
    assert metrics["serve_p90_ms"] == 2000.0


def test_rounds_take_each_jobs_median_normalized_latency():
    rounds = [(0, 1.0, None), (0, 3.0, None), (0, 2.0, None),
              (1, 0.1, "digest differs"), (1, 4.0, None), (1, 4.0, None)]
    ops = [Op("sort", latency, keys=10, cycles=6, error=error, job=job,
              scale=0.5) for job, latency, error in rounds]
    outcome = Outcome(ops, 0.0, [(0.2, 0.5), (0.4, 0.5), (9.0, 0.5)], 1.0, 6,
                      rounds=True)
    metrics = end_to_end(outcome)
    # Job 0 stands at 1.0 s normalized, job 1 at 2.0 s; the failed
    # round counts only against success.
    assert metrics["success_rate"] == 5 / 6
    assert metrics["sort_records_per_s"] == 20 / 3.0
    assert metrics["sim_cycles_per_s"] == 12 / 3.0
    assert metrics["serve_ops_per_s"] == 2 / 3.0
    assert metrics["sort_p50_s"] == 1.5
    assert metrics["setup_s"] == 0.2
    measured = end_to_end(outcome, measured=True)
    assert measured["sort_p50_s"] == 3.0 and measured["setup_s"] == 0.4


def test_reference_scales_to_its_nominal_time():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(ref, ref) == 1.0
    assert hostspeed.scale(ref, 3 * ref) == 0.5


def test_every_block_of_ten_requests_holds_the_mix():
    stream = mix_classes(3, 0)
    for _ in range(5):
        block = [next(stream) for _ in range(len(MIX))]
        assert sorted(block) == sorted(MIX)


def test_solo_share_counts_jobs_whose_batch_was_one():
    def reply(received, cached=False):
        return Reply("miss", "sort", {}, 0.0, received,
                     {"status": "ok", "cached": cached})

    # A batch of three, one job alone, a cache hit next to it, a pair.
    replies = [reply(1.0), reply(1.0001), reply(1.0002), reply(1.1),
               reply(1.1001, cached=True), reply(1.2), reply(1.2003)]
    assert solo_share(replies) == 1 / 6


def test_compare_refuses_another_host_shape():
    base = {"host": {"nproc": 2, "cpu_model": "a", "python": "3.11", "numpy": "2"},
            "workload": "sim_storage", "seconds": 20, "sizes": {}}
    other = dict(base, host=dict(base["host"], nproc=4))
    assert compare.mismatches(base, base) == []
    assert compare.mismatches(base, other) == [
        f"host: {base['host']!r} != {other['host']!r}"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sort_model",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
