"""Functional merge-stage data path."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import presets
from repro.core.configuration import AmtConfig
from repro.engine.sorter import AmtSorter
from repro.engine.stage import (
    check_stage_invariants,
    merge_runs,
    merge_stage,
    split_into_runs,
)
from repro.errors import ConfigurationError
from repro.records.record import U64
from repro.records.workloads import duplicate_heavy, nearly_sorted, uniform_random

#: Oracle inputs: the benchmark's three key distributions, plus uint64
#: keys that all sit at or above 2**63 (where a signed view would wrap).
WORKLOADS = {
    "uniform": lambda n: uniform_random(n, U64, seed=11),
    "duplicates": lambda n: duplicate_heavy(n, U64, seed=12, distinct=7),
    "nearly_sorted": lambda n: nearly_sorted(n, U64, seed=13),
    "uint64_high": lambda n: uniform_random(n, U64, seed=14) | np.uint64(1 << 63),
}


class TestMergeTwoSorted:
    def test_basic(self):
        left = np.array([1, 3, 5], dtype=np.uint32)
        right = np.array([2, 4, 6], dtype=np.uint32)
        assert merge_runs([left, right]).tolist() == [1, 2, 3, 4, 5, 6]

    def test_empty_sides(self):
        data = np.array([1, 2], dtype=np.uint32)
        empty = np.array([], dtype=np.uint32)
        assert merge_runs([data, empty]).tolist() == [1, 2]
        assert merge_runs([empty, data]).tolist() == [1, 2]
        assert merge_runs([empty, empty]).size == 0

    def test_stability_ties_keep_left_first(self):
        # Equal bare keys are indistinguishable; the left-first order of
        # equal keys is observable through payloads (test_payload.py).
        left = np.array([5, 5], dtype=np.uint32)
        right = np.array([5], dtype=np.uint32)
        out = merge_runs([left, right])
        assert out.tolist() == [5, 5, 5]
        assert out.dtype == np.uint32

    @given(
        st.lists(st.integers(0, 1000), max_size=50).map(sorted),
        st.lists(st.integers(0, 1000), max_size=50).map(sorted),
    )
    @settings(max_examples=100)
    def test_property(self, left, right):
        out = merge_runs(
            [np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)]
        )
        assert out.tolist() == sorted(left + right)


class TestMergeRuns:
    def test_tournament(self):
        runs = [np.array(sorted([7 * i % 13, 5 * i % 11, i])) for i in range(7)]
        out = merge_runs(runs)
        assert out.tolist() == sorted(x for run in runs for x in run)

    def test_empty_list(self):
        assert merge_runs([]).size == 0

    def test_single_run_passthrough(self):
        run = np.array([1, 2, 3])
        assert merge_runs([run]).tolist() == [1, 2, 3]


class TestMergeStage:
    def test_grouping(self):
        runs = [np.array([i]) for i in range(10)]
        out = merge_stage(runs, leaves=4)
        assert [r.tolist() for r in out] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_empty_input(self):
        out = merge_stage([], leaves=4)
        assert len(out) == 1 and out[0].size == 0

    def test_rejects_single_leaf(self):
        with pytest.raises(ConfigurationError):
            merge_stage([np.array([1])], leaves=1)

    def test_matches_hw_semantics(self):
        # Same grouping as repro.hw: output run j covers input group j.
        rng = np.random.default_rng(0)
        runs = [np.sort(rng.integers(0, 100, size=5)) for _ in range(8)]
        out = merge_stage(runs, leaves=4)
        assert out[0].tolist() == sorted(np.concatenate(runs[:4]).tolist())
        assert out[1].tolist() == sorted(np.concatenate(runs[4:]).tolist())

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_matches_np_sort_per_group(self, workload):
        runs = split_into_runs(WORKLOADS[workload](3_000), 16)
        out = merge_stage(runs, leaves=8)
        assert len(out) == -(-len(runs) // 8)
        for index, run in enumerate(out):
            expected = np.sort(np.concatenate(runs[index * 8 : (index + 1) * 8]))
            assert run.dtype == np.uint64
            assert np.array_equal(run, expected)


class TestModelModeOracle:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_model_mode_equals_np_sort(self, workload):
        data = WORKLOADS[workload](20_000)
        sorter = AmtSorter(
            config=AmtConfig(p=8, leaves=16), hardware=presets.aws_f1().hardware
        )
        outcome = sorter.sort(data)
        assert outcome.data.dtype == data.dtype
        assert np.array_equal(outcome.data, np.sort(data))
        assert outcome.stages >= 2  # several merge stages, not one group


class TestSplitIntoRuns:
    def test_sorts_each_run(self):
        data = np.array([4, 3, 2, 1, 8, 7, 6, 5], dtype=np.uint32)
        runs = split_into_runs(data, 4)
        assert [r.tolist() for r in runs] == [[1, 2, 3, 4], [5, 6, 7, 8]]

    def test_presorted_skips_sorting(self):
        data = np.array([4, 3, 2, 1], dtype=np.uint32)
        runs = split_into_runs(data, 2, presorted=True)
        assert runs[0].tolist() == [4, 3]  # untouched

    def test_partial_tail(self):
        runs = split_into_runs(np.array([3, 1, 2]), 2)
        assert [r.tolist() for r in runs] == [[1, 3], [2]]

    def test_rejects_bad_run_length(self):
        with pytest.raises(ConfigurationError):
            split_into_runs(np.array([1]), 0)

    def test_does_not_mutate_input(self):
        data = np.array([2, 1], dtype=np.uint32)
        split_into_runs(data, 2)
        assert data.tolist() == [2, 1]


class TestInvariantChecker:
    def test_passes_valid_stage(self):
        runs_in = [np.array([1, 3]), np.array([2, 4])]
        runs_out = merge_stage(runs_in, leaves=2)
        check_stage_invariants(runs_in, runs_out, leaves=2)

    def test_detects_lost_records(self):
        with pytest.raises(ConfigurationError, match="lost records"):
            check_stage_invariants(
                [np.array([1, 2])], [np.array([1])], leaves=2
            )

    def test_detects_unsorted_output(self):
        with pytest.raises(ConfigurationError, match="not sorted"):
            check_stage_invariants(
                [np.array([1, 2])], [np.array([2, 1])], leaves=2
            )

    def test_detects_wrong_group_count(self):
        with pytest.raises(ConfigurationError, match="runs, expected"):
            check_stage_invariants(
                [np.array([1]), np.array([2])],
                [np.array([1]), np.array([2])],
                leaves=2,
            )
