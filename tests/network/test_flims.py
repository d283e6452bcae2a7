"""Differential suite for the FLiMS-style merge kernels.

Two kernels carry the merge data: the scalar 2k half-merger every
simulated merger cycle runs (:func:`repro.hw.merger.tuple_merge_kernel`)
and the functional model-mode merge (:func:`repro.engine.stage.merge_runs`).
This suite pins both against independent references — a numpy sort for
the tuple kernel, and the cycle-level simulator for the run merge — so
neither can change a simulation, digest or cycle count unnoticed.  It
covers ≥32 seeds, every paper-relevant merger width, duplicate-heavy key
spaces and ragged run shapes.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.engine.stage import merge_runs
from repro.hw.merger import tuple_merge_kernel
from repro.hw.tree import simulate_merge

SEEDS = range(32)
WIDTHS = (2, 4, 8, 16, 32)


def _sorted_tuple(rng: random.Random, k: int, key_range: int) -> tuple:
    return tuple(sorted(rng.randrange(0, key_range) for _ in range(k)))


def _numpy_halves(left: tuple, right: tuple, k: int) -> tuple[tuple, tuple]:
    merged = np.sort(np.asarray(left + right, dtype=np.int64), kind="stable").tolist()
    return tuple(merged[:k]), tuple(merged[k:])


def _simulated(left: np.ndarray, right: np.ndarray) -> list[int]:
    """The cycle-level simulator's merge of two runs (one AMT(2, 2) group)."""
    out, _ = simulate_merge(
        2, 2, [left.tolist(), right.tolist()], check_sorted_inputs=False
    )
    assert len(out) == 1
    return out[0]


class TestTupleKernel:
    @pytest.mark.parametrize("k", WIDTHS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_numpy_matches_python_random(self, k, seed):
        rng = random.Random(seed)
        left = _sorted_tuple(rng, k, 1 << 30)
        right = _sorted_tuple(rng, k, 1 << 30)
        assert tuple_merge_kernel(k)(left, right) == _numpy_halves(left, right, k)

    @pytest.mark.parametrize("k", WIDTHS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_numpy_matches_python_duplicate_heavy(self, k, seed):
        rng = random.Random(1000 + seed)
        left = _sorted_tuple(rng, k, 4)
        right = _sorted_tuple(rng, k, 4)
        assert tuple_merge_kernel(k)(left, right) == _numpy_halves(left, right, k)

    def test_halves_partition_and_sort(self):
        lower, upper = tuple_merge_kernel(3)((1, 5, 9), (2, 6, 7))
        assert lower == (1, 2, 5)
        assert upper == (6, 7, 9)
        assert max(lower) <= min(upper)

    def test_width_one_is_compare_swap(self):
        kernel = tuple_merge_kernel(1)
        assert kernel((2,), (1,)) == ((1,), (2,))
        assert kernel((1,), (2,)) == ((1,), (2,))
        # Ties keep the left operand first (the merger's <= preference).
        assert kernel((3,), (3,)) == ((3,), (3,))

    @pytest.mark.parametrize("k", (1, 2))
    def test_left_wins_ties(self, k):
        # Floats and ints compare equal but keep their type, so the
        # output shows which operand an equal key came from.
        left = tuple(float(x) for x in range(1, k + 1))
        right = tuple(range(1, k + 1))
        lower, upper = tuple_merge_kernel(k)(left, right)
        merged = lower + upper
        assert merged == tuple(sorted(left + right))
        for position in range(0, 2 * k, 2):
            assert type(merged[position]) is float
            assert type(merged[position + 1]) is int


class TestRunKernel:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_sorted_concatenation(self, seed):
        rng = random.Random(seed)
        left = sorted(rng.randrange(0, 100) for _ in range(rng.randrange(0, 40)))
        right = sorted(rng.randrange(0, 100) for _ in range(rng.randrange(0, 40)))
        merged = merge_runs([np.asarray(left, dtype=np.uint64), np.asarray(right, dtype=np.uint64)])
        assert merged.tolist() == sorted(left + right)

    def test_left_wins_ties(self):
        # Distinguishable equal keys: floats vs ints compare equal but
        # keep their object identity through the merge.
        left = np.asarray([1, 2.0, 3], dtype=object)
        right = np.asarray([2, 3.0], dtype=object)
        merged = merge_runs([left, right]).tolist()
        assert merged == [1, 2.0, 2, 3, 3.0]
        assert type(merged[1]) is float and type(merged[2]) is int
        assert type(merged[3]) is int and type(merged[4]) is float

    def test_empty_sides(self):
        empty = np.empty(0, dtype=np.uint64)
        pair = np.asarray([1, 2], dtype=np.uint64)
        assert merge_runs([empty, pair]).tolist() == [1, 2]
        assert merge_runs([pair, empty]).tolist() == [1, 2]
        assert merge_runs([empty, empty]).tolist() == []
        assert merge_runs([]).dtype == np.uint64


class TestArrayKernel:
    """Model mode's merge against the simulator's merge of the same runs."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_backends_bit_identical_on_ragged_runs(self, seed):
        rng = np.random.default_rng(seed)
        left = np.sort(rng.integers(0, 50, size=int(rng.integers(0, 700))))
        right = np.sort(rng.integers(0, 50, size=int(rng.integers(0, 700))))
        vectorized = merge_runs([left, right])
        assert vectorized.dtype == np.result_type(left, right)
        assert vectorized.tolist() == _simulated(left, right)

    def test_stability_keeps_left_first(self):
        left = np.asarray([5, 5, 7], dtype=np.uint64)
        right = np.asarray([5, 6, 7], dtype=np.uint64)
        vectorized = merge_runs([left, right])
        assert vectorized.dtype == np.uint64
        assert vectorized.tolist() == [5, 5, 5, 6, 7, 7] == _simulated(left, right)


class TestSimulatorBackendIdentity:
    """Whole-stage differential: the simulator's two engines and model mode."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("p,leaves", ((2, 4), (4, 4), (8, 16)))
    def test_simulate_merge_identical_across_backends(self, seed, p, leaves):
        rng = random.Random(seed)
        runs = [
            sorted(rng.randrange(0, 64) for _ in range(rng.randrange(1, 120)))
            for _ in range(leaves)
        ]
        fast_out, fast_stats = simulate_merge(
            p, leaves, runs, check_sorted_inputs=False, engine="fast"
        )
        naive_out, naive_stats = simulate_merge(
            p, leaves, runs, check_sorted_inputs=False, engine="naive"
        )
        assert fast_out == naive_out
        assert fast_stats == naive_stats
        model = merge_runs([np.asarray(run, dtype=np.uint64) for run in runs])
        assert fast_out == [model.tolist()]
