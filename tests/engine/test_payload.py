"""Key/value sorting: payloads follow keys, stably."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import presets
from repro.core.configuration import AmtConfig
from repro.engine.payload import KeyValueSorter
from repro.errors import ConfigurationError
from repro.records.record import U64
from repro.records.workloads import duplicate_heavy, nearly_sorted, uniform_random

#: Oracle inputs: the benchmark's three key distributions, plus uint64
#: keys that all sit at or above 2**63 (where a signed view would wrap).
WORKLOADS = {
    "uniform": lambda n: uniform_random(n, U64, seed=21),
    "duplicates": lambda n: duplicate_heavy(n, U64, seed=22, distinct=7),
    "nearly_sorted": lambda n: nearly_sorted(n, U64, seed=23),
    "uint64_high": lambda n: uniform_random(n, U64, seed=24) | np.uint64(1 << 63),
}


@pytest.fixture(scope="module")
def sorter():
    return KeyValueSorter(
        config=AmtConfig(p=8, leaves=16),
        hardware=presets.aws_f1().hardware,
    )


class TestPermMerge:
    """The payload comes back as the keys' stable sort permutation when
    it holds each record's input position."""

    def test_positions_place_keys(self, sorter):
        # Two presorted runs back to back.
        keys = np.array([1, 4, 7, 2, 4, 9], dtype=np.uint32)
        outcome, positions = sorter.sort(keys, np.arange(keys.size))
        assert outcome.data.tolist() == [1, 2, 4, 4, 7, 9]
        assert keys[positions].tolist() == outcome.data.tolist()

    def test_ties_left_first(self, sorter):
        keys = np.array([5, 5], dtype=np.uint32)
        _, positions = sorter.sort(keys, np.arange(keys.size))
        assert positions.tolist() == [0, 1]

    @given(
        st.lists(st.integers(0, 30), max_size=20).map(sorted),
        st.lists(st.integers(0, 30), max_size=20).map(sorted),
    )
    @settings(max_examples=60)
    def test_property(self, sorter, left, right):
        keys = np.array(left + right, dtype=np.int64)
        outcome, positions = sorter.sort(keys, np.arange(keys.size))
        assert outcome.data.tolist() == sorted(left + right)
        assert sorted(positions.tolist()) == list(range(len(left) + len(right)))
        assert np.array_equal(positions, np.argsort(keys, kind="stable"))


class TestKeyValueSorter:
    def test_payload_follows_keys(self, sorter):
        keys = uniform_random(5_000, seed=1)
        payload = np.arange(5_000, dtype=np.uint64)
        outcome, sorted_payload = sorter.sort(keys, payload)
        assert outcome.is_sorted()
        # Every (key, payload) pair from the input appears in the output.
        assert np.array_equal(keys[sorted_payload], outcome.data)

    def test_stability_on_duplicates(self, sorter):
        keys = duplicate_heavy(2_000, seed=2, distinct=5)
        payload = np.arange(2_000, dtype=np.uint64)
        outcome, sorted_payload = sorter.sort(keys, payload)
        # Within each equal-key block, payload ordinals must increase.
        for key in np.unique(outcome.data):
            block = sorted_payload[outcome.data == key]
            assert np.all(np.diff(block.astype(np.int64)) > 0)

    def test_empty(self, sorter):
        outcome, payload = sorter.sort(
            np.array([], dtype=np.uint32), np.array([], dtype=np.uint64)
        )
        assert outcome.n_records == 0 and payload.size == 0

    def test_misaligned_shapes_rejected(self, sorter):
        with pytest.raises(ConfigurationError, match="align"):
            sorter.sort(np.array([1, 2]), np.array([1]))

    def test_timing_matches_plain_sorter(self, sorter):
        from repro.engine.sorter import AmtSorter

        keys = uniform_random(10_000, seed=3)
        payload = np.zeros(10_000, dtype=np.uint8)
        outcome, _ = sorter.sort(keys, payload)
        plain = AmtSorter(
            config=sorter.config, hardware=sorter.hardware, arch=sorter.arch
        ).sort(keys)
        assert outcome.seconds == pytest.approx(plain.seconds)
        assert outcome.stages == plain.stages

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_payload_equals_stable_argsort(self, sorter, workload):
        keys = WORKLOADS[workload](20_000)
        payload = np.arange(keys.size, dtype=np.uint64) * np.uint64(3)
        outcome, sorted_payload = sorter.sort(keys, payload)
        assert np.array_equal(outcome.data, np.sort(keys))
        assert np.array_equal(
            sorted_payload, payload[np.argsort(keys, kind="stable")]
        )

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_property_roundtrip(self, seed):
        sorter = KeyValueSorter(
            config=AmtConfig(p=4, leaves=4),
            hardware=presets.aws_f1().hardware,
        )
        keys = uniform_random(500, seed=seed)
        payload = np.arange(500, dtype=np.uint64)
        outcome, sorted_payload = sorter.sort(keys, payload)
        assert np.array_equal(np.sort(keys), outcome.data)
        assert sorted(sorted_payload.tolist()) == list(range(500))
