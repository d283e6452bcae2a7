"""valsort-style output validation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.records.valsort import content_digest, summarize, validate_sort
from repro.records.workloads import duplicate_heavy, uniform_random


class TestSummarize:
    def test_sorted_stream(self):
        summary = summarize(np.array([1, 2, 2, 5], dtype=np.uint32))
        assert summary.is_sorted
        assert summary.records == 4
        assert summary.duplicates == 1
        assert summary.first_violation is None

    def test_unsorted_stream_reports_position(self):
        summary = summarize(np.array([1, 5, 3, 9], dtype=np.uint32))
        assert not summary.is_sorted
        assert summary.first_violation == 2

    def test_empty(self):
        summary = summarize(np.array([], dtype=np.uint32))
        assert summary.is_sorted and summary.records == 0

    def test_rejects_matrices(self):
        with pytest.raises(WorkloadError):
            summarize(np.zeros((2, 2), dtype=np.uint32))

    def test_checksum_is_order_independent(self):
        data = uniform_random(5_000, seed=1)
        shuffled = data.copy()
        np.random.default_rng(0).shuffle(shuffled)
        assert summarize(data).checksum == summarize(shuffled).checksum

    def test_uint64_keys_above_int64_range_are_sorted(self):
        summary = summarize(np.array([0, 2**63], dtype=np.uint64))
        assert summary.is_sorted
        assert summary.first_violation is None

    def test_uint64_violation_position_above_int64_range(self):
        keys = np.array([0, 2**63 + 5, 2**63 + 1], dtype=np.uint64)
        summary = summarize(keys)
        assert not summary.is_sorted
        assert summary.first_violation == 2
        assert summary.duplicates == 0

    def test_checksum_detects_multiset_changes(self):
        # {1, 3} vs {2, 2}: same sum, different multiset.
        a = summarize(np.array([1, 3], dtype=np.uint32))
        b = summarize(np.array([2, 2], dtype=np.uint32))
        assert a.checksum != b.checksum


class TestValidateSort:
    def test_accepts_correct_sort(self):
        data = duplicate_heavy(10_000, seed=2, distinct=100)
        summary = validate_sort(data, np.sort(data))
        assert summary.is_sorted

    def test_rejects_unsorted_output(self):
        data = uniform_random(100, seed=3)
        with pytest.raises(WorkloadError, match="not sorted"):
            validate_sort(data, data)

    def test_rejects_unsorted_uint64_extremes(self):
        keys = np.array([1, 2**64 - 1], dtype=np.uint64)
        with pytest.raises(WorkloadError, match="not sorted"):
            validate_sort(keys, keys[::-1])

    def test_rejects_lost_records(self):
        data = np.sort(uniform_random(100, seed=4))
        with pytest.raises(WorkloadError, match="record count"):
            validate_sort(data, data[:-1])

    def test_rejects_substituted_records(self):
        data = np.sort(uniform_random(100, seed=5))
        tampered = data.copy()
        tampered[50] = tampered[50] + 1 if tampered[50] < 2**32 - 1 else 0
        tampered = np.sort(tampered)
        with pytest.raises(WorkloadError, match="checksum"):
            validate_sort(data, tampered)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_property_any_real_sort_validates(self, seed):
        data = uniform_random(500, seed=seed)
        validate_sort(data, np.sort(data))


class TestContentDigest:
    """The digest is the serve cache key and the benchmark identity
    gate, so its value for a given key sequence is pinned."""

    @pytest.mark.parametrize(
        "keys, digest",
        (
            (np.array([7, 0, 2**32 - 1, 12345], dtype=np.uint32), "8ac7ede5d65ccfb0"),
            (
                np.array([2**63, 2**64 - 1, 5, 2**63 + 12345], dtype=np.uint64),
                "4cfdde26efb21753",
            ),
            ([3, 1, 2**64 - 1, 0], "4c857dfee0f8f99a"),
        ),
        ids=("uint32", "uint64-high", "list"),
    )
    def test_pinned(self, keys, digest):
        assert content_digest(keys) == digest
