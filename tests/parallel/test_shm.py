"""Shared-memory transport: pack/alloc/read/write round trips."""

from __future__ import annotations

import pickle
import re

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.parallel.shm import (
    KEY_RULE,
    ShmArrays,
    alloc_arrays,
    pack_arrays,
    read_array,
    release,
    unsigned_keys,
    view_array,
    write_array,
)


def test_pack_and_read_round_trip():
    arrays = [
        np.arange(5, dtype=np.uint64),
        np.array([], dtype=np.uint64),
        np.arange(100, 110, dtype=np.uint64),
    ]
    block, desc = pack_arrays(arrays)
    try:
        assert desc.lengths == (5, 0, 10)
        assert desc.offsets == (0, 5, 5)
        assert desc.total == 15
        for index, original in enumerate(arrays):
            assert np.array_equal(read_array(desc, index), original)
    finally:
        release(block)


def test_offsets_are_computed_once():
    # A stage views every one of its R slots; rebuilding the offsets
    # tuple per view made that O(R**2).  The descriptor keeps one tuple,
    # and it survives the pickle to a worker.
    desc = ShmArrays(name="unused", dtype="uint64", lengths=tuple(range(2000)))
    first = desc.offsets
    assert desc.offsets is first
    assert first[:4] == (0, 0, 1, 3)
    assert first[-1] == sum(range(1999))
    shipped = pickle.loads(pickle.dumps(desc))
    assert shipped == desc and shipped.offsets == first


def test_pack_rejects_empty_list():
    with pytest.raises(ConfigurationError, match="zero arrays"):
        pack_arrays([])


def test_alloc_write_view_round_trip():
    block, desc = alloc_arrays([4, 0, 3], np.int64)
    try:
        write_array(desc, 0, np.array([4, 3, 2, 1]))
        write_array(desc, 2, np.array([7, 8, 9]))
        assert np.array_equal(view_array(desc, 0, block), [4, 3, 2, 1])
        assert np.array_equal(view_array(desc, 2, block), [7, 8, 9])
        assert view_array(desc, 1, block).size == 0
    finally:
        release(block)


def test_write_rejects_size_mismatch():
    block, desc = alloc_arrays([3], np.uint64)
    try:
        with pytest.raises(ConfigurationError, match="slot 0"):
            write_array(desc, 0, np.arange(5, dtype=np.uint64))
    finally:
        release(block)


def test_release_tolerates_double_release():
    block, _desc = alloc_arrays([2], np.uint64)
    release(block)
    release(block)  # no FileNotFoundError escape


class TestUint64Packability:
    """The one records-boundary check of simulate mode and the cluster."""

    def test_unsigned_and_safe_signed_pack(self):
        unsigned = np.asarray([0, 2**64 - 1], dtype=np.uint64)
        signed = np.asarray([0, 5], dtype=np.int64)
        # Integer arrays pass through untouched, keeping their dtype.
        assert unsigned_keys(unsigned) is unsigned
        assert unsigned_keys(signed) is signed
        assert unsigned_keys(np.asarray([7, 8], dtype=np.uint32)).dtype == np.uint32
        packed = unsigned_keys([1, 2, np.uint8(3), 2**64 - 1])
        assert packed.dtype == np.uint64
        assert packed.tolist() == [1, 2, 3, 2**64 - 1]

    def test_unpackable_inputs_are_rejected(self):
        for keys in (
            np.asarray([-1, 2], dtype=np.int64),
            [-1, 2],
            [1, 2**64],
            [1, 2.5],
            np.asarray([1.5]),
            np.asarray([0.4, 3.0]),
            [1, "2"],
            [True, False],
        ):
            with pytest.raises(ConfigurationError, match=re.escape(KEY_RULE)):
                unsigned_keys(keys)

    def test_limit_reserves_the_top_keys(self):
        keys = np.asarray([1, 2**64 - 2], dtype=np.uint64)
        assert unsigned_keys(keys, limit=2**64 - 1) is keys
        for top in (np.asarray([1, 2**64 - 1], dtype=np.uint64), [1, 2**64 - 1]):
            with pytest.raises(ConfigurationError, match="reserved"):
                unsigned_keys(top, limit=2**64 - 1)
        # Out-of-range keys keep the common message under any limit.
        with pytest.raises(ConfigurationError, match=re.escape(KEY_RULE + ";")):
            unsigned_keys([1, 2**64], limit=2**64 - 1)
