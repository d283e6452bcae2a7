"""Gensort-compatible 100-byte record generation (§VI-A).

Jim Gray's sort benchmark defines 100-byte records: a 10-byte key followed
by a 90-byte value.  The reference ``gensort`` tool is not available
offline, so this module generates records with the same *layout* and the
same key distribution (uniform random 10-byte keys) from a deterministic
PRNG; the value encodes the record's ordinal so tests can verify that
payloads follow their keys through a sort.

The paper's trick for sorting these on a 16-byte datapath (§VI-A):

1. hash the 90-byte value to a 6-byte index,
2. sort packed 16-byte records of (10-byte key, 6-byte index),
3. after sorting, use the index to fetch the full payload.

:func:`pack_records` performs step 1-2's packing, returning both the packed
key array used by the merge path and the index→payload table used for
recovery.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.records.keyhash import fnv1a_hash_batch, hash_value_to_index

KEY_BYTES = 10
VALUE_BYTES = 90
RECORD_BYTES = KEY_BYTES + VALUE_BYTES
INDEX_BYTES = 6
PACKED_BYTES = KEY_BYTES + INDEX_BYTES


@dataclass(frozen=True)
class GensortRecord:
    """One 100-byte benchmark record."""

    key: bytes
    value: bytes

    def __post_init__(self) -> None:
        if len(self.key) != KEY_BYTES:
            raise WorkloadError(f"gensort key must be {KEY_BYTES} bytes")
        if len(self.value) != VALUE_BYTES:
            raise WorkloadError(f"gensort value must be {VALUE_BYTES} bytes")

    def to_bytes(self) -> bytes:
        """The raw 100-byte record (key then value)."""
        return self.key + self.value

    @classmethod
    def from_bytes(cls, raw: bytes) -> "GensortRecord":
        """Parse one raw 100-byte record."""
        if len(raw) != RECORD_BYTES:
            raise WorkloadError(
                f"gensort record must be {RECORD_BYTES} bytes, got {len(raw)}"
            )
        return cls(key=raw[:KEY_BYTES], value=raw[KEY_BYTES:])


def generate_gensort(n_records: int, seed: int = 0) -> list[GensortRecord]:
    """Generate ``n_records`` deterministic benchmark records.

    Keys are uniform random bytes; values carry the zero-padded decimal
    ordinal followed by filler, mimicking gensort's printable payload.
    """
    if n_records < 0:
        raise WorkloadError(f"record count must be >= 0, got {n_records}")
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 256, size=(n_records, KEY_BYTES), dtype=np.uint8)
    records = []
    for ordinal in range(n_records):
        ordinal_text = f"{ordinal:020d}".encode("ascii")
        filler = bytes((ordinal * 7 + offset) % 256 for offset in range(VALUE_BYTES - 20))
        records.append(
            GensortRecord(key=keys[ordinal].tobytes(), value=ordinal_text + filler)
        )
    return records


def packed_sort_key(record: GensortRecord) -> int:
    """The 10-byte key as a big-endian integer (memcmp order)."""
    return int.from_bytes(record.key, "big")


def pack_records(
    records: list[GensortRecord],
) -> tuple[np.ndarray, np.ndarray, dict[int, list[int]]]:
    """Pack 100-byte records into the paper's 16-byte merge-path format.

    Returns
    -------
    sort_keys:
        ``uint64`` array of the *top 8 bytes* of each 10-byte key.  The
        merge path in this reproduction compares 64-bit prefixes; the
        2 low key bytes ride along in ``packed_low`` and break prefix
        ties during post-sort verification.
    packed_low:
        ``uint64`` array holding, per record, the 2 remaining key bytes
        concatenated with the 6-byte value index (the payload pointer).
    index_table:
        Maps a 6-byte value index to the ordinals of records carrying it,
        allowing payload recovery after the sort (collisions map to
        multiple ordinals, resolved by comparing values).

    Packs the whole batch at once with the vectorized codec;
    ``tests/records/test_gensort.py`` pins it bit-identical to the
    per-record reference codec across batch shapes.
    """
    return _pack_records_vectorized(records)


def _pack_records_scalar(
    records: list[GensortRecord],
) -> tuple[np.ndarray, np.ndarray, dict[int, list[int]]]:
    """Reference per-record packing loop (the codec's test oracle)."""
    sort_keys = np.empty(len(records), dtype=np.uint64)
    packed_low = np.empty(len(records), dtype=np.uint64)
    # defaultdict avoids setdefault's per-record empty-list allocation
    index_table: defaultdict[int, list[int]] = defaultdict(list)
    for ordinal, record in enumerate(records):
        key_int = packed_sort_key(record)
        sort_keys[ordinal] = key_int >> 16
        low_key_bytes = key_int & 0xFFFF
        value_index = hash_value_to_index(record.value, INDEX_BYTES)
        packed_low[ordinal] = (low_key_bytes << 48) | value_index
        index_table[value_index].append(ordinal)
    return sort_keys, packed_low, dict(index_table)


def _pack_records_vectorized(
    records: list[GensortRecord],
) -> tuple[np.ndarray, np.ndarray, dict[int, list[int]]]:
    """Whole-batch packing: one pass over keys, one over values.

    The 10-byte keys concatenate into an ``(n, 10)`` uint8 matrix; the
    top 8 bytes reinterpret as big-endian uint64 (exactly
    ``key_int >> 16`` of the scalar path) and the low 2 bytes combine
    with the batched FNV-1a value hashes into ``packed_low``.  Only the
    index-table fill remains a Python loop, and it does no hashing.
    """
    n_records = len(records)
    keys = np.frombuffer(
        b"".join(record.key for record in records), dtype=np.uint8
    ).reshape(n_records, KEY_BYTES)
    sort_keys = (
        np.ascontiguousarray(keys[:, :8]).view(">u8").ravel().astype(np.uint64)
    )
    low_key_bytes = (keys[:, 8].astype(np.uint64) << np.uint64(8)) | keys[:, 9]
    values = np.frombuffer(
        b"".join(record.value for record in records), dtype=np.uint8
    ).reshape(n_records, VALUE_BYTES)
    value_indices = fnv1a_hash_batch(values) >> np.uint64(8 * (8 - INDEX_BYTES))
    packed_low = (low_key_bytes << np.uint64(48)) | value_indices
    index_table: defaultdict[int, list[int]] = defaultdict(list)
    for ordinal, value_index in enumerate(value_indices.tolist()):
        index_table[value_index].append(ordinal)
    return sort_keys, packed_low, dict(index_table)


def unpack_sorted(
    order: np.ndarray, records: list[GensortRecord]
) -> list[GensortRecord]:
    """Materialise full records in sorted order given a permutation."""
    return [records[int(position)] for position in order]
