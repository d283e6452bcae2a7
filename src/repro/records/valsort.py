"""Output validation in the style of the sort benchmark's ``valsort``.

Jim Gray's benchmark (which the paper follows for its gensort datasets,
§VI-A) pairs ``gensort`` with ``valsort``: a validator that checks the
output is ordered and that no records were lost, using an
order-independent checksum so validation needs no copy of the input.

:func:`summarize` computes the same three facts for a key array —
record count, sortedness (with the first violation's position), and an
order-independent checksum — and :func:`validate_sort` compares the
input and output summaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError

_CHECKSUM_MODULUS = (1 << 61) - 1  # Mersenne prime: cheap modular sum


@dataclass(frozen=True)
class SortSummary:
    """Validation facts about one record stream."""

    records: int
    checksum: int
    is_sorted: bool
    first_violation: int | None
    duplicates: int

    def ok_against(self, source: "SortSummary") -> bool:
        """Sorted, and record-preserving with respect to ``source``."""
        return (
            self.is_sorted
            and self.records == source.records
            and self.checksum == source.checksum
        )


def _checksum(keys: np.ndarray) -> int:
    """Order-independent checksum: sum of (key^2 + key) mod a prime.

    Squaring makes the sum sensitive to *which* multiset of keys is
    present, not only their total; it distinguishes e.g. {1, 3} from
    {2, 2}, which a plain sum would not.
    """
    values = keys.astype(np.uint64, copy=False).astype(object)
    total = 0
    # Chunked Python-int arithmetic: exact, no overflow.
    for start in range(0, len(values), 65536):
        chunk = values[start : start + 65536]
        total = (total + int(np.sum(chunk * chunk + chunk))) % _CHECKSUM_MODULUS
    return total


def summarize(keys: np.ndarray) -> SortSummary:
    """Compute the validation summary of a key array."""
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise WorkloadError(f"expected a 1-D key array, got shape {keys.shape}")
    if keys.size == 0:
        return SortSummary(
            records=0, checksum=0, is_sorted=True, first_violation=None, duplicates=0
        )
    # Compare neighbours in the keys' own dtype: a signed diff would
    # wrap uint64 keys >= 2**63 and misjudge their order.
    violations = np.flatnonzero(keys[1:] < keys[:-1])
    duplicates = int(np.count_nonzero(keys[1:] == keys[:-1]))
    return SortSummary(
        records=int(keys.size),
        checksum=_checksum(keys),
        is_sorted=violations.size == 0,
        first_violation=int(violations[0]) + 1 if violations.size else None,
        duplicates=duplicates,
    )


def content_digest(keys: np.ndarray) -> str:
    """Order-sensitive sha256 content digest of a key array (16 hex chars).

    The canonical "same output bytes" fingerprint used by the benchmark
    identity gates and the serve result cache: two runs agree iff their
    digests are string-equal.  Keys are widened to ``uint64`` first so
    the digest is independent of the array's inbound dtype.
    """
    import hashlib

    return hashlib.sha256(np.asarray(keys, dtype=np.uint64).tobytes()).hexdigest()[:16]


def validate_sort(input_keys: np.ndarray, output_keys: np.ndarray) -> SortSummary:
    """Validate a sort run; raises :class:`WorkloadError` on any failure.

    Returns the output's summary on success (for reporting).
    """
    source = summarize(input_keys)
    result = summarize(output_keys)
    if not result.is_sorted:
        raise WorkloadError(
            f"output not sorted: first violation at record {result.first_violation}"
        )
    if result.records != source.records:
        raise WorkloadError(
            f"record count changed: {source.records} in, {result.records} out"
        )
    if result.checksum != source.checksum:
        raise WorkloadError(
            "checksum mismatch: the output is not a permutation of the input"
        )
    return result
