"""Shared-memory transport for numpy record arrays.

Process workers receive their tasks by pickling; for the model-mode
merge path the tasks *are* large record arrays, and pickling them twice
(parent -> worker, worker -> parent) would dominate the wall-clock the
pool is supposed to save.  This module ships arrays through
``multiprocessing.shared_memory`` instead:

* the parent packs every input run into one shared block and sends
  workers only a tiny :class:`ShmArrays` descriptor (block name, dtype,
  per-array lengths);
* the parent pre-allocates one *output* block — merge outputs have
  exactly known sizes (a merged group is as long as the sum of its
  inputs) — and each worker writes its group's result into its own
  disjoint slice, returning nothing but an acknowledgement.

Workers attach read-only by convention: tasks partition both blocks, so
no two workers ever touch the same output slice and no lock is needed.
The parent owns both blocks' lifetimes (``close`` + ``unlink`` in a
``finally``); workers only ever ``close`` their attachment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from multiprocessing import shared_memory

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ShmArrays:
    """Picklable descriptor of arrays packed end-to-end in one block."""

    name: str
    dtype: str
    lengths: tuple[int, ...]

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Element offset of each array inside the block (computed once:
        a stage views every slot, so a per-call rebuild is quadratic)."""
        return tuple(accumulate(self.lengths, initial=0))[:-1]

    @property
    def total(self) -> int:
        return sum(self.lengths)


def pack_arrays(
    arrays: list[np.ndarray],
) -> tuple[shared_memory.SharedMemory, ShmArrays]:
    """Copy ``arrays`` into one fresh shared block; caller owns cleanup."""
    if not arrays:
        raise ConfigurationError("cannot pack zero arrays into shared memory")
    dtype = np.result_type(*arrays)
    total = sum(int(a.size) for a in arrays)
    block = shared_memory.SharedMemory(
        create=True, size=max(1, total * dtype.itemsize)
    )
    flat = np.ndarray((total,), dtype=dtype, buffer=block.buf)
    position = 0
    for array in arrays:
        flat[position : position + array.size] = array
        position += array.size
    descriptor = ShmArrays(
        name=block.name,
        dtype=dtype.str,
        lengths=tuple(int(a.size) for a in arrays),
    )
    return block, descriptor


def alloc_arrays(
    lengths: list[int], dtype: np.dtype | str
) -> tuple[shared_memory.SharedMemory, ShmArrays]:
    """Allocate an uninitialised shared block for arrays of known sizes."""
    dtype = np.dtype(dtype)
    total = sum(int(n) for n in lengths)
    block = shared_memory.SharedMemory(
        create=True, size=max(1, total * dtype.itemsize)
    )
    descriptor = ShmArrays(
        name=block.name, dtype=dtype.str, lengths=tuple(int(n) for n in lengths)
    )
    return block, descriptor


def read_array(descriptor: ShmArrays, index: int) -> np.ndarray:
    """Copy array ``index`` out of the block (safe after the block dies)."""
    block = shared_memory.SharedMemory(name=descriptor.name)
    try:
        view = view_array(descriptor, index, block)
        return view.copy()
    finally:
        block.close()


def view_array(
    descriptor: ShmArrays, index: int, block: shared_memory.SharedMemory
) -> np.ndarray:
    """Zero-copy view of array ``index`` inside an attached block."""
    offset = descriptor.offsets[index]
    length = descriptor.lengths[index]
    dtype = np.dtype(descriptor.dtype)
    return np.ndarray(
        (length,), dtype=dtype, buffer=block.buf,
        offset=offset * dtype.itemsize,
    )


def write_array(descriptor: ShmArrays, index: int, values: np.ndarray) -> None:
    """Fill slot ``index`` of a (freshly attached) block with ``values``."""
    if values.size != descriptor.lengths[index]:
        raise ConfigurationError(
            f"shared slot {index} holds {descriptor.lengths[index]} elements, "
            f"got {values.size}"
        )
    block = shared_memory.SharedMemory(name=descriptor.name)
    try:
        view_array(descriptor, index, block)[:] = values
    finally:
        block.close()


#: The record space of simulate mode and the cluster sort (DESIGN.md §6).
KEY_RULE = "records are uint64 keys: integers in [0, 2**64)"


def unsigned_keys(data, limit: int = 2**64) -> np.ndarray:
    """``data`` as an integer key array, or :class:`ConfigurationError`.

    The one records-boundary check of simulate mode and the cluster
    sort.  Both move keys as exact integers (the cycle simulator's
    Python ints, uint64 shared-memory blocks), so floats, negatives and
    keys of 2**64 or more are rejected here rather than truncated,
    wrapped or widened later.  ``limit`` lowers the exclusive ceiling
    for a caller that reserves the top keys: the cycle simulator passes
    its pad sentinel, 2**64 - 1, which its output filter strips.
    Integer arrays come back unchanged, so outputs keep the input's
    dtype; any other accepted input (lists, object arrays) comes back as
    uint64.
    """
    if isinstance(data, np.ndarray) and data.dtype.kind in "ui":
        keys = data
        bounds = (int(data.min()), int(data.max())) if data.size else ()
    else:
        values = data.tolist() if isinstance(data, np.ndarray) else list(data)
        # Element types first: casting a float or a numpy signed scalar
        # to uint64 truncates or wraps instead of raising.
        for value in values:
            if type(value) is not int and not isinstance(value, np.integer):
                raise ConfigurationError(f"{KEY_RULE}; got {value!r}")
        bounds = (min(values), max(values)) if values else ()
        keys = None
    for bound in bounds:
        if not 0 <= bound < 2**64:
            raise ConfigurationError(f"{KEY_RULE}; got {bound}")
    if bounds and bounds[1] >= limit:
        raise ConfigurationError(
            f"{KEY_RULE}, and keys from {limit} up are reserved here; "
            f"got {bounds[1]}"
        )
    return np.asarray(values, dtype=np.uint64) if keys is None else keys


def release(block: shared_memory.SharedMemory) -> None:
    """Close and unlink a parent-owned block, tolerating double release."""
    try:
        block.close()
        block.unlink()
    except FileNotFoundError:  # bonsai-lint: disable=exn-swallow -- already unlinked (e.g. crashed cleanup ran); tolerating double release is this function's contract
        pass
